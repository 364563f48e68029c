// EdgeBOL — Algorithm 1: contextual safe Bayesian online learning for joint
// vBS + edge-AI orchestration.
//
// Three GP surrogates over the joint context-control space model the cost
// u = delta1 * p_server + delta2 * p_bs (eq. 1), the service delay, and the
// mAP. Every time period the agent observes the context, scores the entire
// control grid under the GP posteriors (eqs. 3-4), builds the safe set
// (eq. 8), picks the safe LCB minimizer (eq. 9), and conditions the GPs on
// the resulting noisy KPI observations.
//
// Constraint thresholds may change at runtime (the operator relaxing an SLA,
// Fig. 14): safe sets are recomputed from the surrogates, so adaptation is
// immediate — no re-learning. Kernel hyperparameters, per the paper, are
// fitted on prior data (see gp::fit_hyperparameters) and held constant while
// the algorithm runs.

#pragma once

#include <array>
#include <cstddef>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/acquisition.hpp"
#include "core/safe_set.hpp"
#include "env/control_grid.hpp"
#include "env/testbed.hpp"
#include "gp/gp_regressor.hpp"
#include "gp/hyperopt.hpp"

namespace edgebol::core {

/// Energy prices of eq. (1), in monetary units per watt.
struct CostWeights {
  double delta1 = 1.0;  // edge-server power price
  double delta2 = 1.0;  // vBS power price

  double cost(double server_power_w, double bs_power_w) const {
    return delta1 * server_power_w + delta2 * bs_power_w;
  }
};

/// Hardening of the learning loop against faulty feedback (all opt-in; the
/// master switch off reproduces the paper's fragile loop exactly).
struct ResilienceConfig {
  bool enabled = false;

  // --- KPI validation gate (applied before GP conditioning) ---
  // NaN/Inf KPIs are always rejected when the gate is on; these bound the
  // physically plausible ranges, and the z-test rejects statistical
  // outliers (spiked meter readings) against the running statistics of
  // previously accepted samples.
  double max_delay_s = 60.0;
  double max_power_w = 2000.0;
  double outlier_z = 8.0;
  std::size_t outlier_min_samples = 12;

  // --- Violation watchdog ---
  // After `watchdog_violations` consecutive measured constraint violations
  // the agent rolls back to the most conservative assumed-safe control for
  // `watchdog_hold_periods` periods (learning continues meanwhile). The
  // slacks forgive pure observation noise, mirroring the orchestrator's
  // violation accounting.
  int watchdog_violations = 4;
  int watchdog_hold_periods = 3;
  double delay_slack = 1.05;
  double map_slack = 0.03;

  // --- Empty-safe-set fallback ---
  // When no candidate qualifies on GP evidence (constraints tightened at
  // runtime, or the surrogates were starved by rejected KPIs), prefer the
  // last policy that empirically satisfied the active constraints over the
  // assumed-safe S0 corner.
  bool fallback_to_last_safe = true;
};

/// What the resilience layer did so far (all zero in a healthy run).
struct ResilienceStats {
  std::size_t kpi_rejected_nan = 0;
  std::size_t kpi_rejected_range = 0;
  std::size_t kpi_rejected_outlier = 0;
  std::size_t gp_update_failures = 0;
  std::size_t watchdog_trips = 0;
  std::size_t watchdog_hold_selects = 0;
  std::size_t last_safe_fallbacks = 0;

  std::size_t kpi_rejected_total() const {
    return kpi_rejected_nan + kpi_rejected_range + kpi_rejected_outlier;
  }
};

/// Which acquisition rule drives exploration within the safe set.
enum class AcquisitionKind {
  kSafeLcb,    // eq. (9): EdgeBOL's safe contextual LCB (the paper's choice)
  kSafeOpt,    // SafeOpt-style max-width over minimizers+expanders (§5 ablation)
  kGlobalLcb,  // LCB over the WHOLE grid, ignoring the safe set — the
               // unsafe-BO ablation quantifying what eq. (8) buys
};

struct EdgeBolConfig {
  double beta_sqrt = 2.5;  // beta^(1/2), as in the paper's evaluation
  AcquisitionKind acquisition = AcquisitionKind::kSafeLcb;
  CostWeights weights{};
  ConstraintSpec constraints{};

  /// GP hyperparameters per surrogate (cost / delay / mAP). When a vector
  /// is empty, calibrated defaults over the 7-dim normalized joint space
  /// are used. Fit them from prior data with gp::fit_hyperparameters for a
  /// specific deployment.
  gp::GpHyperparams cost_hp{};
  gp::GpHyperparams delay_hp{};
  gp::GpHyperparams map_hp{};

  /// Scale dividing raw cost observations so GP targets are O(1). 0 picks
  /// an automatic scale from the weights and the platform's power ranges.
  double cost_scale = 0.0;
  /// Scale dividing delay observations (seconds); 1 s is already O(1).
  double delay_scale = 1.0;

  /// Initial safe set S0 (grid indices). Empty selects the grid's
  /// maximum-performance corner, per §5 (Practical Issues).
  std::vector<std::size_t> initial_safe_set{};

  /// Data-retention filter for long horizons (§5, Practical Issues: the
  /// posterior update is O(N^3) in the number of stored observations). When
  /// > 0, an observation is only added to the surrogates if at least one of
  /// them is still uncertain at that input — specifically if some GP's
  /// predictive variance exceeds `novelty_threshold` times its noise
  /// variance. After convergence, repeated samples of the incumbent policy
  /// stop growing the GPs, bounding memory and per-period compute on
  /// 1000s-period runs. 0 (default) stores everything, as the paper does.
  double novelty_threshold = 0.0;

  /// Observation budget B per GP surrogate (0 = unbounded, the paper's
  /// setting). Once the surrogates hold more than B observations, each
  /// update evicts one via an exact O(B^2 + B|X|) Cholesky downdate, so
  /// steady-state per-period latency and memory are flat for unbounded
  /// horizons. Unlike `novelty_threshold` (which filters what gets stored),
  /// the budget bounds what stays stored — the two compose. Must be 0 or at
  /// least the safe-seed size |S0|; EdgeBol's constructor rejects smaller
  /// values.
  std::size_t gp_budget = 0;

  /// Which observation a full budget evicts. The cost surrogate arbitrates
  /// the choice and the same index is removed from all three surrogates, so
  /// they always condition on the same observation set (save/load and the
  /// paper's shared-input assumption depend on that).
  gp::EvictionPolicy gp_eviction = gp::EvictionPolicy::kOldest;

  /// Candidate scores over the whole grid are cached per context; the cache
  /// is rebuilt (O(T^2 |X|)) only when the normalized context features move
  /// by more than this tolerance since the cached context. Movements below
  /// it are kernel-negligible (shortest context length-scale ~0.8), so this
  /// absorbs single-user CQI flutter in multi-user slices. Set to 0 to
  /// rebuild on every context change.
  double tracking_tolerance = 0.04;

  /// Run the decision path (safe set + acquisition over the whole grid)
  /// through the incremental engine: per-candidate confidence bounds are
  /// kept across periods and only candidates whose bounds could have
  /// flipped are rescored after each rank-1 GP update (see
  /// core::SafeSetTracker). Decisions are bit-identical to the full rescan
  /// — this is purely a latency knob, and `false` is the escape hatch back
  /// to the straight-line scan.
  bool incremental_decide = true;

  /// Degraded-mode hardening (KPI gate, watchdog, last-safe fallback).
  ResilienceConfig resilience{};

  /// Worker threads for the GP posterior engine (tracked-cache rebuilds on
  /// context switches, per-period folds, and the three surrogates' updates
  /// run concurrently). Counts the calling thread: 1 keeps everything on
  /// the calling thread; 0 is rejected at construction. The decision
  /// trajectory is bit-identical for any value — the parallel partitioning
  /// never depends on the thread count (see common::ThreadPool).
  std::size_t num_threads = 1;
};

/// One conditioning row of the three surrogates in PORTABLE units: the joint
/// [context, control] input plus the raw (untransformed) KPI-equivalent
/// targets. This is the cross-cell transfer payload — a new cell warm-starts
/// by importing rows exported from established neighbours, which conditions
/// its surrogates exactly as observe() would (so the GP evidence, and with
/// it the safe set, carries over). Raw units make the rows valid across
/// agents with different cost weights or scales.
struct PseudoObservation {
  linalg::Vector z;        // joint features (Context + ControlPolicy dims)
  double cost = 0.0;       // u = delta1 p_server + delta2 p_bs (monetary)
  double delay_s = 0.0;    // service delay (clipped at export)
  double map = 0.0;        // mAP in [0, 1]
};

/// What the agent decided in one time period.
struct Decision {
  std::size_t policy_index = 0;
  env::ControlPolicy policy{};
  std::size_t safe_set_size = 0;
  bool fell_back_to_s0 = false;   // constraints infeasible under the GPs
  bool watchdog_hold = false;     // conservative rollback is in force
  bool used_last_safe = false;    // fallback chose the last known-safe policy
};

class EdgeBol {
 public:
  EdgeBol(env::ControlGrid grid, EdgeBolConfig config);

  /// Algorithm 1, lines 4-7: given the observed context, compute posteriors
  /// over the whole grid, build the safe set, and pick the safe LCB
  /// minimizer.
  Decision select(const env::Context& context);

  /// Algorithm 1, lines 8-13: condition the surrogates on the KPIs observed
  /// at the end of the period.
  void update(const env::Context& context, std::size_t policy_index,
              const env::Measurement& measurement);

  /// Feed a pre-production observation without selecting (warm start).
  void add_prior_observation(const env::Context& context,
                             const env::ControlPolicy& policy,
                             const env::Measurement& measurement);

  /// Export up to `max_count` of the MOST RECENT conditioning rows in
  /// portable units — the cross-cell transfer payload (see
  /// PseudoObservation). Order is preserved, so importing a full export into
  /// a same-configured fresh agent reproduces this agent's posterior (up to
  /// one rounding round-trip through the unit conversion).
  std::vector<PseudoObservation> export_observations(
      std::size_t max_count) const;

  /// Condition the surrogates on rows exported from another agent, applying
  /// this agent's own scales/transforms (observe()-style, but without a
  /// Measurement or the novelty gate). The observation budget is enforced
  /// afterwards and tracked caches reset. Throws std::invalid_argument on a
  /// dimension mismatch or non-finite targets.
  void import_observations(std::span<const PseudoObservation> rows);

  /// Persist the surrogates' conditioning data (the pre-production ->
  /// production handoff of §4.2): a plain-text format holding each
  /// observation's joint input and the three transformed targets. Load into
  /// a fresh agent built with the same grid and configuration; loading
  /// replays the observations, so the restored agent makes identical
  /// decisions. Throws std::runtime_error on malformed or mismatched data.
  void save_observations(std::ostream& os) const;
  void load_observations(std::istream& is);

  /// Runtime SLA change: takes effect at the next select().
  void set_constraints(const ConstraintSpec& constraints);
  const ConstraintSpec& constraints() const { return cfg_.constraints; }
  const CostWeights& weights() const { return cfg_.weights; }

  /// What the resilience layer rejected/recovered so far.
  const ResilienceStats& resilience_stats() const { return resilience_stats_; }

  /// The most recent selected policy whose measurement satisfied both
  /// active constraints (grid index), if any.
  std::optional<std::size_t> last_known_safe_index() const {
    return last_safe_index_;
  }

  const env::ControlGrid& grid() const { return grid_; }
  std::size_t num_observations() const { return cost_gp_.num_observations(); }
  double cost_scale() const { return cost_scale_; }

  /// Posterior of the (scaled) cost surrogate at a context/policy — for
  /// diagnostics and tests.
  gp::Prediction cost_posterior(const env::Context&,
                                const env::ControlPolicy&) const;

 private:
  void ensure_tracking(const env::Context& context);
  void observe(const env::Context& context, const env::ControlPolicy& policy,
               const env::Measurement& measurement);
  // Conditions the three surrogates on one observation: their factor
  // stages, then (if `evict`) one coordinated eviction, then one sweep.
  void add_observation(const linalg::Vector& z, double y_cost, double y_delay,
                       double y_map, bool evict);
  // Stages one eviction, chosen by the cost surrogate, on every surrogate
  // over cfg_.gp_budget. False (nothing staged) when within the budget.
  bool stage_eviction();
  // Evict (coordinated across the three surrogates) until none exceeds
  // cfg_.gp_budget. No-op when the budget is 0.
  void enforce_budget();
  std::array<gp::GpRegressor*, 3> surrogates() {
    return {&cost_gp_, &delay_gp_, &map_gp_};
  }
  bool validate_measurement(const env::Measurement& m);
  bool violates_constraints(const env::Measurement& m) const;
  std::size_t conservative_index() const;

  env::ControlGrid grid_;
  EdgeBolConfig cfg_;
  double cost_scale_ = 1.0;
  std::shared_ptr<common::ThreadPool> pool_;  // null when num_threads <= 1
  gp::GpRegressor cost_gp_;
  gp::GpRegressor delay_gp_;
  gp::GpRegressor map_gp_;
  std::vector<std::size_t> s0_;
  std::optional<linalg::Vector> tracked_context_features_;

  // Incremental decision path (cfg_.incremental_decide): bound tracker over
  // {delay UCB, mAP LCB}, the fused scan engine, and the per-round spec
  // scratch (rebuilt each select — thresholds may change at runtime).
  SafeSetTracker safe_tracker_;
  FusedAcquisition acquisition_;
  std::array<BoundSpec, 2> bound_specs_{};

  // Resilience state (untouched unless cfg_.resilience.enabled).
  ResilienceStats resilience_stats_;
  std::optional<std::size_t> last_safe_index_;
  int consecutive_violations_ = 0;
  int watchdog_hold_remaining_ = 0;
  RunningStats accepted_delay_;
  RunningStats accepted_map_;
  RunningStats accepted_server_power_;
  RunningStats accepted_bs_power_;
};

/// Calibrated default hyperparameters for each surrogate over the 7-dim
/// normalized joint space (used when EdgeBolConfig leaves them empty).
gp::GpHyperparams default_cost_hyperparams();
gp::GpHyperparams default_delay_hyperparams();
gp::GpHyperparams default_map_hyperparams();

}  // namespace edgebol::core
