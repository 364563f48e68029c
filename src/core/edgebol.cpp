#include "core/edgebol.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "core/acquisition.hpp"

namespace edgebol::core {

namespace {

// The delay surrogate models log(delay): the transform is monotone, so the
// safe-set test is unchanged (log d <= log d_max), while (i) the 4-8%
// multiplicative measurement noise becomes homoscedastic — a GP assumption —
// and (ii) the ~1/airtime blow-up flattens to something a stationary kernel
// represents well. Observations are additionally clipped: starved corners of
// the control space (airtime 10% with MCS cap 0) produce delays of tens of
// seconds, and anything above the clip is equally (and very) unsafe.
constexpr double kDelayClipS = 3.0;

gp::GpHyperparams resolve(const gp::GpHyperparams& given,
                          gp::GpHyperparams fallback) {
  if (given.lengthscales.empty()) return fallback;
  if (given.lengthscales.size() !=
      env::Context::kFeatureDims + env::ControlPolicy::kFeatureDims)
    throw std::invalid_argument("EdgeBol: hyperparams must cover 7 dims");
  return given;
}

bool within_tolerance(const linalg::Vector& a, const linalg::Vector& b,
                      double tol) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) > tol) return false;
  }
  return true;
}

}  // namespace

// The defaults below play the role of the paper's pre-production
// hyperparameter fitting (§5): length-scales and signal variances matched to
// the platform's measured smoothness, then held constant while the
// algorithm runs. Safe exploration hinges on them: the amplitude bounds the
// prior uncertainty (so unexplored regions are unsafe but not hopeless) and
// the length-scales control how far one safe observation vouches for its
// neighbours. Dimension order: [n_users, cqi_mean, cqi_var, resolution,
// airtime, gpu_speed, mcs_cap], all normalized.

gp::GpHyperparams default_cost_hyperparams() {
  gp::GpHyperparams hp;
  hp.lengthscales = {1.0, 2.0, 4.0, 2.3, 2.0, 2.8, 1.2};
  hp.amplitude = 0.20;
  hp.noise_variance = 8.0e-4;
  return hp;
}

gp::GpHyperparams default_delay_hyperparams() {
  gp::GpHyperparams hp;
  hp.lengthscales = {0.9, 0.8, 1.0, 2.0, 1.5, 3.0, 1.0};
  hp.amplitude = 0.5;
  hp.noise_variance = 1.5e-3;
  return hp;
}

gp::GpHyperparams default_map_hyperparams() {
  gp::GpHyperparams hp;
  // mAP depends (almost) only on the image resolution; the long scales on
  // the remaining dimensions encode that prior.
  hp.lengthscales = {8.0, 6.0, 4.5, 1.35, 8.0, 8.0, 8.0};
  hp.amplitude = 0.06;
  hp.noise_variance = 4.0e-4;
  return hp;
}

EdgeBol::EdgeBol(env::ControlGrid grid, EdgeBolConfig config)
    : grid_(std::move(grid)),
      cfg_(std::move(config)),
      cost_gp_(resolve(cfg_.cost_hp, default_cost_hyperparams()).make_kernel(),
               resolve(cfg_.cost_hp, default_cost_hyperparams())
                   .noise_variance),
      delay_gp_(
          resolve(cfg_.delay_hp, default_delay_hyperparams()).make_kernel(),
          resolve(cfg_.delay_hp, default_delay_hyperparams()).noise_variance),
      map_gp_(resolve(cfg_.map_hp, default_map_hyperparams()).make_kernel(),
              resolve(cfg_.map_hp, default_map_hyperparams()).noise_variance) {
  if (cfg_.beta_sqrt < 0.0)
    throw std::invalid_argument("EdgeBol: beta_sqrt must be >= 0");
  if (cfg_.delay_scale <= 0.0)
    throw std::invalid_argument("EdgeBol: delay scale must be > 0");
  if (cfg_.num_threads == 0)
    throw std::invalid_argument(
        "EdgeBol: num_threads must be >= 1 — it counts the calling thread "
        "(use 1 for a serial agent)");

  // Automatic cost scale: the platform's plausible maximum cost, so scaled
  // observations land in ~[0, 1] (the GP prior amplitude).
  cost_scale_ = cfg_.cost_scale > 0.0
                    ? cfg_.cost_scale
                    : cfg_.weights.cost(/*server max*/ 190.0, /*bs max*/ 7.0);

  s0_ = cfg_.initial_safe_set;
  if (s0_.empty()) s0_.push_back(grid_.max_performance_index());
  for (std::size_t i : s0_) {
    if (i >= grid_.size())
      throw std::invalid_argument("EdgeBol: S0 index out of range");
  }
  if (cfg_.gp_budget != 0 && cfg_.gp_budget < s0_.size())
    throw std::invalid_argument(
        "EdgeBol: gp_budget (" + std::to_string(cfg_.gp_budget) +
        ") is below the safe-seed size |S0| (" + std::to_string(s0_.size()) +
        ") — the budget must be able to retain every seed observation; use 0 "
        "for unbounded");

  if (cfg_.num_threads > 1) {
    pool_ = std::make_shared<common::ThreadPool>(cfg_.num_threads);
    cost_gp_.set_thread_pool(pool_);
    delay_gp_.set_thread_pool(pool_);
    map_gp_.set_thread_pool(pool_);
  }

  safe_tracker_.configure(grid_.size(), 2);
  acquisition_.configure(grid_.size(), s0_);
}

void EdgeBol::ensure_tracking(const env::Context& context) {
  const linalg::Vector f = context.to_features();
  if (tracked_context_features_ &&
      within_tolerance(*tracked_context_features_, f,
                       cfg_.tracking_tolerance))
    return;
  // One packed copy of the candidate features, shared by all three
  // surrogates; their O(T^2 |X|) cache rebuilds run concurrently (each
  // rebuild is itself parallel over candidate blocks — nested use of the
  // same pool).
  const auto cands = std::make_shared<const linalg::Matrix>(
      grid_.candidate_feature_matrix(context));
  if (pool_) {
    // sync: each task mutates a distinct surrogate; the shared `cands`
    // matrix is const and read-only; run_tasks joins before return.
    pool_->run_tasks({[&] { cost_gp_.track_candidates(cands); },
                      [&] { delay_gp_.track_candidates(cands); },
                      [&] { map_gp_.track_candidates(cands); }});
  } else {
    cost_gp_.track_candidates(cands);
    delay_gp_.track_candidates(cands);
    map_gp_.track_candidates(cands);
  }
  tracked_context_features_ = f;
}

bool EdgeBol::violates_constraints(const env::Measurement& m) const {
  const ResilienceConfig& r = cfg_.resilience;
  return m.delay_s > cfg_.constraints.d_max_s * r.delay_slack ||
         m.map < cfg_.constraints.map_min - r.map_slack;
}

std::size_t EdgeBol::conservative_index() const {
  // The most conservative assumed-safe control: the S0 member with the
  // highest performance headroom (it buys constraint satisfaction at the
  // highest power cost).
  std::size_t best = s0_.front();
  double best_perf = -1.0;
  for (std::size_t i : s0_) {
    const env::ControlPolicy& p = grid_.policy(i);
    const double perf = p.resolution + p.airtime + p.gpu_speed +
                        static_cast<double>(p.mcs_cap) / ran::kMaxUlMcs;
    if (perf > best_perf) {
      best_perf = perf;
      best = i;
    }
  }
  return best;
}

bool EdgeBol::validate_measurement(const env::Measurement& m) {
  const ResilienceConfig& r = cfg_.resilience;
  const double values[] = {m.delay_s, m.map, m.server_power_w, m.bs_power_w};
  for (double v : values) {
    if (!std::isfinite(v)) {
      ++resilience_stats_.kpi_rejected_nan;
      return false;
    }
  }
  if (m.delay_s < 0.0 || m.delay_s > r.max_delay_s || m.map < 0.0 ||
      m.map > 1.0 || m.server_power_w < 0.0 ||
      m.server_power_w > r.max_power_w || m.bs_power_w < 0.0 ||
      m.bs_power_w > r.max_power_w) {
    ++resilience_stats_.kpi_rejected_range;
    return false;
  }
  // Statistical outlier gate against the accepted history: catches meter
  // glitches that stay inside the physical ranges.
  const RunningStats* hist[] = {&accepted_delay_, &accepted_map_,
                                &accepted_server_power_, &accepted_bs_power_};
  for (std::size_t k = 0; k < 4; ++k) {
    const RunningStats& h = *hist[k];
    if (h.count() < r.outlier_min_samples) continue;
    const double sd = h.stddev();
    if (sd <= 1e-9) continue;
    if (std::abs(values[k] - h.mean()) > r.outlier_z * sd) {
      ++resilience_stats_.kpi_rejected_outlier;
      return false;
    }
  }
  accepted_delay_.add(m.delay_s);
  accepted_map_.add(m.map);
  accepted_server_power_.add(m.server_power_w);
  accepted_bs_power_.add(m.bs_power_w);
  return true;
}

Decision EdgeBol::select(const env::Context& context) {
  if (cfg_.resilience.enabled && watchdog_hold_remaining_ > 0) {
    // Watchdog rollback in force: hold the conservative control while the
    // surrogates keep learning from whatever valid KPIs arrive.
    --watchdog_hold_remaining_;
    ++resilience_stats_.watchdog_hold_selects;
    Decision dec;
    dec.policy_index =
        last_safe_index_.value_or(conservative_index());
    dec.policy = grid_.policy(dec.policy_index);
    dec.safe_set_size = s0_.size();
    dec.watchdog_hold = true;
    return dec;
  }

  ensure_tracking(context);
  const std::size_t m = grid_.size();
  const double d_max_scaled =
      std::log(cfg_.constraints.d_max_s / cfg_.delay_scale);

  Decision dec;
  if (cfg_.incremental_decide) {
    // Incremental decision path: the tracker keeps per-candidate confidence
    // bounds across periods and the fused engine maintains + scans them in
    // one pool dispatch. Bit-identical to the legacy scan below (tests pin
    // that); specs are rebuilt each period because thresholds may change at
    // runtime — threshold moves are free for the tracker.
    bound_specs_[0] = BoundSpec{&delay_gp_, /*upper=*/true, d_max_scaled, 0.0};
    bound_specs_[1] = BoundSpec{&map_gp_, /*upper=*/false,
                                cfg_.constraints.map_min, 0.0};
    FusedAcquisitionKind kind = FusedAcquisitionKind::kSafeLcb;
    if (cfg_.acquisition == AcquisitionKind::kSafeOpt)
      kind = FusedAcquisitionKind::kSafeOpt;
    else if (cfg_.acquisition == AcquisitionKind::kGlobalLcb)
      kind = FusedAcquisitionKind::kGlobalLcb;
    const FusedDecision r = acquisition_.decide(
        kind, safe_tracker_, bound_specs_, cost_gp_, cfg_.beta_sqrt,
        pool_.get(), grid_.adjacency_offsets(), grid_.adjacency());
    dec.policy_index = r.index;
    dec.safe_set_size = r.safe_set_size;
    dec.fell_back_to_s0 = r.fell_back_to_s0;
  } else {
    std::vector<gp::Prediction> delay_post(m), map_post(m), cost_post(m);
    const auto scan = [&](std::size_t j0, std::size_t j1) {
      for (std::size_t j = j0; j < j1; ++j) {
        delay_post[j] = delay_gp_.tracked_prediction(j);
        map_post[j] = map_gp_.tracked_prediction(j);
        cost_post[j] = cost_gp_.tracked_prediction(j);
      }
    };
    if (pool_) {
      // sync: block [j0, j1) writes only delay/map/cost_post[j] for its own
      // indices; tracked_prediction is const on all three surrogates.
      pool_->parallel_for(m, /*grain=*/1024, scan);
    } else {
      scan(0, m);
    }

    std::vector<std::size_t> safe =
        compute_safe_set(delay_post, map_post, d_max_scaled,
                         cfg_.constraints.map_min, cfg_.beta_sqrt, s0_);

    // Did any candidate qualify on the GP evidence alone (beyond S0)?
    bool fell_back = true;
    for (std::size_t i : safe) {
      const bool in_s0 = std::find(s0_.begin(), s0_.end(), i) != s0_.end();
      const gp::Prediction& d = delay_post[i];
      const gp::Prediction& q = map_post[i];
      const bool qualified =
          d.mean + cfg_.beta_sqrt * d.stddev() <= d_max_scaled &&
          q.mean - cfg_.beta_sqrt * q.stddev() >= cfg_.constraints.map_min;
      if (qualified || !in_s0) {
        fell_back = false;
        break;
      }
    }

    if (cfg_.acquisition == AcquisitionKind::kGlobalLcb) {
      std::vector<std::size_t> all(grid_.size());
      for (std::size_t j = 0; j < grid_.size(); ++j) all[j] = j;
      dec.policy_index = lcb_argmin(cost_post, all, cfg_.beta_sqrt);
    } else if (cfg_.acquisition == AcquisitionKind::kSafeOpt) {
      SafeOptInputs in;
      in.cost = &cost_post;
      in.delay = &delay_post;
      in.map = &map_post;
      in.safe_set = &safe;
      in.beta = cfg_.beta_sqrt;
      dec.policy_index =
          safeopt_select(in, grid_.adjacency_offsets(), grid_.adjacency());
    } else {
      dec.policy_index = lcb_argmin(cost_post, safe, cfg_.beta_sqrt);
    }
    dec.safe_set_size = safe.size();
    dec.fell_back_to_s0 = fell_back;
  }
  dec.policy = grid_.policy(dec.policy_index);

  // The GP evidence qualified nothing: prefer the policy most recently seen
  // to satisfy the *active* constraints over the assumed-safe S0 corner.
  if (dec.fell_back_to_s0 && cfg_.resilience.enabled &&
      cfg_.resilience.fallback_to_last_safe && last_safe_index_ &&
      cfg_.acquisition != AcquisitionKind::kGlobalLcb &&
      *last_safe_index_ != dec.policy_index) {
    dec.policy_index = *last_safe_index_;
    dec.policy = grid_.policy(dec.policy_index);
    dec.used_last_safe = true;
    ++resilience_stats_.last_safe_fallbacks;
  }
  return dec;
}

void EdgeBol::observe(const env::Context& context,
                      const env::ControlPolicy& policy,
                      const env::Measurement& m) {
  const linalg::Vector z = env::joint_features(context, policy);
  if (cfg_.novelty_threshold > 0.0 && cost_gp_.num_observations() > 0) {
    const bool informative =
        cost_gp_.predict(z).variance >
            cfg_.novelty_threshold * cost_gp_.noise_variance() ||
        delay_gp_.predict(z).variance >
            cfg_.novelty_threshold * delay_gp_.noise_variance() ||
        map_gp_.predict(z).variance >
            cfg_.novelty_threshold * map_gp_.noise_variance();
    if (!informative) return;
  }
  const double u = cfg_.weights.cost(m.server_power_w, m.bs_power_w);
  const double y_cost = u / cost_scale_;
  const double y_delay =
      std::log(std::min(m.delay_s, kDelayClipS) / cfg_.delay_scale);
  const double y_map = m.map;
  add_observation(z, y_cost, y_delay, y_map, /*evict=*/true);
  enforce_budget();
}

void EdgeBol::add_observation(const linalg::Vector& z, double y_cost,
                              double y_delay, double y_map, bool evict) {
  // Factor stages first: O(T^2) each, serial. A failed stage_add (non-SPD
  // extension) leaves its surrogate unchanged, never half-updated. Every
  // surrogate is still attempted and the staged ones swept; the first error
  // is rethrown, the survivors keep the point, and update() counts the
  // failure.
  const std::array<double, 3> ys{y_cost, y_delay, y_map};
  const std::array<gp::GpRegressor*, 3> gps = surrogates();
  std::exception_ptr first_error;
  for (std::size_t k = 0; k < gps.size(); ++k) {
    try {
      gps[k]->stage_add(z, ys[k]);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (!first_error && evict) stage_eviction();
  // The O(T |X|) cache work of all three — fold, then the eviction's
  // downdate — in one pool dispatch.
  gp::GpRegressor::sweep_all(gps, pool_.get());
  if (first_error) std::rethrow_exception(first_error);
}

bool EdgeBol::stage_eviction() {
  if (cfg_.gp_budget == 0 || cost_gp_.num_observations() <= cfg_.gp_budget)
    return false;
  // The three surrogates must keep conditioning on the SAME observation set
  // (save_observations zips their targets by index), so the per-GP
  // auto-eviction stays off and the cost surrogate arbitrates: it picks the
  // victim index, and the same index is removed from all three. The choice
  // is computed serially, so budgeted trajectories stay bit-identical for
  // any num_threads.
  const std::size_t victim = cost_gp_.eviction_candidate(cfg_.gp_eviction);
  // After a partial add failure (gp_update_failures) a surrogate can hold
  // one observation more or fewer than its peers; guard each removal so a
  // degraded agent still converges to the budget instead of throwing.
  for (gp::GpRegressor* g : surrogates()) {
    if (g->num_observations() > cfg_.gp_budget &&
        victim < g->num_observations()) {
      g->stage_remove(victim);
    }
  }
  return true;
}

void EdgeBol::enforce_budget() {
  // Iterates only after a partial add failure or when load_observations /
  // import_observations replayed more than one observation past the budget.
  while (stage_eviction()) {
    gp::GpRegressor::sweep_all(surrogates(), pool_.get());
  }
}

void EdgeBol::update(const env::Context& context, std::size_t policy_index,
                     const env::Measurement& measurement) {
  if (policy_index >= grid_.size())
    throw std::invalid_argument("EdgeBol::update: policy index out of range");
  if (!cfg_.resilience.enabled) {
    observe(context, grid_.policy(policy_index), measurement);
    return;
  }

  // KPI validation gate: never condition the surrogates on garbage.
  if (!validate_measurement(measurement)) return;

  // Watchdog: K consecutive measured violations trip a rollback to the most
  // conservative known-safe control for the configured hold.
  if (violates_constraints(measurement)) {
    if (++consecutive_violations_ >= cfg_.resilience.watchdog_violations) {
      ++resilience_stats_.watchdog_trips;
      watchdog_hold_remaining_ = cfg_.resilience.watchdog_hold_periods;
      consecutive_violations_ = 0;
    }
  } else {
    consecutive_violations_ = 0;
    last_safe_index_ = policy_index;
  }

  try {
    observe(context, grid_.policy(policy_index), measurement);
  } catch (const std::exception&) {
    // A failed surrogate update (e.g. a Cholesky extension that stayed
    // non-SPD even after jitter escalation) costs one observation, not the
    // run.
    ++resilience_stats_.gp_update_failures;
  }
}

void EdgeBol::add_prior_observation(const env::Context& context,
                                    const env::ControlPolicy& policy,
                                    const env::Measurement& measurement) {
  observe(context, policy, measurement);
}

std::vector<PseudoObservation> EdgeBol::export_observations(
    std::size_t max_count) const {
  const std::size_t n = cost_gp_.num_observations();
  const std::size_t take = std::min(max_count, n);
  std::vector<PseudoObservation> out;
  out.reserve(take);
  for (std::size_t i = n - take; i < n; ++i) {
    PseudoObservation o;
    o.z = cost_gp_.inputs()[i];
    // Invert the storage transforms so the row is unit-portable: the
    // importer re-applies its own scales. Delay was clipped at kDelayClipS
    // before the log, so exp() recovers the clipped value exactly.
    o.cost = cost_gp_.targets()[i] * cost_scale_;
    o.delay_s = std::exp(delay_gp_.targets()[i]) * cfg_.delay_scale;
    o.map = map_gp_.targets()[i];
    out.push_back(std::move(o));
  }
  return out;
}

void EdgeBol::import_observations(std::span<const PseudoObservation> rows) {
  constexpr std::size_t kDims =
      env::Context::kFeatureDims + env::ControlPolicy::kFeatureDims;
  for (const PseudoObservation& o : rows) {
    if (o.z.size() != kDims)
      throw std::invalid_argument(
          "EdgeBol::import_observations: input dimension mismatch");
    if (!std::isfinite(o.cost) || !std::isfinite(o.delay_s) ||
        !std::isfinite(o.map) || o.delay_s <= 0.0)
      throw std::invalid_argument(
          "EdgeBol::import_observations: non-finite or non-positive targets");
    if (o.map < 0.0 || o.map > 1.0)
      throw std::invalid_argument(
          "EdgeBol::import_observations: mAP outside [0, 1]");
  }
  for (const PseudoObservation& o : rows) {
    const double y_cost = o.cost / cost_scale_;
    const double y_delay =
        std::log(std::min(o.delay_s, kDelayClipS) / cfg_.delay_scale);
    const double y_map = o.map;
    add_observation(o.z, y_cost, y_delay, y_map, /*evict=*/false);
  }
  enforce_budget();
  tracked_context_features_.reset();  // caches no longer match the data
}

void EdgeBol::save_observations(std::ostream& os) const {
  const std::size_t n = cost_gp_.num_observations();
  os << "edgebol-observations v1\n";
  os << "dims "
     << (env::Context::kFeatureDims + env::ControlPolicy::kFeatureDims)
     << "\n";
  os << "count " << n << "\n";
  os.precision(17);
  for (std::size_t i = 0; i < n; ++i) {
    for (double v : cost_gp_.inputs()[i]) os << v << ' ';
    os << cost_gp_.targets()[i] << ' ' << delay_gp_.targets()[i] << ' '
       << map_gp_.targets()[i] << '\n';
  }
}

void EdgeBol::load_observations(std::istream& is) {
  std::string magic, version, key;
  std::size_t dims = 0, count = 0;
  is >> magic >> version;
  if (magic != "edgebol-observations" || version != "v1")
    throw std::runtime_error("EdgeBol::load_observations: bad header");
  is >> key >> dims;
  if (key != "dims" ||
      dims != env::Context::kFeatureDims + env::ControlPolicy::kFeatureDims)
    throw std::runtime_error("EdgeBol::load_observations: dims mismatch");
  is >> key >> count;
  if (key != "count")
    throw std::runtime_error("EdgeBol::load_observations: bad count line");
  for (std::size_t i = 0; i < count; ++i) {
    linalg::Vector z(dims);
    double y_cost = 0.0, y_delay = 0.0, y_map = 0.0;
    for (double& v : z) is >> v;
    is >> y_cost >> y_delay >> y_map;
    if (!is)
      throw std::runtime_error("EdgeBol::load_observations: truncated data");
    // Targets are stored post-transform: add straight into the surrogates.
    add_observation(z, y_cost, y_delay, y_map, /*evict=*/false);
  }
  enforce_budget();  // a budgeted agent retains at most gp_budget of them
  tracked_context_features_.reset();  // caches no longer match the data
}

void EdgeBol::set_constraints(const ConstraintSpec& constraints) {
  if (constraints.d_max_s <= 0.0 || constraints.map_min < 0.0 ||
      constraints.map_min > 1.0)
    throw std::invalid_argument("EdgeBol: invalid constraints");
  cfg_.constraints = constraints;
}

gp::Prediction EdgeBol::cost_posterior(const env::Context& c,
                                       const env::ControlPolicy& p) const {
  return cost_gp_.predict(env::joint_features(c, p));
}

}  // namespace edgebol::core
