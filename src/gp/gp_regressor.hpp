// Gaussian-process regression with exact online updates.
//
// Implements the posterior of paper eqs. (3)-(4):
//   mu_T(z)  = k_T(z)^T (K_T + zeta^2 I)^{-1} y_T
//   k_T(z,z') = k(z,z') - k_T(z)^T (K_T + zeta^2 I)^{-1} k_T(z')
//
// maintained through an incrementally extended Cholesky factor, so that
// adding the T-th observation costs O(T^2) and a single prediction costs
// O(T^2). Because EdgeBOL must score the *entire* control grid (|X| = 11^4)
// at every time period, the regressor can additionally "track" a fixed
// candidate matrix: their posterior means/variances are cached and updated
// in O(T |X|) per new observation instead of O(T^2 |X|) from scratch.
//
// The tracked cache is the decision loop's hot path. It is kept packed —
// candidates as one row-major matrix, the substitution state A = L^{-1}
// K(train, cands) as one contiguous row-major (T x |X|) buffer — so the
// O(T |X|) fold of add() and the O(T^2 |X|) rebuild on context switch run as
// blocked, vectorizable row operations, optionally parallelized over
// candidate-column blocks on a common::ThreadPool. Parallel partitioning is
// a function of |X| only (never the thread count) and each column's
// floating-point operation sequence is independent of the blocking, so
// results are bit-identical for any thread count, including the serial path.
//
// For unbounded horizons the regressor supports an observation budget B:
// once T > B each add() evicts one observation (policy-selected) through a
// Givens-rotation Cholesky downdate, with the same rotations folded through
// the tracked cache, so per-period cost and memory stay flat at O(B^2 +
// B |X|) forever while the posterior remains exact for the retained set.
//
// Every update runs in two stages. The factor stage (stage_add,
// stage_remove) does the O(T^2) work: kernel row, Cholesky extend or Givens
// downdate, w. The column sweep then applies the pending fold and the
// pending downdate to each candidate-column block in one pass over the
// cache, so an add at full budget reads the O(T |X|) cache once instead of
// twice. add() and remove_observation() are stage + sweep; EdgeBOL stages
// its three surrogates and sweeps them together (sweep_all).
//
// Instances are not safe for concurrent use (even predict(), which is
// const, reuses internal scratch buffers); distinct instances may be used
// from different threads freely, which is how the three EdgeBOL surrogates
// update concurrently.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "gp/kernel.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"

namespace edgebol::gp {

using linalg::Matrix;
using linalg::Vector;

/// Posterior marginal at a single point.
struct Prediction {
  double mean = 0.0;
  double variance = 0.0;
  double stddev() const;
};

/// Which observation a budgeted regressor evicts once it holds more than its
/// budget (see GpRegressor::set_observation_budget).
enum class EvictionPolicy {
  /// Sliding window: always drop the oldest observation (index 0). O(1)
  /// selection; the right default for drifting environments.
  kOldest,
  /// Drop the observation whose removal least perturbs the posterior mean:
  /// argmin_i alpha_i^2 / P_ii with alpha = (K + zeta^2 I)^{-1} y and
  /// P = (K + zeta^2 I)^{-1} (the deletion score of sparse-GP pruning,
  /// computable from the existing factor in O(T^3) — flat in the horizon
  /// since T <= B). Keeps the informative support points; ties break toward
  /// the oldest for determinism.
  kMinLeverage,
};

class GpRegressor {
 public:
  /// `noise_variance` is the observation noise zeta^2 (must be > 0: it also
  /// regularizes the kernel matrix).
  GpRegressor(std::unique_ptr<Kernel> kernel, double noise_variance);

  GpRegressor(const GpRegressor& other);
  GpRegressor& operator=(const GpRegressor& other);
  GpRegressor(GpRegressor&&) noexcept = default;
  GpRegressor& operator=(GpRegressor&&) noexcept = default;

  /// Parallelize tracked-cache maintenance on `pool` (nullptr restores the
  /// serial path). Results are bit-identical either way.
  void set_thread_pool(std::shared_ptr<common::ThreadPool> pool);

  /// Condition on one observation y at input z. O(T^2) plus O(T m) for m
  /// tracked candidates. With an observation budget set and full, the add
  /// is followed by one eviction in the same cache sweep, so steady-state
  /// per-period work is flat for unbounded horizons.
  void add(const Vector& z, double y);

  /// Bound the stored observation count. Once num_observations() exceeds
  /// `budget`, every add() evicts one observation chosen by `policy`; if the
  /// regressor is already over the new budget it is trimmed immediately.
  /// The posterior stays EXACT for the retained set (this is a hard
  /// eviction, not an approximation of the full-data posterior). 0 restores
  /// the unbounded behaviour.
  void set_observation_budget(std::size_t budget,
                              EvictionPolicy policy = EvictionPolicy::kOldest);
  std::size_t observation_budget() const { return budget_; }
  EvictionPolicy eviction_policy() const { return eviction_policy_; }
  /// Total observations evicted so far (by budget enforcement or explicit
  /// remove_observation calls).
  std::size_t evictions() const { return evictions_; }

  /// The index `policy` would evict right now. Requires at least one
  /// observation. Deterministic (serial) regardless of the thread pool.
  std::size_t eviction_candidate(EvictionPolicy policy) const;

  /// Remove observation i exactly: the Cholesky factor is downdated with
  /// Givens rotations in O(T^2) (no refactorization) and the same rotations
  /// fold through w and the tracked-candidate cache in O(T m) — the same
  /// order as the add() fold. The posterior afterwards equals (to rounding)
  /// a fresh regressor built from the retained observations; cache
  /// downdates are block-parallel on the pool and bit-identical for any
  /// thread count.
  void remove_observation(std::size_t i);

  /// Factor stage of add(): conditions the factor, w and the stored data on
  /// (z, y) in O(T^2) and leaves the tracked-cache fold pending for the next
  /// sweep. No budget eviction. If the Cholesky extension fails (throws) the
  /// regressor is left unchanged. Requires no pending sweep.
  void stage_add(const Vector& z, double y);

  /// Factor stage of remove_observation(i): downdates the factor and w in
  /// O(T^2) and leaves the cache downdate pending. May follow a stage_add
  /// (i may then be the staged observation itself); requires no pending
  /// removal.
  void stage_remove(std::size_t i);

  /// Applies the pending fold, then the pending downdate, to every tracked
  /// candidate column in one pass (block-parallel on the pool, bit-identical
  /// for any thread count). A no-op when nothing is pending. Until it runs
  /// the tracked arrays describe the previous observation set, while
  /// predict() and eviction_candidate() already see the staged one.
  void sweep();
  bool sweep_pending() const { return pending_.fold || pending_.downdate; }

  /// sweep() for several distinct regressors in one parallel_for on `pool`
  /// (nullptr: serial). Each regressor's columns see the same blocks and
  /// the same operations as its own sweep(), so results are bit-identical
  /// to sweeping them one by one.
  static void sweep_all(std::span<GpRegressor* const> gps,
                        common::ThreadPool* pool);

  /// Posterior mean/variance at z. O(T^2). With no data this returns the
  /// prior (mean 0, variance k(z,z)).
  Prediction predict(const Vector& z) const;

  /// Log marginal likelihood of the observed data under the current kernel
  /// and noise level. Used for hyperparameter fitting.
  double log_marginal_likelihood() const;

  std::size_t num_observations() const { return y_.size(); }
  const std::vector<Vector>& inputs() const { return z_; }
  const Vector& targets() const { return y_; }
  const Kernel& kernel() const { return *kernel_; }
  double noise_variance() const { return noise_var_; }

  /// Register candidate points whose posterior is kept up to date across
  /// add() calls. Replaces any previous tracking.
  /// Cost: O(T^2 m) once, then O(T m) per add().
  void track_candidates(std::vector<Vector> candidates);

  /// Packed variant: one row-major (m x dims) matrix, shared so several
  /// regressors tracking the same grid (EdgeBOL's three surrogates) hold a
  /// single copy of the candidate features.
  void track_candidates(std::shared_ptr<const Matrix> candidates);

  void clear_tracked_candidates();
  bool has_tracked_candidates() const { return num_tracked() > 0; }
  std::size_t num_tracked() const { return cands_ ? cands_->rows() : 0; }
  double tracked_mean(std::size_t j) const { return tracked_mean_[j]; }
  double tracked_variance(std::size_t j) const;
  Prediction tracked_prediction(std::size_t j) const;

  /// Raw tracked-posterior arrays for the allocation-free decision path.
  /// tracked_var_data() is UNCLAMPED (may go epsilon-negative from rounding);
  /// consumers must clamp with max(0.0, v) before sqrt, exactly as
  /// tracked_variance() does.
  const double* tracked_mean_data() const { return tracked_mean_.data(); }
  const double* tracked_var_data() const { return tracked_var_.data(); }

  /// Per-candidate accumulated delta magnitudes since the last
  /// reset_tracked_deltas(): tracked_delta_mean_data()[j] bounds
  /// |tracked_mean_[j] - mean at reset|, and tracked_delta_sigma_data()[j]
  /// bounds the amount the tracked stddev can have moved (|delta sigma| <=
  /// sqrt(sum a^2) <= sum |a| per rank-1 event). They grow inside the fold
  /// and downdate column kernels with the exact same products that feed the
  /// moments, so a zero entry means that candidate's cached posterior is
  /// bitwise unchanged. The incremental safe-set maintenance in
  /// core/safe_set.cpp is the consumer.
  const double* tracked_delta_mean_data() const { return delta_mean_.data(); }
  const double* tracked_delta_sigma_data() const {
    return delta_sigma_.data();
  }
  /// Rank-1 events (adds/evictions folded into the tracked cache) since the
  /// last reset. 0 means the tracked posterior is bitwise unchanged and a
  /// consumer sweep may no-op.
  std::size_t tracked_delta_events() const { return delta_events_; }
  /// Zero the delta accumulators (consumer has absorbed them). O(m), skipped
  /// entirely when no events are pending.
  void reset_tracked_deltas();
  /// Monotone counter bumped whenever the tracked cache is rebuilt or
  /// cleared (track_candidates, context switch, load). Consumers holding
  /// per-candidate state keyed on the tracked arrays must full-rescan when
  /// it changes: pending deltas are zeroed by a rebuild, so the delta
  /// arrays alone cannot signal it.
  std::uint64_t tracked_rebuild_epoch() const { return tracked_epoch_; }

 private:
  // Cache work the factor stage left for the column sweep: at most one fold
  // (the staged add) followed by at most one downdate (the staged removal).
  struct PendingSweep {
    bool fold = false;
    std::size_t fold_row = 0;  // cache row the new observation lands in
    Vector fold_z;             // its input
    Vector fold_lrow;          // its L row, copied before any downdate
    double fold_pivot = 0.0;
    double fold_w = 0.0;       // its entry of w
    bool downdate = false;
    std::size_t removed = 0;   // index of the removed observation
    std::size_t rows = 0;      // cache rows before the removal
    double w_last = 0.0;       // rotated-out last entry of w
  };

  void rebuild_tracked_cache();
  // Rebuild the tracked cache for candidate columns [j0, j1).
  void rebuild_columns(std::size_t j0, std::size_t j1);
  // Apply the pending fold, then the pending downdate, to columns [j0, j1).
  void sweep_columns(std::size_t j0, std::size_t j1);
  // Shrink the cache after a swept downdate and clear the pending state.
  void finish_sweep();
  // Runs fn over candidate-column blocks (fixed width, thread pool if set).
  void over_columns(const std::function<void(std::size_t, std::size_t)>& fn);
  void reserve_cache_rows(std::size_t rows);

  std::unique_ptr<Kernel> kernel_;
  double noise_var_;

  std::vector<Vector> z_;        // T training inputs
  std::vector<double> zdata_;    // the same inputs packed row-major (T x d)
  Vector y_;                     // T training targets
  linalg::CholeskyFactor chol_;  // factor of K + zeta^2 I
  Vector w_;                     // L^{-1} y, extended per observation

  std::shared_ptr<const Matrix> cands_;  // m tracked candidates, packed
  std::vector<double> amat_;     // A = L^{-1} K(train, cands), row-major T x m
  Vector tracked_mean_;          // m
  Vector tracked_var_;           // m (clamped at >= 0 on read)
  Vector delta_mean_;            // m, accumulated |mean delta| since reset
  Vector delta_sigma_;           // m, accumulated |a_j| (bounds sigma delta)
  std::size_t delta_events_ = 0;   // rank-1 events since reset
  std::uint64_t tracked_epoch_ = 0;  // bumped on rebuild/clear

  std::size_t budget_ = 0;       // 0 = unbounded
  EvictionPolicy eviction_policy_ = EvictionPolicy::kOldest;
  std::size_t evictions_ = 0;

  std::shared_ptr<common::ThreadPool> pool_;
  mutable Vector scratch_k_;     // kernel row, reused across predict()/add()
  mutable Vector scratch_v_;     // triangular-solve output for predict()
  std::vector<linalg::GivensRotation> rot_scratch_;  // eviction rotations
  PendingSweep pending_;
};

}  // namespace edgebol::gp
