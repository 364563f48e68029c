#include "gp/gp_regressor.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "gp/column_kernels.hpp"

namespace edgebol::gp {

// ---------------------------------------------------------------------------
// Column kernels (column_kernels.hpp). Each body below is inlined into two
// wrappers: a baseline one and a [[gnu::target("avx2")]] one. This file is
// compiled with -ffp-contract=off and the AVX2 target enables no FMA, so the
// compiler can only vectorize the same element-wise multiply, add, subtract
// and divide; a column's operation sequence — and so every bit — is the same
// in both copies, for any block bounds and any thread count.
// ---------------------------------------------------------------------------

namespace detail {
namespace {

[[gnu::always_inline]] inline void fold_body(const CacheColumns& c,
                                             std::size_t row,
                                             const double* lrow, double pivot,
                                             double w_new, std::size_t j0,
                                             std::size_t j1) {
  const std::size_t m = c.m;
  double* arow = c.a + row * m;
  for (std::size_t i = 0; i < row; ++i) {
    const double lni = lrow[i];
    const double* ai = c.a + i * m;
    for (std::size_t j = j0; j < j1; ++j) arow[j] -= lni * ai[j];
  }
  // The delta accumulators record exactly the terms folded into the moments
  // (dm is the same product added to the mean), so a candidate whose
  // accumulators stay zero has a bitwise-unchanged cached posterior.
  double* mean = c.mean;
  double* var = c.var;
  double* dmu = c.delta_mean;
  double* dsg = c.delta_sigma;
  for (std::size_t j = j0; j < j1; ++j) {
    const double aj = arow[j] / pivot;
    arow[j] = aj;
    const double dm = aj * w_new;
    mean[j] += dm;
    var[j] -= aj * aj;
    dmu[j] += std::abs(dm);
    dsg[j] += std::abs(aj);
  }
}

// Four columns as one GCC generic vector: element-wise IEEE arithmetic,
// lowered to two SSE2 or one AVX2 instruction per operation.
typedef double Vec4 __attribute__((vector_size(32)));

template <typename T>
[[gnu::always_inline]] inline void load_cols(T& v, const double* p) {
  std::memcpy(&v, p, sizeof v);
}

template <typename T>
[[gnu::always_inline]] inline void store_cols(double* p, const T& v) {
  std::memcpy(p, &v, sizeof v);
}

// Columns [j, j + V lanes) of the downdate, T being double (one column) or
// Vec4. The row being rotated down is carried in registers from one
// rotation to the next, so each cache row is read and written once instead
// of twice; the rotated-out last row never returns to memory (the cache
// drops it) but is folded out of the moments from the carry. Per column
// this is the same operation sequence as rotating whole row pairs in turn.
template <typename T, std::size_t V>
[[gnu::always_inline]] inline void downdate_chunk(
    const CacheColumns& c, std::size_t first, std::size_t rows,
    const linalg::GivensRotation* rot, double w_last, std::size_t j) {
  constexpr std::size_t kLanes = sizeof(T) / sizeof(double);
  const std::size_t m = c.m;
  T carry[V];
  const double* top = c.a + first * m + j;
  for (std::size_t v = 0; v < V; ++v) {
    load_cols(carry[v], top + v * kLanes);
  }
  for (std::size_t r = 0; first + r + 1 < rows; ++r) {
    const double cr = rot[r].c;
    const double sr = rot[r].s;
    double* ak = c.a + (first + r) * m + j;
    const double* ak1 = ak + m;
    for (std::size_t v = 0; v < V; ++v) {
      const T a = carry[v];
      T b;
      load_cols(b, ak1 + v * kLanes);
      store_cols(ak + v * kLanes, cr * a + sr * b);
      carry[v] = cr * b - sr * a;
    }
  }
  double last[V * kLanes];
  std::memcpy(last, carry, sizeof last);
  for (std::size_t e = 0; e < V * kLanes; ++e) {
    const double lj = last[e];
    const double dm = lj * w_last;
    c.mean[j + e] -= dm;
    c.var[j + e] += lj * lj;
    c.delta_mean[j + e] += std::abs(dm);
    c.delta_sigma[j + e] += std::abs(lj);
  }
}

[[gnu::always_inline]] inline void downdate_body(
    const CacheColumns& c, std::size_t first, std::size_t rows,
    const linalg::GivensRotation* rot, double w_last, std::size_t j0,
    std::size_t j1) {
  // Four vectors (16 columns) per chunk fit the AVX2 register file with
  // room for the operands; leftover columns go one at a time.
  constexpr std::size_t kVecs = 4;
  std::size_t j = j0;
  for (; j + 4 * kVecs <= j1; j += 4 * kVecs) {
    downdate_chunk<Vec4, kVecs>(c, first, rows, rot, w_last, j);
  }
  for (; j < j1; ++j) downdate_chunk<double, 1>(c, first, rows, rot, w_last, j);
}

[[gnu::always_inline]] inline void rebuild_row_body(
    double* base, std::size_t stride, std::size_t i, const double* li,
    double wi, double* mean, double* var, std::size_t width) {
  double* bi = base + i * stride;
  for (std::size_t k = 0; k < i; ++k) {
    const double lik = li[k];
    const double* bk = base + k * stride;
    for (std::size_t j = 0; j < width; ++j) bi[j] -= lik * bk[j];
  }
  const double lii = li[i];
  for (std::size_t j = 0; j < width; ++j) {
    bi[j] /= lii;
    mean[j] += bi[j] * wi;
    var[j] -= bi[j] * bi[j];
  }
}

void fold_baseline(const CacheColumns& c, std::size_t row, const double* lrow,
                   double pivot, double w_new, std::size_t j0,
                   std::size_t j1) {
  fold_body(c, row, lrow, pivot, w_new, j0, j1);
}

void downdate_baseline(const CacheColumns& c, std::size_t first,
                       std::size_t rows, const linalg::GivensRotation* rot,
                       double w_last, std::size_t j0, std::size_t j1) {
  downdate_body(c, first, rows, rot, w_last, j0, j1);
}

void rebuild_row_baseline(double* base, std::size_t stride, std::size_t i,
                          const double* li, double wi, double* mean,
                          double* var, std::size_t width) {
  rebuild_row_body(base, stride, i, li, wi, mean, var, width);
}

#if defined(__x86_64__) || defined(__i386__)
#define EDGEBOL_AVX2_COLUMN_KERNELS 1

[[gnu::target("avx2")]] void fold_avx2(const CacheColumns& c, std::size_t row,
                                       const double* lrow, double pivot,
                                       double w_new, std::size_t j0,
                                       std::size_t j1) {
  fold_body(c, row, lrow, pivot, w_new, j0, j1);
}

[[gnu::target("avx2")]] void downdate_avx2(const CacheColumns& c,
                                           std::size_t first,
                                           std::size_t rows,
                                           const linalg::GivensRotation* rot,
                                           double w_last, std::size_t j0,
                                           std::size_t j1) {
  downdate_body(c, first, rows, rot, w_last, j0, j1);
}

[[gnu::target("avx2")]] void rebuild_row_avx2(double* base,
                                              std::size_t stride,
                                              std::size_t i, const double* li,
                                              double wi, double* mean,
                                              double* var,
                                              std::size_t width) {
  rebuild_row_body(base, stride, i, li, wi, mean, var, width);
}
#endif

}  // namespace

const ColumnKernels& baseline_column_kernels() {
  static constexpr ColumnKernels k{fold_baseline, downdate_baseline,
                                   rebuild_row_baseline};
  return k;
}

bool avx2_column_kernels_available() {
#ifdef EDGEBOL_AVX2_COLUMN_KERNELS
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

const ColumnKernels& avx2_column_kernels() {
#ifdef EDGEBOL_AVX2_COLUMN_KERNELS
  static constexpr ColumnKernels k{fold_avx2, downdate_avx2,
                                   rebuild_row_avx2};
  return k;
#else
  throw std::logic_error("avx2_column_kernels: not built for this target");
#endif
}

const ColumnKernels& column_kernels() {
  static const ColumnKernels& k = avx2_column_kernels_available()
                                      ? avx2_column_kernels()
                                      : baseline_column_kernels();
  return k;
}

}  // namespace detail

namespace {

// Candidate-column block width for the packed cache kernels. Fixed (never a
// function of the thread count) so the parallel partition — and therefore
// the result, bit for bit — is identical for any pool size. 512 columns keep
// a block's active rows within L1/L2 while leaving ~29 blocks of work per
// rebuild of the 11^4 grid.
constexpr std::size_t kColumnGrain = 512;

// Row ceiling for the fused (contiguous-scratch) cache rebuild: above this
// the per-thread scratch block (n x kColumnGrain doubles, 2 MB at 512) stops
// paying for itself and we fall back to the strided legacy sweep. Both paths
// are bitwise identical, so the switch is purely a performance knob.
constexpr std::size_t kMaxFusedRebuildRows = 512;

}  // namespace

double Prediction::stddev() const {
  return std::sqrt(std::max(0.0, variance));
}

GpRegressor::GpRegressor(std::unique_ptr<Kernel> kernel, double noise_variance)
    : kernel_(std::move(kernel)), noise_var_(noise_variance) {
  if (!kernel_) throw std::invalid_argument("GpRegressor: null kernel");
  if (!(noise_var_ > 0.0))
    throw std::invalid_argument("GpRegressor: noise variance must be > 0");
}

GpRegressor::GpRegressor(const GpRegressor& other)
    : kernel_(other.kernel_->clone()),
      noise_var_(other.noise_var_),
      z_(other.z_),
      zdata_(other.zdata_),
      y_(other.y_),
      chol_(other.chol_),
      w_(other.w_),
      cands_(other.cands_),
      amat_(other.amat_),
      tracked_mean_(other.tracked_mean_),
      tracked_var_(other.tracked_var_),
      delta_mean_(other.delta_mean_),
      delta_sigma_(other.delta_sigma_),
      delta_events_(other.delta_events_),
      tracked_epoch_(other.tracked_epoch_),
      budget_(other.budget_),
      eviction_policy_(other.eviction_policy_),
      evictions_(other.evictions_),
      pool_(other.pool_),
      rot_scratch_(other.rot_scratch_),
      pending_(other.pending_) {}

GpRegressor& GpRegressor::operator=(const GpRegressor& other) {
  if (this == &other) return *this;
  GpRegressor tmp(other);
  *this = std::move(tmp);
  return *this;
}

void GpRegressor::set_thread_pool(std::shared_ptr<common::ThreadPool> pool) {
  pool_ = std::move(pool);
}

void GpRegressor::over_columns(
    const std::function<void(std::size_t, std::size_t)>& fn) {
  const std::size_t m = num_tracked();
  if (m == 0) return;
  if (pool_) {
    // sync: blocks write disjoint column ranges [j0, j1) of the tracked
    // A-cache / mean / var rows; parallel_for joins before returning, so the
    // caller reads only after every block retired.
    pool_->parallel_for(m, kColumnGrain, fn);
  } else {
    // Same block width serially: a block's cache rows stay L1/L2-resident
    // across the row sweep (the unblocked sweep would stream the full
    // n x m cache through memory once per training row).
    for (std::size_t j0 = 0; j0 < m; j0 += kColumnGrain) {
      fn(j0, std::min(m, j0 + kColumnGrain));
    }
  }
}

void GpRegressor::reserve_cache_rows(std::size_t rows) {
  const std::size_t needed = rows * num_tracked();
  if (needed > amat_.capacity()) {
    amat_.reserve(std::max(needed, 2 * amat_.capacity()));
  }
}

void GpRegressor::add(const Vector& z, double y) {
  stage_add(z, y);
  if (budget_ > 0 && y_.size() > budget_) {
    stage_remove(eviction_candidate(eviction_policy_));
  }
  sweep();
}

void GpRegressor::stage_add(const Vector& z, double y) {
  if (z.size() != kernel_->dims())
    throw std::invalid_argument("GpRegressor::add: input dimension mismatch");
  if (sweep_pending())
    throw std::logic_error("GpRegressor::stage_add: a sweep is pending");
  const std::size_t n = y_.size();

  scratch_k_.resize(n);
  kernel_->eval_batch(zdata_.data(), n, z, scratch_k_.data());
  const double kzz = (*kernel_)(z, z) + noise_var_;

  chol_.extend(scratch_k_, kzz);  // throws before anything else changes
  const double* lrow = chol_.row_data(n);
  const double pivot = chol_.diag(n);

  // Extend w = L^{-1} y by forward substitution on the new row.
  double s = y;
  for (std::size_t i = 0; i < n; ++i) s -= lrow[i] * w_[i];
  const double w_new = s / pivot;
  w_.push_back(w_new);

  // The cache gains row n of A = L^{-1} K_tc in the sweep. It needs this L
  // row, which a staged removal would rotate, so it keeps a copy.
  if (num_tracked() > 0) {
    reserve_cache_rows(n + 1);
    amat_.resize((n + 1) * num_tracked());
    pending_.fold = true;
    pending_.fold_row = n;
    pending_.fold_z = z;
    pending_.fold_lrow.assign(lrow, lrow + n);
    pending_.fold_pivot = pivot;
    pending_.fold_w = w_new;
  }

  z_.push_back(z);
  zdata_.insert(zdata_.end(), z.begin(), z.end());
  y_.push_back(y);
}

void GpRegressor::set_observation_budget(std::size_t budget,
                                         EvictionPolicy policy) {
  budget_ = budget;
  eviction_policy_ = policy;
  while (budget_ > 0 && y_.size() > budget_) {
    remove_observation(eviction_candidate(eviction_policy_));
  }
}

std::size_t GpRegressor::eviction_candidate(EvictionPolicy policy) const {
  const std::size_t n = y_.size();
  if (n == 0)
    throw std::logic_error("GpRegressor::eviction_candidate: no observations");
  if (policy == EvictionPolicy::kOldest) return 0;

  // kMinLeverage: score_i = alpha_i^2 / P_ii, the squared perturbation the
  // posterior mean suffers when observation i is deleted. alpha is one
  // O(n^2) solve; P_ii = ||L^{-1} e_i||^2 comes from a trailing forward
  // substitution per i (O(n^3)/6 total — flat, since n <= B). Everything is
  // serial, so the choice never depends on the thread count.
  const Vector alpha = chol_.solve(y_);
  Vector x(n, 0.0);
  std::size_t best = 0;
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 1.0 / chol_.diag(i);
    double p_ii = x[i] * x[i];
    for (std::size_t k = i + 1; k < n; ++k) {
      const double* rk = chol_.row_data(k);
      double s = 0.0;
      for (std::size_t j = i; j < k; ++j) s -= rk[j] * x[j];
      x[k] = s / rk[k];
      p_ii += x[k] * x[k];
    }
    const double score = alpha[i] * alpha[i] / p_ii;
    if (score < best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

void GpRegressor::remove_observation(std::size_t i) {
  stage_remove(i);
  sweep();
}

void GpRegressor::stage_remove(std::size_t i) {
  const std::size_t n = y_.size();
  if (i >= n)
    throw std::invalid_argument(
        "GpRegressor::remove_observation: index out of range");
  if (pending_.downdate)
    throw std::logic_error("GpRegressor::stage_remove: a removal is pending");
  const std::size_t d = kernel_->dims();
  chol_.remove_row(i, rot_scratch_);

  // The rotations that re-triangularized L also keep w = L^{-1} y
  // consistent: mix the same coordinate pairs, then drop the last entry
  // (the component of the removed observation).
  for (std::size_t r = 0; r < rot_scratch_.size(); ++r) {
    const double c = rot_scratch_[r].c;
    const double s = rot_scratch_[r].s;
    const double a = w_[i + r];
    const double b = w_[i + r + 1];
    w_[i + r] = c * a + s * b;
    w_[i + r + 1] = c * b - s * a;
  }
  const double w_last = w_.back();
  w_.pop_back();

  // The cache A = L^{-1} K(train, cands) takes the same rotations in the
  // sweep, and its rotated-out last row leaves the cached moments through
  // the rank-1 corrections.
  if (num_tracked() > 0) {
    pending_.downdate = true;
    pending_.removed = i;
    pending_.rows = n;
    pending_.w_last = w_last;
  }

  z_.erase(z_.begin() + static_cast<std::ptrdiff_t>(i));
  zdata_.erase(zdata_.begin() + static_cast<std::ptrdiff_t>(i * d),
               zdata_.begin() + static_cast<std::ptrdiff_t>((i + 1) * d));
  y_.erase(y_.begin() + static_cast<std::ptrdiff_t>(i));
  ++evictions_;
}

void GpRegressor::sweep() {
  if (!sweep_pending()) return;
  // Per-column op order is fixed (fold, rotations in sequence, fold-out),
  // so results are bit-identical for any thread count.
  over_columns([this](std::size_t j0, std::size_t j1) {
    sweep_columns(j0, j1);
  });
  finish_sweep();
}

void GpRegressor::sweep_all(std::span<GpRegressor* const> gps,
                            common::ThreadPool* pool) {
  // One flat index over the pending regressors' column blocks, in the
  // blocks each one's own sweep() would use. The regressors interleave —
  // item b is block b / G of regressor b % G — so the threads working at
  // any moment mostly sweep different caches instead of adjacent blocks of
  // one (whose shared boundary cache lines they would both write).
  const auto blocks_of = [](const GpRegressor* g) {
    return g->sweep_pending()
               ? (g->num_tracked() + kColumnGrain - 1) / kColumnGrain
               : std::size_t{0};
  };
  std::size_t rounds = 0;
  for (const GpRegressor* g : gps) rounds = std::max(rounds, blocks_of(g));
  const auto run = [&](std::size_t b0, std::size_t b1) {
    for (std::size_t b = b0; b < b1; ++b) {
      GpRegressor* g = gps[b % gps.size()];
      const std::size_t k = b / gps.size();
      if (k < blocks_of(g)) {
        const std::size_t j0 = k * kColumnGrain;
        g->sweep_columns(j0, std::min(g->num_tracked(), j0 + kColumnGrain));
      }
    }
  };
  const std::size_t total = rounds * gps.size();
  if (pool != nullptr) {
    // sync: each item writes one column block of one regressor's cache and
    // moments, disjoint from every other item; parallel_for joins before
    // the regressors are finished below.
    pool->parallel_for(total, 1, run);
  } else {
    run(0, total);
  }
  for (GpRegressor* g : gps) {
    if (g->sweep_pending()) g->finish_sweep();
  }
}

void GpRegressor::sweep_columns(std::size_t j0, std::size_t j1) {
  const detail::ColumnKernels& k = detail::column_kernels();
  const std::size_t m = num_tracked();
  const detail::CacheColumns c{amat_.data(),        m,
                               tracked_mean_.data(), tracked_var_.data(),
                               delta_mean_.data(),   delta_sigma_.data()};
  if (pending_.fold) {
    // New cache row over this block: a_n = (k(z, c_j) - sum_i l_ni a_ij) / p.
    const std::size_t d = kernel_->dims();
    kernel_->eval_batch(cands_->data().data() + j0 * d, j1 - j0,
                        pending_.fold_z,
                        amat_.data() + pending_.fold_row * m + j0);
    k.fold(c, pending_.fold_row, pending_.fold_lrow.data(),
           pending_.fold_pivot, pending_.fold_w, j0, j1);
  }
  if (pending_.downdate) {
    k.downdate(c, pending_.removed, pending_.rows, rot_scratch_.data(),
               pending_.w_last, j0, j1);
  }
}

void GpRegressor::finish_sweep() {
  if (pending_.fold) ++delta_events_;
  if (pending_.downdate) {
    amat_.resize((pending_.rows - 1) * num_tracked());
    ++delta_events_;
  }
  pending_.fold = false;
  pending_.downdate = false;
}

Prediction GpRegressor::predict(const Vector& z) const {
  if (z.size() != kernel_->dims())
    throw std::invalid_argument(
        "GpRegressor::predict: input dimension mismatch");
  const std::size_t n = y_.size();
  const double prior = (*kernel_)(z, z);
  if (n == 0) return Prediction{0.0, prior};

  scratch_k_.resize(n);
  kernel_->eval_batch(zdata_.data(), n, z, scratch_k_.data());
  chol_.solve_lower_into(scratch_k_, scratch_v_);
  const double mean = linalg::dot(scratch_v_, w_);
  const double var =
      std::max(0.0, prior - linalg::dot(scratch_v_, scratch_v_));
  return Prediction{mean, var};
}

double GpRegressor::log_marginal_likelihood() const {
  const auto n = static_cast<double>(y_.size());
  if (y_.empty()) return 0.0;
  return -0.5 * linalg::dot(w_, w_) - 0.5 * chol_.log_det() -
         0.5 * n * std::log(2.0 * std::numbers::pi);
}

void GpRegressor::track_candidates(std::vector<Vector> candidates) {
  const std::size_t d = kernel_->dims();
  auto packed = std::make_shared<Matrix>();
  packed->reserve_rows(candidates.size(), d);
  for (const Vector& c : candidates) {
    if (c.size() != d)
      throw std::invalid_argument(
          "GpRegressor::track_candidates: dimension mismatch");
    packed->append_row(c);
  }
  track_candidates(std::shared_ptr<const Matrix>(std::move(packed)));
}

void GpRegressor::track_candidates(std::shared_ptr<const Matrix> candidates) {
  if (!candidates)
    throw std::invalid_argument("GpRegressor::track_candidates: null matrix");
  if (candidates->rows() > 0 && candidates->cols() != kernel_->dims())
    throw std::invalid_argument(
        "GpRegressor::track_candidates: dimension mismatch");
  cands_ = std::move(candidates);
  rebuild_tracked_cache();
}

void GpRegressor::clear_tracked_candidates() {
  cands_.reset();
  amat_.clear();
  amat_.shrink_to_fit();
  tracked_mean_.clear();
  tracked_var_.clear();
  delta_mean_.clear();
  delta_sigma_.clear();
  delta_events_ = 0;
  ++tracked_epoch_;
  pending_ = PendingSweep{};
}

void GpRegressor::reset_tracked_deltas() {
  if (delta_events_ == 0) return;  // nothing accumulated: skip the O(m) fill
  delta_mean_.assign(delta_mean_.size(), 0.0);
  delta_sigma_.assign(delta_sigma_.size(), 0.0);
  delta_events_ = 0;
}

double GpRegressor::tracked_variance(std::size_t j) const {
  return std::max(0.0, tracked_var_[j]);
}

Prediction GpRegressor::tracked_prediction(std::size_t j) const {
  return Prediction{tracked_mean_[j], tracked_variance(j)};
}

void GpRegressor::rebuild_tracked_cache() {
  const std::size_t m = num_tracked();
  const std::size_t n = y_.size();
  tracked_mean_.assign(m, 0.0);
  tracked_var_.assign(m, 0.0);
  // A rebuild invalidates any consumer state keyed on the tracked arrays:
  // zero the pending deltas (they described the pre-rebuild trajectory) and
  // bump the epoch so consumers full-rescan instead of trusting them.
  delta_mean_.assign(m, 0.0);
  delta_sigma_.assign(m, 0.0);
  delta_events_ = 0;
  ++tracked_epoch_;
  pending_ = PendingSweep{};  // the rebuild covers any staged update
  if (m == 0) {
    amat_.clear();
    return;
  }
  reserve_cache_rows(n);
  amat_.resize(n * m);
  over_columns([&](std::size_t j0, std::size_t j1) {
    rebuild_columns(j0, j1);
  });
}

void GpRegressor::rebuild_columns(std::size_t j0, std::size_t j1) {
  const std::size_t m = num_tracked();
  const std::size_t n = y_.size();
  const std::size_t d = kernel_->dims();
  const double* cdata = cands_->data().data();

  const double prior = kernel_->prior_variance();
  for (std::size_t j = j0; j < j1; ++j) tracked_var_[j] = prior;

  // Fused path: stage this block's A rows in one contiguous n x bw scratch
  // so the kernel matrix comes from a single blocked eval_cross call and the
  // forward substitution streams rows with stride bw instead of m. The
  // per-column FP op order is identical to the strided sweep below (same
  // eval_batch chunking relative to j0, same i/k loop order), so the two
  // paths are bitwise interchangeable; eval_cross row i equals
  // eval_batch(block, z_i) because stationary kernels are exactly symmetric.
  const detail::ColumnKernels& kern = detail::column_kernels();
  const std::size_t bw = j1 - j0;
  double* mean = tracked_mean_.data() + j0;
  double* var = tracked_var_.data() + j0;
  if (n > 0 && n <= kMaxFusedRebuildRows) {
    thread_local std::vector<double> buf;
    buf.resize(n * bw);
    kernel_->eval_cross(zdata_.data(), n, cdata + j0 * d, bw, buf.data());
    for (std::size_t i = 0; i < n; ++i) {
      kern.rebuild_row(buf.data(), bw, i, chol_.row_data(i), w_[i], mean, var,
                       bw);
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(amat_.data() + i * m + j0, buf.data() + i * bw,
                  bw * sizeof(double));
    }
    return;
  }

  // Blocked forward substitution A = L^{-1} K(train, cands): column j only
  // ever combines with column j, so the per-column FP sequence — and the
  // result — is independent of both the blocking and the thread count.
  for (std::size_t i = 0; i < n; ++i) {
    kernel_->eval_batch(cdata + j0 * d, bw, z_[i], amat_.data() + i * m + j0);
    kern.rebuild_row(amat_.data() + j0, m, i, chol_.row_data(i), w_[i], mean,
                     var, bw);
  }
}

}  // namespace edgebol::gp
