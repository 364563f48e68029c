// Observation-budget guarantees of the GP engine:
//
//  1. Eviction is EXACT — after any remove_observation (downdate, no
//     refactorization) the posterior over the tracked grid matches a fresh
//     regressor built from just the retained observations.
//  2. The budget is a hard bound — budgeted runs never hold more than B
//     observations, and kOldest retains exactly the newest B inputs.
//  3. Parallelism never changes results — budgeted tracked caches and
//     EdgeBol decision trajectories are bit-identical for thread counts
//     {1, 2, 8}, eviction downdates included.
//  4. The one-pass update is the two-pass update — staging an add and an
//     eviction and sweeping once gives the bits of add() followed by
//     remove_observation(), for both policies, serial and pooled, and the
//     baseline and AVX2 column kernels agree bit for bit.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/edgebol.hpp"
#include "env/scenarios.hpp"
#include "gp/column_kernels.hpp"
#include "gp/gp_regressor.hpp"
#include "gp/kernel.hpp"

namespace edgebol {
namespace {

using linalg::Vector;

std::unique_ptr<gp::Kernel> make_kernel() {
  return std::make_unique<gp::Matern32Kernel>(Vector(7, 1.1), 0.9);
}

std::vector<Vector> draw_points(std::size_t n, Rng& rng) {
  std::vector<Vector> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Vector z(7);
    for (double& v : z) v = rng.uniform();
    out.push_back(std::move(z));
  }
  return out;
}

std::shared_ptr<const linalg::Matrix> pack(const std::vector<Vector>& pts) {
  linalg::Matrix m;
  m.reserve_rows(pts.size(), 7);
  for (const Vector& p : pts) m.append_row(p);
  return std::make_shared<const linalg::Matrix>(std::move(m));
}

// Fresh regressor conditioned on exactly gp's retained observations; its
// tracked posterior is the ground truth the downdated cache must match.
void expect_matches_fresh(const gp::GpRegressor& gp,
                          const std::vector<Vector>& cands, double tol) {
  gp::GpRegressor fresh(make_kernel(), gp.noise_variance());
  for (std::size_t i = 0; i < gp.num_observations(); ++i) {
    fresh.add(gp.inputs()[i], gp.targets()[i]);
  }
  fresh.track_candidates(pack(cands));
  for (std::size_t j = 0; j < cands.size(); ++j) {
    EXPECT_NEAR(gp.tracked_mean(j), fresh.tracked_mean(j), tol) << "j=" << j;
    EXPECT_NEAR(gp.tracked_variance(j), fresh.tracked_variance(j), tol)
        << "j=" << j;
  }
}

// ---------------------------------------------------------------------------
// remove_observation at the edges and the middle, tracked == fresh.
// ---------------------------------------------------------------------------

TEST(GpBudget, RemoveObservationMatchesFresh) {
  Rng rng(101);
  const auto cands = draw_points(40, rng);
  const auto zs = draw_points(14, rng);
  for (std::size_t victim : {std::size_t{0}, std::size_t{7}, std::size_t{13}}) {
    gp::GpRegressor gp(make_kernel(), 2e-3);
    Rng yrng(55);
    for (const Vector& z : zs) gp.add(z, yrng.normal());
    gp.track_candidates(pack(cands));
    gp.remove_observation(victim);
    ASSERT_EQ(gp.num_observations(), zs.size() - 1);
    EXPECT_EQ(gp.evictions(), 1u);
    expect_matches_fresh(gp, cands, 1e-8);
    // predict() shares the downdated factor with the tracked cache.
    const gp::Prediction p = gp.predict(cands[0]);
    EXPECT_NEAR(p.mean, gp.tracked_mean(0), 1e-9);
    EXPECT_NEAR(p.variance, gp.tracked_variance(0), 1e-9);
  }
}

TEST(GpBudget, RemoveObservationOutOfRangeThrows) {
  gp::GpRegressor gp(make_kernel(), 1e-3);
  EXPECT_THROW(gp.remove_observation(0), std::invalid_argument);
  Rng rng(3);
  const auto zs = draw_points(3, rng);
  for (const Vector& z : zs) gp.add(z, 0.5);
  EXPECT_THROW(gp.remove_observation(3), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Budget enforcement: hard bound, sliding-window retention, exactness for
// both policies under interleaved adds.
// ---------------------------------------------------------------------------

TEST(GpBudget, OldestPolicyKeepsSlidingWindow) {
  Rng rng(202);
  const std::size_t budget = 9;
  const auto zs = draw_points(25, rng);
  gp::GpRegressor gp(make_kernel(), 2e-3);
  gp.set_observation_budget(budget);  // kOldest default
  Rng yrng(77);
  for (std::size_t i = 0; i < zs.size(); ++i) {
    gp.add(zs[i], yrng.normal());
    EXPECT_LE(gp.num_observations(), budget);
  }
  ASSERT_EQ(gp.num_observations(), budget);
  EXPECT_EQ(gp.evictions(), zs.size() - budget);
  // Exactly the newest `budget` inputs, in arrival order.
  for (std::size_t i = 0; i < budget; ++i) {
    EXPECT_EQ(gp.inputs()[i], zs[zs.size() - budget + i]);
  }
}

TEST(GpBudget, SetBudgetTrimsImmediately) {
  Rng rng(203);
  const auto cands = draw_points(25, rng);
  const auto zs = draw_points(12, rng);
  gp::GpRegressor gp(make_kernel(), 2e-3);
  Rng yrng(5);
  for (const Vector& z : zs) gp.add(z, yrng.normal());
  gp.track_candidates(pack(cands));
  gp.set_observation_budget(7, gp::EvictionPolicy::kMinLeverage);
  EXPECT_EQ(gp.num_observations(), 7u);
  EXPECT_EQ(gp.evictions(), 5u);
  expect_matches_fresh(gp, cands, 1e-8);
}

void run_budgeted_property(gp::EvictionPolicy policy,
                           std::shared_ptr<common::ThreadPool> pool) {
  Rng rng(404);
  const auto cands = draw_points(50, rng);
  const auto zs = draw_points(30, rng);
  gp::GpRegressor gp(make_kernel(), 2e-3);
  gp.set_thread_pool(pool);
  gp.set_observation_budget(11, policy);
  gp.track_candidates(pack(cands));
  Rng yrng(88);
  for (std::size_t i = 0; i < zs.size(); ++i) {
    gp.add(zs[i], yrng.normal());
    EXPECT_LE(gp.num_observations(), 11u);
  }
  expect_matches_fresh(gp, cands, 1e-8);
}

TEST(GpBudget, BudgetedPosteriorMatchesFreshOldest) {
  run_budgeted_property(gp::EvictionPolicy::kOldest, nullptr);
}

TEST(GpBudget, BudgetedPosteriorMatchesFreshMinLeverage) {
  run_budgeted_property(gp::EvictionPolicy::kMinLeverage, nullptr);
}

TEST(GpBudget, BudgetedPosteriorMatchesFreshPooled) {
  const auto pool = std::make_shared<common::ThreadPool>(4);
  run_budgeted_property(gp::EvictionPolicy::kOldest, pool);
  run_budgeted_property(gp::EvictionPolicy::kMinLeverage, pool);
}

// ---------------------------------------------------------------------------
// Bit-identity across thread counts {1, 2, 8}, downdates included.
// ---------------------------------------------------------------------------

TEST(GpBudget, BudgetedCacheBitIdenticalAcrossPools) {
  for (const gp::EvictionPolicy policy :
       {gp::EvictionPolicy::kOldest, gp::EvictionPolicy::kMinLeverage}) {
    std::vector<std::vector<double>> means, vars;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      Rng rng(909);
      gp::GpRegressor gp(make_kernel(), 1e-3);
      if (threads > 1) {
        gp.set_thread_pool(std::make_shared<common::ThreadPool>(threads));
      }
      gp.set_observation_budget(10, policy);
      const auto cands = draw_points(70, rng);
      const auto zs = draw_points(26, rng);
      gp.track_candidates(pack(cands));
      Rng yrng(66);
      for (const Vector& z : zs) gp.add(z, yrng.normal());
      std::vector<double> m(cands.size()), v(cands.size());
      for (std::size_t j = 0; j < cands.size(); ++j) {
        m[j] = gp.tracked_mean(j);
        v[j] = gp.tracked_variance(j);
      }
      means.push_back(std::move(m));
      vars.push_back(std::move(v));
    }
    EXPECT_EQ(means[0], means[1]);  // exact, not approximate
    EXPECT_EQ(means[0], means[2]);
    EXPECT_EQ(vars[0], vars[1]);
    EXPECT_EQ(vars[0], vars[2]);
  }
}

struct Trajectory {
  std::vector<std::size_t> picks;
  std::vector<std::size_t> safe_sizes;
  std::vector<std::size_t> obs_counts;
  std::vector<double> kpis;

  bool operator==(const Trajectory&) const = default;
};

Trajectory run_budgeted_trajectory(std::size_t num_threads,
                                   gp::EvictionPolicy policy) {
  env::GridSpec spec;
  spec.levels_per_dim = 4;  // 256 candidates keeps the test quick
  core::EdgeBolConfig cfg;
  cfg.num_threads = num_threads;
  cfg.gp_budget = 12;
  cfg.gp_eviction = policy;
  core::EdgeBol agent(env::ControlGrid(spec), cfg);
  env::Testbed tb = env::make_static_testbed(35.0);

  const env::Context ctx_a{2.0, 12.0, 3.0};
  const env::Context ctx_b{6.0, 9.0, 8.0};

  Trajectory tr;
  for (int t = 0; t < 30; ++t) {
    const env::Context& c = (t / 5) % 2 == 0 ? ctx_a : ctx_b;
    const core::Decision d = agent.select(c);
    const env::Measurement m = tb.step(d.policy);
    agent.update(c, d.policy_index, m);
    EXPECT_LE(agent.num_observations(), cfg.gp_budget);
    tr.picks.push_back(d.policy_index);
    tr.safe_sizes.push_back(d.safe_set_size);
    tr.obs_counts.push_back(agent.num_observations());
    tr.kpis.push_back(m.delay_s);
    tr.kpis.push_back(m.map);
    tr.kpis.push_back(m.server_power_w);
    tr.kpis.push_back(m.bs_power_w);
  }
  return tr;
}

TEST(GpBudget, EdgeBolBudgetedTrajectoryBitIdenticalAcrossThreadCounts) {
  for (const gp::EvictionPolicy policy :
       {gp::EvictionPolicy::kOldest, gp::EvictionPolicy::kMinLeverage}) {
    const Trajectory t1 = run_budgeted_trajectory(1, policy);
    const Trajectory t2 = run_budgeted_trajectory(2, policy);
    const Trajectory t8 = run_budgeted_trajectory(8, policy);
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(t1, t8);
  }
}

// ---------------------------------------------------------------------------
// One sweep == add() then remove_observation(), bit for bit.
// ---------------------------------------------------------------------------

bool same_bits(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

// Every tracked array, the factor (through predict) and the stored data.
void expect_bit_identical(const gp::GpRegressor& a, const gp::GpRegressor& b,
                          const std::vector<Vector>& probes) {
  ASSERT_EQ(a.num_observations(), b.num_observations());
  ASSERT_EQ(a.num_tracked(), b.num_tracked());
  const std::size_t m = a.num_tracked();
  EXPECT_TRUE(same_bits(a.tracked_mean_data(), b.tracked_mean_data(), m));
  EXPECT_TRUE(same_bits(a.tracked_var_data(), b.tracked_var_data(), m));
  EXPECT_TRUE(
      same_bits(a.tracked_delta_mean_data(), b.tracked_delta_mean_data(), m));
  EXPECT_TRUE(same_bits(a.tracked_delta_sigma_data(),
                        b.tracked_delta_sigma_data(), m));
  EXPECT_EQ(a.tracked_delta_events(), b.tracked_delta_events());
  EXPECT_EQ(a.evictions(), b.evictions());
  EXPECT_EQ(a.inputs(), b.inputs());
  EXPECT_EQ(a.targets(), b.targets());
  for (const Vector& z : probes) {
    const gp::Prediction pa = a.predict(z);
    const gp::Prediction pb = b.predict(z);
    EXPECT_EQ(std::memcmp(&pa.mean, &pb.mean, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&pa.variance, &pb.variance, sizeof(double)), 0);
  }
}

// Which observation the sweep side evicts after each staged add.
enum class Victim { kPolicyOldest, kPolicyMinLeverage, kNewest };

// Two identical regressors at `budget` observations take the same stream of
// observations; `two_pass` updates with add() then remove_observation(v),
// `one_pass` with stage_add, stage_remove(v) and a single sweep.
void run_sweep_vs_two_pass(Victim victim, std::size_t m,
                           std::shared_ptr<common::ThreadPool> pool) {
  Rng rng(515);
  const auto cands = draw_points(m, rng);
  const auto zs = draw_points(40, rng);
  const std::size_t budget = 12;
  gp::GpRegressor two_pass(make_kernel(), 2e-3);
  Rng yrng(616);
  for (std::size_t i = 0; i < budget; ++i) two_pass.add(zs[i], yrng.normal());
  two_pass.set_thread_pool(pool);
  two_pass.track_candidates(pack(cands));
  gp::GpRegressor one_pass(two_pass);

  for (std::size_t i = budget; i < zs.size(); ++i) {
    const double y = yrng.normal();
    two_pass.add(zs[i], y);
    one_pass.stage_add(zs[i], y);
    ASSERT_TRUE(one_pass.sweep_pending());
    // The staged factor is the two-pass one, so the policies agree.
    std::size_t v = one_pass.num_observations() - 1;  // kNewest
    if (victim != Victim::kNewest) {
      const gp::EvictionPolicy policy = victim == Victim::kPolicyOldest
                                            ? gp::EvictionPolicy::kOldest
                                            : gp::EvictionPolicy::kMinLeverage;
      v = one_pass.eviction_candidate(policy);
      EXPECT_EQ(v, two_pass.eviction_candidate(policy));
    }
    two_pass.remove_observation(v);
    one_pass.stage_remove(v);
    one_pass.sweep();
    ASSERT_FALSE(one_pass.sweep_pending());
    expect_bit_identical(two_pass, one_pass, {zs[0], zs[i], cands[m / 2]});
    if (::testing::Test::HasFailure()) return;
  }
}

// 70 and 1,100 columns: one short block, then two full 512-column blocks
// plus a tail; neither is a multiple of the 16-column downdate chunk.
TEST(GpBudget, SweepBitIdenticalToAddThenRemoveOldest) {
  for (std::size_t m : {std::size_t{70}, std::size_t{1100}}) {
    run_sweep_vs_two_pass(Victim::kPolicyOldest, m, nullptr);
    run_sweep_vs_two_pass(Victim::kPolicyOldest, m,
                          std::make_shared<common::ThreadPool>(4));
  }
}

TEST(GpBudget, SweepBitIdenticalToAddThenRemoveMinLeverage) {
  for (std::size_t m : {std::size_t{70}, std::size_t{1100}}) {
    run_sweep_vs_two_pass(Victim::kPolicyMinLeverage, m, nullptr);
    run_sweep_vs_two_pass(Victim::kPolicyMinLeverage, m,
                          std::make_shared<common::ThreadPool>(4));
  }
}

TEST(GpBudget, SweepBitIdenticalWhenVictimIsTheStagedObservation) {
  for (std::size_t m : {std::size_t{70}, std::size_t{1100}}) {
    run_sweep_vs_two_pass(Victim::kNewest, m, nullptr);
    run_sweep_vs_two_pass(Victim::kNewest, m,
                          std::make_shared<common::ThreadPool>(4));
  }
}

TEST(GpBudget, SweepAllMatchesSweepingEachRegressor) {
  Rng rng(717);
  const auto cands = pack(draw_points(1100, rng));
  const auto zs = draw_points(30, rng);
  std::vector<gp::GpRegressor> each, together;
  for (int s = 0; s < 3; ++s) {
    gp::GpRegressor g(make_kernel(), 1e-3 * (s + 1));
    Rng yrng(800 + s);
    for (std::size_t i = 0; i < 10; ++i) g.add(zs[i], yrng.normal());
    g.track_candidates(cands);
    each.push_back(g);
    together.push_back(std::move(g));
  }
  const auto pool = std::make_shared<common::ThreadPool>(4);
  const std::array<gp::GpRegressor*, 3> ptrs{&together[0], &together[1],
                                             &together[2]};
  Rng yrng(900);
  for (std::size_t i = 10; i < zs.size(); ++i) {
    for (std::size_t s = 0; s < 3; ++s) {
      const double y = yrng.normal();
      each[s].stage_add(zs[i], y);
      together[s].stage_add(zs[i], y);
      // Only two of the three evict: the sweep copes with mixed work.
      if (s != 1) {
        each[s].stage_remove(0);
        together[s].stage_remove(0);
      }
      each[s].sweep();
    }
    gp::GpRegressor::sweep_all(ptrs, i % 2 == 0 ? pool.get() : nullptr);
    for (std::size_t s = 0; s < 3; ++s) {
      EXPECT_FALSE(together[s].sweep_pending());
      expect_bit_identical(each[s], together[s], {zs[i]});
    }
  }
}

TEST(GpBudget, StagingOrderIsEnforced) {
  Rng rng(31);
  const auto zs = draw_points(4, rng);
  gp::GpRegressor gp(make_kernel(), 1e-3);
  gp.track_candidates(pack(draw_points(20, rng)));
  gp.add(zs[0], 0.1);
  gp.add(zs[1], 0.2);
  gp.stage_add(zs[2], 0.3);
  EXPECT_THROW(gp.stage_add(zs[3], 0.4), std::logic_error);
  gp.stage_remove(0);
  EXPECT_THROW(gp.stage_remove(0), std::logic_error);
  gp.sweep();
  EXPECT_FALSE(gp.sweep_pending());
  EXPECT_EQ(gp.num_observations(), 2u);
}

// ---------------------------------------------------------------------------
// A failed Cholesky extension leaves the regressor unchanged.
// ---------------------------------------------------------------------------

// A Matern kernel whose self-covariance is negative at "poisoned" points
// (first coordinate above 10), so adding one makes K + zeta^2 I indefinite
// by far more than the jitter ladder can absorb.
class PoisonedKernel final : public gp::Kernel {
 public:
  double operator()(const Vector& a, const Vector& b) const override {
    if (a == b && a[0] > 10.0) return -1.0;
    return inner_(a, b);
  }
  void eval_batch(const double* xs, std::size_t n, const Vector& z,
                  double* out) const override {
    inner_.eval_batch(xs, n, z, out);
  }
  void eval_cross(const double* xs, std::size_t nx, const double* ys,
                  std::size_t ny, double* out) const override {
    inner_.eval_cross(xs, nx, ys, ny, out);
  }
  double prior_variance() const override { return inner_.prior_variance(); }
  std::size_t dims() const override { return inner_.dims(); }
  std::unique_ptr<gp::Kernel> clone() const override {
    return std::make_unique<PoisonedKernel>();
  }

 private:
  gp::Matern32Kernel inner_{Vector(7, 1.1), 0.9};
};

TEST(GpBudget, FailedExtensionLeavesRegressorUnchanged) {
  Rng rng(1313);
  const auto cands = draw_points(600, rng);
  const auto zs = draw_points(12, rng);
  gp::GpRegressor gp(std::make_unique<PoisonedKernel>(), 2e-3);
  gp.set_observation_budget(8);
  Rng yrng(14);
  for (const Vector& z : zs) gp.add(z, yrng.normal());
  gp.track_candidates(pack(cands));
  gp.add(zs[0], 0.5);  // leave some pending deltas in the accumulators
  const gp::GpRegressor before(gp);

  Vector poisoned = zs[3];
  poisoned[0] = 50.0;
  EXPECT_THROW(gp.add(poisoned, 1.0), std::runtime_error);
  EXPECT_FALSE(gp.sweep_pending());
  expect_bit_identical(before, gp, {zs[1], cands[7]});
  EXPECT_THROW(gp.stage_add(poisoned, 1.0), std::runtime_error);
  EXPECT_FALSE(gp.sweep_pending());
  expect_bit_identical(before, gp, {zs[1], cands[7]});

  // And it keeps working exactly like the untouched copy.
  gp::GpRegressor control(before);
  gp.add(zs[5], -0.3);
  control.add(zs[5], -0.3);
  expect_bit_identical(control, gp, {zs[1], cands[7]});
}

// ---------------------------------------------------------------------------
// Baseline and AVX2 column kernels: the same bits on random blocks.
// ---------------------------------------------------------------------------

struct RandomCache {
  std::size_t rows, m;
  std::vector<double> a, mean, var, dmu, dsg;
  RandomCache(std::size_t r, std::size_t cols, Rng& rng)
      : rows(r), m(cols), a(r * cols), mean(cols), var(cols), dmu(cols),
        dsg(cols) {
    for (double& v : a) v = rng.normal();
    for (auto* vec : {&mean, &var, &dmu, &dsg}) {
      for (double& v : *vec) v = rng.uniform();
    }
  }
  gp::detail::CacheColumns view() {
    return {a.data(), m, mean.data(), var.data(), dmu.data(), dsg.data()};
  }
  bool operator==(const RandomCache& o) const {
    return same_bits(a.data(), o.a.data(), a.size()) &&
           same_bits(mean.data(), o.mean.data(), m) &&
           same_bits(var.data(), o.var.data(), m) &&
           same_bits(dmu.data(), o.dmu.data(), m) &&
           same_bits(dsg.data(), o.dsg.data(), m);
  }
};

TEST(GpBudget, Avx2ColumnKernelsMatchBaselineBitForBit) {
  if (!gp::detail::avx2_column_kernels_available()) {
    GTEST_SKIP() << "CPU without AVX2";
  }
  const gp::detail::ColumnKernels& base = gp::detail::baseline_column_kernels();
  const gp::detail::ColumnKernels& avx2 = gp::detail::avx2_column_kernels();
  Rng rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t rows = 2 + rng.uniform_index(40);
    const std::size_t m = 1 + rng.uniform_index(700);
    const std::size_t j0 = rng.uniform_index(m);
    const std::size_t j1 = j0 + 1 + rng.uniform_index(m - j0);
    RandomCache x(rows, m, rng);
    RandomCache y = x;

    // Fold into the last row.
    std::vector<double> lrow(rows - 1);
    for (double& v : lrow) v = rng.normal();
    const double pivot = 0.5 + rng.uniform();
    const double w_new = rng.normal();
    base.fold(x.view(), rows - 1, lrow.data(), pivot, w_new, j0, j1);
    avx2.fold(y.view(), rows - 1, lrow.data(), pivot, w_new, j0, j1);
    EXPECT_TRUE(x == y) << "fold, trial " << trial;

    // Downdate from a random first row.
    const std::size_t first = rng.uniform_index(rows);
    std::vector<linalg::GivensRotation> rot(rows - 1 - first);
    for (auto& r : rot) {
      const double t = rng.uniform() * 6.283185307179586;
      r = {std::cos(t), std::sin(t)};
    }
    const double w_last = rng.normal();
    base.downdate(x.view(), first, rows, rot.data(), w_last, j0, j1);
    avx2.downdate(y.view(), first, rows, rot.data(), w_last, j0, j1);
    EXPECT_TRUE(x == y) << "downdate, trial " << trial;

    // One rebuild row over the block [j0, j1).
    const std::size_t i = rng.uniform_index(rows);
    std::vector<double> li(i + 1);
    for (double& v : li) v = rng.normal();
    li[i] = 0.5 + rng.uniform();
    const double wi = rng.normal();
    base.rebuild_row(x.a.data() + j0, m, i, li.data(), wi, x.mean.data() + j0,
                     x.var.data() + j0, j1 - j0);
    avx2.rebuild_row(y.a.data() + j0, m, i, li.data(), wi, y.mean.data() + j0,
                     y.var.data() + j0, j1 - j0);
    EXPECT_TRUE(x == y) << "rebuild_row, trial " << trial;
  }
}

}  // namespace
}  // namespace edgebol
