// The tracked-cache column kernels behind GpRegressor: the fold of a new
// observation's row into A = L^{-1} K(train, cands), the Givens downdate of
// an evicted one, and one row of the rebuild's forward substitution.
//
// Each kernel is compiled twice from one body in gp_regressor.cpp: a
// baseline copy for the build's ISA and an AVX2 copy without FMA. The
// translation unit is built with -ffp-contract=off and every loop is
// element-wise (no reductions), so both copies perform the same IEEE
// operations per column in the same order and produce the same bits; the
// AVX2 copy only processes four columns per instruction instead of two.
// column_kernels() picks the copy once, from the CPU it runs on.

#pragma once

#include <cstddef>

#include "linalg/cholesky.hpp"

namespace edgebol::gp::detail {

/// One tracked cache: A, row-major with m columns, plus the per-candidate
/// moments and delta accumulators the kernels update alongside it.
struct CacheColumns {
  double* a = nullptr;
  std::size_t m = 0;
  double* mean = nullptr;
  double* var = nullptr;
  double* delta_mean = nullptr;
  double* delta_sigma = nullptr;
};

struct ColumnKernels {
  /// Finishes row `row` of A over columns [j0, j1) — on entry it holds the
  /// kernel values k(z, c_j) — as a = (k - sum_i lrow[i] a_i) / pivot, and
  /// folds it into the moments (mean += a w_new, var -= a^2).
  void (*fold)(const CacheColumns& c, std::size_t row, const double* lrow,
               double pivot, double w_new, std::size_t j0, std::size_t j1);
  /// Applies the rotations rot[0 .. rows-1-first) to row pairs (first + r,
  /// first + r + 1) over columns [j0, j1), then folds the last row
  /// (rows - 1) out of the moments (mean -= a w_last, var += a^2).
  void (*downdate)(const CacheColumns& c, std::size_t first, std::size_t rows,
                   const linalg::GivensRotation* rot, double w_last,
                   std::size_t j0, std::size_t j1);
  /// Row i of the rebuild over `width` columns of the block at `base` (row
  /// stride `stride`): b_i = (b_i - sum_{k<i} li[k] b_k) / li[i], then
  /// mean += b_i wi, var -= b_i^2.
  void (*rebuild_row)(double* base, std::size_t stride, std::size_t i,
                      const double* li, double wi, double* mean, double* var,
                      std::size_t width);
};

/// The copy built for the baseline ISA.
const ColumnKernels& baseline_column_kernels();
/// True when the AVX2 copy exists in this build and the CPU runs it.
bool avx2_column_kernels_available();
/// The AVX2 copy; only callable when avx2_column_kernels_available().
const ColumnKernels& avx2_column_kernels();
/// The copy GpRegressor uses: AVX2 when available, chosen once.
const ColumnKernels& column_kernels();

}  // namespace edgebol::gp::detail
