// Internals shared between the built-in kernel backends. Not installed on
// the public include path of the library's users (tests include it via the
// source tree to reach the raw kernels directly).
#pragma once

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/parallel.hpp"
#include "kernels/backend.hpp"

namespace alf::kernels::detail {

/// The int8 GEMM kernel entry shared by every built-in backend: k-blocked,
/// int32 accumulation, requantize-to-float store. Defined in int8.cpp at
/// the baseline ISA; simd.cpp compiles the same body (qgemm_int8_body
/// below) with wider vector flags and the int8 backend picks the fastest
/// usable variant at registration. Integer accumulation is exact, so every
/// variant produces bit-identical floats for any thread count.
void qgemm_int8(const int8_t* a, size_t lda, const int8_t* b, size_t ldb,
                float* c, size_t ldc, size_t m, size_t k, size_t n,
                const QgemmParams& p);

/// The moved cache-blocked scalar f32 kernel (defined in scalar.cpp); the
/// int8 backend's float forward falls back to it when simd is unusable.
void gemm_scalar(const float* a, size_t lda, bool trans_a, const float* b,
                 size_t ldb, bool trans_b, float* c, size_t ldc, size_t m,
                 size_t k, size_t n, float alpha, float beta);

/// The scalar kernel body with its (k, n) cache-block extents exposed —
/// the seam behind the scalar backend's gemm_tiled entry. gemm_scalar is
/// exactly this with the historical kBlockK/kBlockN constants.
void gemm_scalar_blocked(const float* a, size_t lda, bool trans_a,
                         const float* b, size_t ldb, bool trans_b, float* c,
                         size_t ldc, size_t m, size_t k, size_t n, float alpha,
                         float beta, size_t block_k, size_t block_n);

/// f32 gemm entry shared by every quantized backend: forwards to the best
/// float backend the feature mask allows (simd when usable, else scalar),
/// so non-lowered steps of an int8 plan keep full float speed. Defined in
/// int8.cpp; the pick is cached and flushed by reset_int8_dispatch_cache.
void gemm_forward_best_float(const float* a, size_t lda, bool trans_a,
                             const float* b, size_t ldb, bool trans_b,
                             float* c, size_t ldc, size_t m, size_t k,
                             size_t n, float alpha, float beta);

/// Flushes the cached kernel picks of the generic "int8" backend (best
/// qgemm variant + best float forward). Called by set_cpu_feature_mask so
/// dispatch re-resolves under the new mask. Defined in int8.cpp.
void reset_int8_dispatch_cache();

/// The vectorized int8 qgemm kernels (defined in int8_dot.cpp, compiled
/// with wide vector-ISA flags; both are bit-identical to qgemm_int8_body —
/// integer accumulation is exact, and the requantizing store replicates
/// the oracle's float expression order). Null on hosts or builds without
/// the ISA; backed by the "int8-avx2" / "int8-vnni" backends.
using QgemmFn = void (*)(const int8_t*, size_t, const int8_t*, size_t,
                         float*, size_t, size_t, size_t, size_t,
                         const QgemmParams&);

/// Vectorized bodies of the public quantize_row_i8 / quantize_cols_i8
/// helpers. Defined in int8_dot.cpp (the -mavx2 TU); the getters return
/// nullptr when the build or the detected CPU lacks AVX2, and int8.cpp
/// substitutes its baseline loops — same rint-based expression, so both
/// paths agree bit for bit.
using QuantizeRowFn = void (*)(const float*, int8_t*, size_t, float,
                               int32_t, int32_t);
using QuantizeColsFn = void (*)(const float*, int8_t*, size_t, const float*,
                                int32_t, int32_t);
using MaxAbsBlocksFn = void (*)(const float*, size_t, size_t, size_t, size_t,
                                float*);
QuantizeRowFn quantize_row_i8_vec();
QuantizeColsFn quantize_cols_i8_vec();
MaxAbsBlocksFn max_abs_col_blocks_vec();

/// Body of the int8 GEMM, inline so each backend TU instantiates it under
/// its own ISA flags. Row-parallel (same per-worker floor as the float
/// backends); per-thread int32 accumulator row reused across calls.
///
/// Zero points use the classic decomposition so the inner loop is always
/// the pure sum of raw products:
///   sum_k (a-azp)(b-bzp)
///     = sum_k a*b - bzp*rowsum(a)[i] - azp*colsum(b)[j] + k*azp*bzp,
/// with the row/column sums O(mk + kn) side passes folded into the store.
inline void qgemm_int8_body(const int8_t* a, size_t lda, const int8_t* b,
                            size_t ldb, float* c, size_t ldc, size_t m,
                            size_t k, size_t n, const QgemmParams& p) {
  constexpr size_t kMaddsPerWorker = size_t{1} << 16;
  const int32_t azp = p.a_zp, bzp = p.b_zp;
  // Column sums of B are shared by every row; integer, so computing them
  // up front (outside the row partition) keeps determinism trivial. The
  // scratch is thread_local so steady-state calls never allocate (the
  // engine's run path relies on that), but workers must reach the CALLER's
  // buffer — a thread_local name inside the lambda would resolve to each
  // worker's own (empty) instance — so the lambda captures a plain
  // pointer. The caller blocks in parallel_for_chunked, so the buffer
  // outlives every worker's use of it.
  thread_local std::vector<int32_t> colsum_tls;
  const int32_t* colsum = nullptr;
  if (azp != 0) {
    colsum_tls.resize(n);
    int32_t* cs = colsum_tls.data();
    std::memset(cs, 0, n * sizeof(int32_t));
    for (size_t kk = 0; kk < k; ++kk) {
      const int8_t* brow = b + kk * ldb;
      for (size_t j = 0; j < n; ++j) cs[j] += static_cast<int32_t>(brow[j]);
    }
    colsum = cs;
  }
  const int32_t kzz = static_cast<int32_t>(k) * azp * bzp;

  const auto process_rows = [&](size_t r0, size_t r1) {
    thread_local std::vector<int32_t> acc;
    acc.resize(n);
    for (size_t i = r0; i < r1; ++i) {
      std::memset(acc.data(), 0, n * sizeof(int32_t));
      const int8_t* arow = a + i * lda;
      int32_t* ap = acc.data();
      int32_t rowsum = 0;
      // Four k steps per accumulator pass: the loop is bound by acc[]
      // load/add/store traffic, so amortizing it over four products is
      // worth ~3x; zero A elements (pruned weights) skip in groups.
      size_t kk = 0;
      for (; kk + 4 <= k; kk += 4) {
        const int32_t av0 = static_cast<int32_t>(arow[kk]);
        const int32_t av1 = static_cast<int32_t>(arow[kk + 1]);
        const int32_t av2 = static_cast<int32_t>(arow[kk + 2]);
        const int32_t av3 = static_cast<int32_t>(arow[kk + 3]);
        rowsum += av0 + av1 + av2 + av3;
        if ((av0 | av1 | av2 | av3) == 0) continue;
        const int8_t* b0 = b + kk * ldb;
        const int8_t* b1 = b0 + ldb;
        const int8_t* b2 = b1 + ldb;
        const int8_t* b3 = b2 + ldb;
        for (size_t j = 0; j < n; ++j)
          ap[j] += av0 * static_cast<int32_t>(b0[j]) +
                   av1 * static_cast<int32_t>(b1[j]) +
                   av2 * static_cast<int32_t>(b2[j]) +
                   av3 * static_cast<int32_t>(b3[j]);
      }
      for (; kk < k; ++kk) {
        const int32_t av = static_cast<int32_t>(arow[kk]);
        rowsum += av;
        if (av == 0) continue;
        const int8_t* brow = b + kk * ldb;
        for (size_t j = 0; j < n; ++j)
          ap[j] += av * static_cast<int32_t>(brow[j]);
      }
      // Fold the zero-point corrections into the accumulator, then
      // requantize on store. Per-row A scales (per-output-channel weight
      // quantization) and per-column B scales land here too — the integer
      // accumulation never sees scales.
      const int32_t row_corr = kzz - bzp * rowsum;
      if (bzp != 0 || azp != 0) {
        if (azp != 0) {
          for (size_t j = 0; j < n; ++j)
            ap[j] += row_corr - azp * colsum[j];
        } else {
          for (size_t j = 0; j < n; ++j) ap[j] += row_corr;
        }
      }
      const float sa = p.a_scales != nullptr ? p.a_scales[i] : p.a_scale;
      float* crow = c + i * ldc;
      if (p.b_scales == nullptr) {
        const float scale = sa * p.b_scale;
        for (size_t j = 0; j < n; ++j)
          crow[j] = scale * static_cast<float>(ap[j]);
      } else {
        for (size_t j = 0; j < n; ++j)
          crow[j] = sa * p.b_scales[j] * static_cast<float>(ap[j]);
      }
    }
  };

  const size_t madds_per_row = std::max<size_t>(1, k * n);
  const size_t min_rows = std::max<size_t>(1, kMaddsPerWorker / madds_per_row);
  if (in_parallel_region() || m <= min_rows || parallel_threads() <= 1) {
    process_rows(0, m);
    return;
  }
  parallel_for_chunked(0, m, process_rows, min_rows);
}

}  // namespace alf::kernels::detail
