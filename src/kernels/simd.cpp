// The "simd" backend: explicitly vectorized GEMM with panel packing.
//
// The inner kernel is a 4x16 register tile — four C rows times two 8-float
// vectors — expressed in portable GCC/Clang vector extensions (no
// intrinsics): the k-loop broadcasts one packed A element per row and FMAs
// it against two B vectors, keeping 8 vector accumulators live.
//
// Both operands are packed, one cache block at a time. The sweep is
// blocked over columns (kNc) and k (kKc); each (kc x nc) block of op(B) is
// packed into a per-thread L2-sized buffer of kNr-column-interleaved
// panels — each k step of a panel is one contiguous 64-byte line, and
// trans_b is absorbed at pack time — right before the row panels consume
// it, so the packed block is still cache-hot when the kernel reads it
// (packing all of op(B) up front streamed megabytes through memory twice
// for the wide im2col and shifted-conv shapes). A panels are packed per
// (row-block, k-block) into kMr-interleaved strips, so both orientations
// of A (and in particular the strided trans_a reads of the backward pass)
// stream contiguously through the kernel. The resident set — one kKc x kNc
// B block plus one kMc x kKc A block — fits in L2.
//
// Every shape runs through this kernel: tiny products and n < kNr use the
// zero-padded partial tiles rather than a different backend, so a C
// element's arithmetic never depends on the size of the call it is part
// of (the engine relies on that: a batch row must not change bits when
// the batch around it grows).
//
// Blocking mirrors the scalar backend: a global k-block grid fixes the
// accumulation order of every C element independent of the thread
// partition, so results are bit-identical for any thread count. The pool
// splits rows when M spans several row blocks (each worker packs the B
// blocks it sweeps), and splits column panels when M fits one row block
// (the conv shapes: few output channels, thousands of columns), so each B
// block is packed exactly once.
//
// Build/ISA: CMake's ALF_SIMD=ON compiles this file with wider vector
// flags (-mavx2 -mfma) when the compiler supports them; simd_backend()
// then gates registration on runtime CPU support, so a binary built on a
// new machine still boots on an old one (the registry falls back to
// "scalar"). Without vector extensions (non-GCC/Clang) the backend is
// absent entirely.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/parallel.hpp"
#include "kernels/internal.hpp"

namespace alf::kernels {

#if defined(__GNUC__) || defined(__clang__)

namespace {

typedef float v8 __attribute__((vector_size(32)));

constexpr size_t kMr = 4;    // C rows per register tile
constexpr size_t kNr = 16;   // C cols per register tile (two v8)
constexpr size_t kMc = 64;   // rows packed per A block (~64KB with kKc)
constexpr size_t kKc = 256;  // k extent of one block (global grid)
constexpr size_t kNc = 256;  // cols per B block (kKc x kNc = 256KB in L2)

// Same per-worker arithmetic floor as the scalar backend.
constexpr size_t kMaddsPerWorker = size_t{1} << 16;

constexpr size_t kLineFloats = 16;  // one 64-byte cache line

/// First cache-line boundary at or after `p` (float-aligned, so the step
/// is a whole number of floats).
inline float* align_line(float* p) {
  const size_t off = reinterpret_cast<uintptr_t>(p) % 64;
  return off == 0 ? p : p + (64 - off) / sizeof(float);
}

inline v8 loadu(const float* p) {
  v8 v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline void storeu(float* p, v8 v) { __builtin_memcpy(p, &v, sizeof(v)); }

inline v8 splat(float s) { return v8{s, s, s, s, s, s, s, s}; }

/// Packs rows [i0, i0+rows) x k-range [k0, k0+kb) of op(A) into kMr-wide
/// panels: dst panel p holds rows i0+p*kMr.., laid out [kk][r] so the
/// microkernel reads one contiguous kMr group per k step. Short panels are
/// zero-padded (the padded lanes are computed and discarded).
void pack_a(const float* a, size_t lda, bool trans_a, size_t i0, size_t rows,
            size_t k0, size_t kb, float* dst) {
  for (size_t p = 0; p < rows; p += kMr) {
    const size_t pr = std::min(kMr, rows - p);
    float* panel = dst + p * kb;  // each panel is kb * kMr floats
    for (size_t kk = 0; kk < kb; ++kk) {
      for (size_t r = 0; r < kMr; ++r) {
        const size_t i = i0 + p + r;
        panel[kk * kMr + r] =
            r < pr ? (trans_a ? a[(k0 + kk) * lda + i] : a[i * lda + k0 + kk])
                   : 0.0f;
      }
    }
  }
}

/// The register tile over packed panels: C[0:pr, 16 cols] += alpha *
/// apanel * bpanel. `bpanel` walks one packed B panel — 16 contiguous
/// floats (one cache line) per k step.
inline void micro_4x16p(const float* apanel, size_t kb, const float* bpanel,
                        float alpha, float* c, size_t ldc, size_t pr) {
  v8 acc[kMr][2] = {};
  for (size_t kk = 0; kk < kb; ++kk) {
    const v8 b0 = loadu(bpanel);
    const v8 b1 = loadu(bpanel + 8);
    bpanel += kNr;
    const float* ap = apanel + kk * kMr;
    for (size_t r = 0; r < kMr; ++r) {
      const v8 av = splat(ap[r]);
      acc[r][0] += av * b0;
      acc[r][1] += av * b1;
    }
  }
  const v8 va = splat(alpha);
  for (size_t r = 0; r < pr; ++r) {
    float* crow = c + r * ldc;
    storeu(crow, loadu(crow) + va * acc[r][0]);
    storeu(crow + 8, loadu(crow + 8) + va * acc[r][1]);
  }
}

/// Column tail (n % 16): same vector accumulation over the zero-padded
/// last panel, spilled to a stack row so only the live columns store.
inline void micro_4x16p_partial(const float* apanel, size_t kb,
                                const float* bpanel, float alpha, float* c,
                                size_t ldc, size_t pr, size_t cols) {
  v8 acc[kMr][2] = {};
  for (size_t kk = 0; kk < kb; ++kk) {
    const v8 b0 = loadu(bpanel);
    const v8 b1 = loadu(bpanel + 8);
    bpanel += kNr;
    const float* ap = apanel + kk * kMr;
    for (size_t r = 0; r < kMr; ++r) {
      const v8 av = splat(ap[r]);
      acc[r][0] += av * b0;
      acc[r][1] += av * b1;
    }
  }
  float tmp[kNr];
  for (size_t r = 0; r < pr; ++r) {
    storeu(tmp, acc[r][0]);
    storeu(tmp + 8, acc[r][1]);
    float* crow = c + r * ldc;
    for (size_t j = 0; j < cols; ++j) crow[j] += alpha * tmp[j];
  }
}

/// Packs B panels [jp0, jp1) over the k-range [k0, k0+kb) of op(B): dst
/// panel (jp - jp0) holds columns [jp*kNr, jp*kNr + kNr) laid out [kk][kNr]
/// (zero-padded past n), so every k step of the microkernel is one
/// contiguous cache line.
void pack_b(const float* b, size_t ldb, bool trans_b, size_t n, size_t k0,
            size_t kb, size_t jp0, size_t jp1, float* dst) {
  const size_t stride = kb * kNr;
  if (!trans_b) {
    for (size_t kk = 0; kk < kb; ++kk) {
      const float* brow = b + (k0 + kk) * ldb;
      for (size_t jp = jp0; jp < jp1; ++jp) {
        const size_t j0 = jp * kNr;
        const size_t cols = std::min(kNr, n - j0);
        float* d = dst + (jp - jp0) * stride + kk * kNr;
        if (cols == kNr) {
          std::memcpy(d, brow + j0, kNr * sizeof(float));
          continue;
        }
        size_t jj = 0;
        for (; jj < cols; ++jj) d[jj] = brow[j0 + jj];
        for (; jj < kNr; ++jj) d[jj] = 0.0f;
      }
    }
    return;
  }
  // B is stored [N, K]: each source row is one output column, read
  // contiguously and scattered down its panel.
  for (size_t jp = jp0; jp < jp1; ++jp) {
    float* panel = dst + (jp - jp0) * stride;
    for (size_t jj = 0; jj < kNr; ++jj) {
      const size_t j = jp * kNr + jj;
      if (j < n) {
        const float* bcol = b + j * ldb + k0;
        for (size_t kk = 0; kk < kb; ++kk) panel[kk * kNr + jj] = bcol[kk];
      } else {
        for (size_t kk = 0; kk < kb; ++kk) panel[kk * kNr + jj] = 0.0f;
      }
    }
  }
}

/// The packed kernel body with the (mc, kc, nc) cache-block extents as
/// parameters. gemm_simd pins the historical constants; the tiled entry
/// substitutes tuner-chosen ones (mc rounded up to the kMr register rows,
/// nc down to whole kNr panels — the register tile itself is fixed). For
/// one (kc) choice the k-block grid is global, so each tile candidate is
/// individually bit-stable across thread counts.
void gemm_simd_blocked(const float* pa, size_t lda, bool trans_a,
                       const float* pb, size_t ldb, bool trans_b, float* pc,
                       size_t ldc, size_t m, size_t k, size_t n, float alpha,
                       float beta, size_t mc, size_t kc, size_t nc) {
  if (m == 0 || n == 0) return;
  mc = (std::max<size_t>(mc, kMr) + kMr - 1) & ~(kMr - 1);
  kc = std::max<size_t>(kc, 1);
  nc = std::max<size_t>(nc & ~(kNr - 1), kNr);

  const size_t npan = (n + kNr - 1) / kNr;  // kNr-column B panels
  const size_t pan_per_block = nc / kNr;    // B panels per column block

  // C rows [r0, r1) x B panels [p0, p1): scale by beta, then sweep the
  // column blocks, packing each (kc x nc) block of op(B) into this
  // thread's buffer right before the row panels consume it. Every C
  // element accumulates its k-blocks in global grid order whatever the
  // (r, p) ranges, which is what makes any partition bit-identical.
  const auto run_block = [=](size_t r0, size_t r1, size_t p0, size_t p1) {
    const size_t j0 = p0 * kNr;
    const size_t j1 = std::min(n, p1 * kNr);
    for (size_t i = r0; i < r1; ++i) {
      float* crow = pc + i * ldc + j0;
      if (beta == 0.0f) {
        std::memset(crow, 0, (j1 - j0) * sizeof(float));
      } else if (beta != 1.0f) {
        for (size_t j = 0; j < j1 - j0; ++j) crow[j] *= beta;
      }
    }
    // Per-thread packing scratch, persistent across calls (pool workers
    // live for the process): one A block and one B block, each starting
    // on a cache line so no packed B step straddles two lines.
    thread_local std::vector<float> apack_tls;
    thread_local std::vector<float> bpack_tls;
    apack_tls.resize(mc * kc + kLineFloats);
    bpack_tls.resize(kc * nc + kLineFloats);
    float* const apack = align_line(apack_tls.data());
    float* const bpack = align_line(bpack_tls.data());

    for (size_t bj = p0; bj < p1; bj += pan_per_block) {
      const size_t pe = std::min(p1, bj + pan_per_block);
      for (size_t k0 = 0; k0 < k; k0 += kc) {
        const size_t kb = std::min(k, k0 + kc) - k0;
        pack_b(pb, ldb, trans_b, n, k0, kb, bj, pe, bpack);
        for (size_t i0 = r0; i0 < r1; i0 += mc) {
          const size_t rows = std::min(r1, i0 + mc) - i0;
          pack_a(pa, lda, trans_a, i0, rows, k0, kb, apack);
          for (size_t jp = bj; jp < pe; ++jp) {
            const float* bpanel = bpack + (jp - bj) * kb * kNr;
            const size_t jc = jp * kNr;
            const size_t cols = std::min(kNr, n - jc);
            for (size_t p = 0; p < rows; p += kMr) {
              const size_t pr = std::min(kMr, rows - p);
              const float* apanel = apack + p * kb;
              float* cpan = pc + (i0 + p) * ldc + jc;
              if (cols == kNr)
                micro_4x16p(apanel, kb, bpanel, alpha, cpan, ldc, pr);
              else
                micro_4x16p_partial(apanel, kb, bpanel, alpha, cpan, ldc, pr,
                                    cols);
            }
          }
        }
      }
    }
  };

  if (!in_parallel_region() && parallel_threads() > 1) {
    if (m <= mc) {
      // One row block: split the column panels, so each B block is packed
      // by exactly one worker.
      const size_t madds_per_panel = std::max<size_t>(1, m * k * kNr);
      const size_t min_panels =
          std::max<size_t>(1, kMaddsPerWorker / madds_per_panel);
      if (npan > min_panels) {
        parallel_for_chunked(
            0, npan,
            [&](size_t p0, size_t p1) { run_block(0, m, p0, p1); },
            min_panels);
        return;
      }
    } else {
      const size_t madds_per_row = std::max<size_t>(1, k * n);
      const size_t min_rows =
          std::max<size_t>(1, kMaddsPerWorker / madds_per_row);
      if (m > min_rows) {
        parallel_for_chunked(
            0, m, [&](size_t r0, size_t r1) { run_block(r0, r1, 0, npan); },
            min_rows);
        return;
      }
    }
  }
  run_block(0, m, 0, npan);
}

void gemm_simd(const float* pa, size_t lda, bool trans_a, const float* pb,
               size_t ldb, bool trans_b, float* pc, size_t ldc, size_t m,
               size_t k, size_t n, float alpha, float beta) {
  gemm_simd_blocked(pa, lda, trans_a, pb, ldb, trans_b, pc, ldc, m, k, n,
                    alpha, beta, kMc, kKc, kNc);
}

void gemm_simd_tiled(const float* pa, size_t lda, bool trans_a,
                     const float* pb, size_t ldb, bool trans_b, float* pc,
                     size_t ldc, size_t m, size_t k, size_t n, float alpha,
                     float beta, const TileParams& t) {
  gemm_simd_blocked(pa, lda, trans_a, pb, ldb, trans_b, pc, ldc, m, k, n,
                    alpha, beta, t.mc != 0 ? t.mc : kMc,
                    t.kc != 0 ? t.kc : kKc, t.nc != 0 ? t.nc : kNc);
}

/// The shared int8 body instantiated under this file's (possibly wider)
/// ISA flags — same exact integer math as detail::qgemm_int8, usually
/// auto-vectorized much harder.
void qgemm_simd(const int8_t* a, size_t lda, const int8_t* b, size_t ldb,
                float* c, size_t ldc, size_t m, size_t k, size_t n,
                const QgemmParams& p) {
  detail::qgemm_int8_body(a, lda, b, ldb, c, ldc, m, k, n, p);
}

/// True when the host CPU can execute the ISA this file was compiled for.
bool cpu_supported() {
#if defined(__AVX2__) && defined(__x86_64__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return true;  // baseline vector extensions only
#endif
}

}  // namespace

const KernelBackend* simd_backend() {
  if (!cpu_supported()) return nullptr;
  static const KernelBackend be{.name = "simd",
#if defined(__AVX2__) && defined(__x86_64__)
                                .required_features = kCpuAvx2 | kCpuFma,
#endif
                                .gemm = &gemm_simd,
                                .qgemm = &qgemm_simd,
                                .gemm_tiled = &gemm_simd_tiled};
  return &be;
}

#else  // !(__GNUC__ || __clang__)

const KernelBackend* simd_backend() { return nullptr; }

#endif

}  // namespace alf::kernels
