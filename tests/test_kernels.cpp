// Kernel-backend seam: registry selection and env override, cross-backend
// equivalence (simd vs scalar within 1e-4 of the matrix scale), per-backend
// bit-identity across thread counts, the real int8 qgemm against the
// fake-quant float reference, and the packed-int8 export round trip.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "core/check.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "kernels/backend.hpp"
#include "quant/quantize.hpp"
#include "tensor/ops.hpp"

namespace alf {
namespace {

Tensor random2d(size_t r, size_t c, Rng& rng, float scale = 1.0f) {
  Tensor t({r, c});
  for (size_t i = 0; i < t.numel(); ++i)
    t.at(i) = scale * static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

/// Runs `be` over op(A)*op(B) into a dense [m, n] buffer.
std::vector<float> run_gemm(const kernels::KernelBackend* be, const Tensor& a,
                            bool ta, const Tensor& b, bool tb, size_t m,
                            size_t k, size_t n, float alpha = 1.0f,
                            float beta = 0.0f, float c_init = 0.0f) {
  std::vector<float> c(m * n, c_init);
  be->gemm(a.data(), a.dim(1), ta, b.data(), b.dim(1), tb, c.data(), n, m, k,
           n, alpha, beta);
  return c;
}

/// Skinny-M, wide-N conv shapes (few output channels against thousands of
/// pixel columns): m x k x n with B read through an ldb that is a multiple
/// of 1024 floats (the page-aliasing strides of real activation planes).
struct WideShape {
  size_t m, k;
};
constexpr WideShape kWideShapes[] = {{6, 6},   {6, 27},   {6, 144},
                                     {11, 6},  {11, 27},  {11, 144},
                                     {22, 6},  {22, 27},  {22, 144}};
constexpr size_t kWideN = 8192;
constexpr size_t kWideLdbN = 9 * 1024;  ///< ldb of stored [k, n] B
constexpr size_t kWideLdbT = 1024;      ///< ldb of stored [n, k] B

/// Shapes below any packing break-even (m*k*n < 4096 or n < 8), including
/// the classifier head [fill, 64] x [64, 10] at small batch fills.
struct Shape3 {
  size_t m, k, n;
};
constexpr Shape3 kTinyShapes[] = {{1, 1, 1},  {3, 5, 7},  {7, 64, 10},
                                  {6, 64, 10}, {16, 16, 4}, {5, 3, 1},
                                  {64, 1, 2},  {2, 300, 6}};

/// B operand for the wide shapes: one random buffer of the larger stored
/// extent, read as [k, n] with kWideLdbN or as [n, k] with kWideLdbT.
std::vector<float> wide_b(Rng& rng) {
  std::vector<float> b(std::max(144 * kWideLdbN, kWideN * kWideLdbT));
  for (float& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return b;
}

/// Runs `be` over op(A)*op(B) with explicit B storage into a dense [m, n]
/// buffer (C starts at 0.25, accumulated with alpha 1.3 / beta 0.5).
std::vector<float> run_gemm_ldb(const kernels::KernelBackend* be,
                                const Tensor& a, const float* b, size_t ldb,
                                bool tb, size_t m, size_t k, size_t n) {
  std::vector<float> c(m * n, 0.25f);
  be->gemm(a.data(), k, false, b, ldb, tb, c.data(), n, m, k, n, 1.3f, 0.5f);
  return c;
}

double max_abs_diff(const std::vector<float>& x, const std::vector<float>& y) {
  double d = 0.0;
  for (size_t i = 0; i < x.size(); ++i)
    d = std::max(d, static_cast<double>(std::fabs(x[i] - y[i])));
  return d;
}

double max_abs(const std::vector<float>& x) {
  double m = 0.0;
  for (const float v : x) m = std::max(m, static_cast<double>(std::fabs(v)));
  return m;
}

TEST(KernelRegistry, BuiltinsPresent) {
  ASSERT_NE(kernels::scalar_backend(), nullptr);
  EXPECT_STREQ(kernels::scalar_backend()->name, "scalar");
  EXPECT_EQ(kernels::find_backend("scalar"), kernels::scalar_backend());
  EXPECT_EQ(kernels::find_backend("int8"), kernels::int8_backend());
  EXPECT_EQ(kernels::find_backend("no-such-backend"), nullptr);
  const auto names = kernels::backend_names();
  EXPECT_GE(names.size(), size_t{2});
  EXPECT_EQ(names.front(), "scalar");
  ASSERT_NE(kernels::default_backend(), nullptr);
  // default_backend never returns a quantized backend implicitly — unless
  // the run forces one by name (CI loops the suite over ALF_BACKEND).
  if (std::getenv("ALF_BACKEND") == nullptr) {
    EXPECT_FALSE(kernels::default_backend()->quantized_datapath);
  }
}

TEST(KernelRegistry, RegisterAndFind) {
  static const kernels::KernelBackend custom{
      .name = "test-custom",
      .gemm = kernels::scalar_backend()->gemm,
      .qgemm = kernels::scalar_backend()->qgemm};
  kernels::register_backend(&custom);
  EXPECT_EQ(kernels::find_backend("test-custom"), &custom);
  EXPECT_EQ(kernels::backend_names().back(), "test-custom");
}

TEST(KernelRegistry, SetDefaultBackendOverridesAndResets) {
  kernels::set_default_backend("scalar");
  EXPECT_STREQ(kernels::default_backend()->name, "scalar");
  EXPECT_THROW(kernels::set_default_backend("no-such-backend"), CheckError);
  // The failed set leaves the previous override in place.
  EXPECT_STREQ(kernels::default_backend()->name, "scalar");
  kernels::set_default_backend("");  // back to auto resolution
  ASSERT_NE(kernels::default_backend(), nullptr);
}

TEST(KernelRegistry, EnvSelection) {
  // Save whatever the run was launched with (CI forces ALF_BACKEND to loop
  // the suite over every backend) and restore it on the way out.
  const char* prev = std::getenv("ALF_BACKEND");
  const std::string saved = prev != nullptr ? prev : "";
  ASSERT_EQ(setenv("ALF_BACKEND", "scalar", 1), 0);
  kernels::set_default_backend("");  // force re-resolution from the env
  EXPECT_STREQ(kernels::default_backend()->name, "scalar");
  ASSERT_EQ(setenv("ALF_BACKEND", "no-such-backend", 1), 0);
  kernels::set_default_backend("");
  EXPECT_THROW(kernels::default_backend(), CheckError);
  if (prev != nullptr) {
    ASSERT_EQ(setenv("ALF_BACKEND", saved.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("ALF_BACKEND"), 0);
  }
  kernels::set_default_backend("");
  ASSERT_NE(kernels::default_backend(), nullptr);
}

TEST(KernelRegistry, EnvForcingSelectsVectorQgemmBackends) {
  // ALF_BACKEND forcing must work for the ISA-specific quantized backends
  // exactly like for the built-ins (forcing bypasses the feature mask, but
  // registration already guaranteed the host can execute them).
  const char* prev = std::getenv("ALF_BACKEND");
  const std::string saved = prev != nullptr ? prev : "";
  for (const char* name : {"int8-avx2", "int8-vnni"}) {
    if (kernels::find_backend(name) == nullptr) continue;
    ASSERT_EQ(setenv("ALF_BACKEND", name, 1), 0);
    kernels::set_default_backend("");
    EXPECT_STREQ(kernels::default_backend()->name, name);
    EXPECT_TRUE(kernels::default_backend()->quantized_datapath);
  }
  if (prev != nullptr) {
    ASSERT_EQ(setenv("ALF_BACKEND", saved.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("ALF_BACKEND"), 0);
  }
  kernels::set_default_backend("");
}

TEST(KernelDispatch, FeatureMaskGatesAutoSelection) {
  // Auto-selection must never hand out a backend whose required features
  // the mask forbids. With everything masked off, the quantized pick falls
  // back to the baseline "int8" dispatcher and the process default (when
  // not name-forced) to "scalar".
  kernels::set_cpu_feature_mask(0);
  EXPECT_EQ(kernels::allowed_cpu_features(), 0u);
  const kernels::KernelBackend* best = kernels::best_quantized_backend();
  EXPECT_EQ(best->required_features, 0u);
  EXPECT_STREQ(best->name, "int8");
  if (std::getenv("ALF_BACKEND") == nullptr) {
    kernels::set_default_backend("");
    EXPECT_EQ(kernels::default_backend()->required_features, 0u);
    EXPECT_STREQ(kernels::default_backend()->name, "scalar");
  }

  // With only AVX2+FMA allowed, the VNNI kernel stays forbidden but the
  // AVX2 one (when this host registered it) becomes the best pick.
  kernels::set_cpu_feature_mask(kernels::kCpuAvx2 | kernels::kCpuFma);
  const kernels::KernelBackend* avx_best = kernels::best_quantized_backend();
  EXPECT_EQ(avx_best->required_features &
                ~static_cast<uint32_t>(kernels::kCpuAvx2 | kernels::kCpuFma),
            0u);
  if (kernels::find_backend("int8-avx2") != nullptr &&
      (kernels::allowed_cpu_features() & kernels::kCpuAvx2) != 0u) {
    EXPECT_STREQ(avx_best->name, "int8-avx2");
  }

  // Lift the cap: the best pick must be the widest registered kernel.
  kernels::set_cpu_feature_mask(~0u);
  const kernels::KernelBackend* full = kernels::best_quantized_backend();
  if (kernels::find_backend("int8-vnni") != nullptr) {
    EXPECT_STREQ(full->name, "int8-vnni");
  } else if (kernels::find_backend("int8-avx2") != nullptr) {
    EXPECT_STREQ(full->name, "int8-avx2");
  } else {
    EXPECT_STREQ(full->name, "int8");
  }
  kernels::set_default_backend("");
}

TEST(KernelEquivalence, SimdMatchesScalarAllVariants) {
  const kernels::KernelBackend* simd = kernels::simd_backend();
  if (simd == nullptr) GTEST_SKIP() << "simd backend unavailable on this CPU";
  const kernels::KernelBackend* scalar = kernels::scalar_backend();
  Rng rng(7);
  // Odd shapes exercise the packing edge panels and the column tail; the
  // conv-shaped cases mirror the engine's real GEMMs.
  std::vector<Shape3> shapes = {{37, 53, 29},  {64, 64, 64},  {16, 27, 1024},
                                {128, 576, 60}, {4, 3, 17},   {100, 1, 40},
                                {1, 130, 257}};
  shapes.insert(shapes.end(), std::begin(kTinyShapes), std::end(kTinyShapes));
  for (const auto& s : shapes) {
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        Tensor a = ta ? random2d(s.k, s.m, rng) : random2d(s.m, s.k, rng);
        Tensor b = tb ? random2d(s.n, s.k, rng) : random2d(s.k, s.n, rng);
        const auto ref =
            run_gemm(scalar, a, ta, b, tb, s.m, s.k, s.n, 1.3f, 0.5f, 0.25f);
        const auto got =
            run_gemm(simd, a, ta, b, tb, s.m, s.k, s.n, 1.3f, 0.5f, 0.25f);
        const double tol = 1e-4 * std::max(1.0, max_abs(ref));
        EXPECT_LE(max_abs_diff(ref, got), tol)
            << "m=" << s.m << " k=" << s.k << " n=" << s.n << " ta=" << ta
            << " tb=" << tb;
      }
    }
  }
  const std::vector<float> b = wide_b(rng);
  for (const WideShape& s : kWideShapes) {
    Tensor a = random2d(s.m, s.k, rng);
    for (const bool tb : {false, true}) {
      const size_t ldb = tb ? kWideLdbT : kWideLdbN;
      const auto ref =
          run_gemm_ldb(scalar, a, b.data(), ldb, tb, s.m, s.k, kWideN);
      const auto got =
          run_gemm_ldb(simd, a, b.data(), ldb, tb, s.m, s.k, kWideN);
      const double tol = 1e-4 * std::max(1.0, max_abs(ref));
      EXPECT_LE(max_abs_diff(ref, got), tol)
          << "m=" << s.m << " k=" << s.k << " n=" << kWideN << " tb=" << tb;
    }
  }
}

TEST(KernelEquivalence, StridedCOutput) {
  const kernels::KernelBackend* simd = kernels::simd_backend();
  if (simd == nullptr) GTEST_SKIP() << "simd backend unavailable on this CPU";
  // ldc > n (the engine's shifted-GEMM writes column windows): untouched
  // gutter columns must stay exactly as initialized.
  Rng rng(11);
  const size_t m = 33, k = 40, n = 21, ldc = 30;
  Tensor a = random2d(m, k, rng);
  Tensor b = random2d(k, n, rng);
  std::vector<float> ref(m * ldc, 7.0f), got(m * ldc, 7.0f);
  kernels::scalar_backend()->gemm(a.data(), k, false, b.data(), n, false,
                                  ref.data(), ldc, m, k, n, 1.0f, 0.0f);
  simd->gemm(a.data(), k, false, b.data(), n, false, got.data(), ldc, m, k, n,
             1.0f, 0.0f);
  double tol = 1e-4 * std::max(1.0, max_abs(ref));
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < ldc; ++j) {
      if (j >= n) {
        EXPECT_EQ(got[i * ldc + j], 7.0f) << "gutter clobbered at " << j;
      } else {
        EXPECT_NEAR(got[i * ldc + j], ref[i * ldc + j], tol);
      }
    }
  }
}

TEST(KernelDeterminism, BitIdenticalAcrossThreadCounts) {
  Rng rng(13);
  // First shape: large enough that the row partition actually splits (k*n
  // madds per row is small against the per-worker floor). Second shape:
  // wide-N, so the simd backend takes its packed B-panel path.
  const size_t shapes[][3] = {{96, 80, 72}, {24, 48, 1024}};
  for (const auto& s : shapes) {
    const size_t m = s[0], k = s[1], n = s[2];
    Tensor a = random2d(m, k, rng);
    Tensor b = random2d(k, n, rng);
    for (const std::string& name : kernels::backend_names()) {
      const kernels::KernelBackend* be = kernels::find_backend(name);
      set_parallel_threads(1);
      const auto ref = run_gemm(be, a, false, b, false, m, k, n);
      for (const int threads : {2, 3, 5}) {
        set_parallel_threads(threads);
        const auto got = run_gemm(be, a, false, b, false, m, k, n);
        EXPECT_EQ(
            std::memcmp(ref.data(), got.data(), ref.size() * sizeof(float)), 0)
            << name << " not bit-identical at " << threads << " threads, n="
            << n;
      }
      set_parallel_threads(0);
    }
  }
  // Skinny-M wide-N conv shapes (the simd backend splits their column
  // panels, M fitting one row block) and tiny shapes (partial register
  // tiles), both orientations of B.
  const std::vector<float> wb = wide_b(rng);
  std::vector<Shape3> more(std::begin(kTinyShapes), std::end(kTinyShapes));
  for (const WideShape& s : kWideShapes) more.push_back({s.m, s.k, kWideN});
  for (const Shape3& s : more) {
    Tensor a = random2d(s.m, s.k, rng);
    for (const bool tb : {false, true}) {
      const size_t ldb = s.n == kWideN ? (tb ? kWideLdbT : kWideLdbN)
                                       : (tb ? s.k : s.n);
      for (const std::string& name : kernels::backend_names()) {
        const kernels::KernelBackend* be = kernels::find_backend(name);
        set_parallel_threads(1);
        const auto ref =
            run_gemm_ldb(be, a, wb.data(), ldb, tb, s.m, s.k, s.n);
        for (const int threads : {2, 4}) {
          set_parallel_threads(threads);
          const auto got =
              run_gemm_ldb(be, a, wb.data(), ldb, tb, s.m, s.k, s.n);
          EXPECT_EQ(std::memcmp(ref.data(), got.data(),
                                ref.size() * sizeof(float)),
                    0)
              << name << " not bit-identical at " << threads
              << " threads: m=" << s.m << " k=" << s.k << " n=" << s.n
              << " tb=" << tb;
        }
      }
      set_parallel_threads(0);
    }
  }
}

TEST(Qgemm, MatchesFakeQuantFloatReference) {
  Rng rng(17);
  const size_t m = 24, k = 96, n = 32;
  Tensor a = random2d(m, k, rng, 0.8f);
  Tensor b = random2d(k, n, rng, 1.4f);
  const PackedInt8 qa = quantize_tensor(a, 8);
  const PackedInt8 qb = quantize_tensor(b, 8);
  // Reference: the fake-quant float path — dequantize both operands and
  // run the float oracle.
  Tensor da({m, k}), db({k, n});
  for (size_t i = 0; i < da.numel(); ++i) da.at(i) = qa.dequant(i);
  for (size_t i = 0; i < db.numel(); ++i) db.at(i) = qb.dequant(i);
  Tensor cref({m, n});
  gemm_naive(da, false, db, false, cref);

  kernels::QgemmParams params;
  params.a_scale = qa.params.scale;
  params.b_scale = qb.params.scale;
  for (const char* name : {"scalar", "int8"}) {
    const kernels::KernelBackend* be = kernels::find_backend(name);
    std::vector<float> c(m * n, 0.0f);
    be->qgemm(qa.data.data(), k, qb.data.data(), n, c.data(), n, m, k, n,
              params);
    // int32 accumulation is exact; the float reference rounds per add, so
    // the tolerance covers only the reference's error.
    double scale = 0.0;
    for (size_t i = 0; i < cref.numel(); ++i)
      scale = std::max(scale, static_cast<double>(std::fabs(cref.at(i))));
    for (size_t i = 0; i < c.size(); ++i)
      ASSERT_NEAR(c[i], cref.at(i), 1e-4 * std::max(1.0, scale))
          << name << " element " << i;
  }
}

TEST(Qgemm, ZeroPointsApplied) {
  // 2x2x2 with nonzero zero-points, checked against hand math:
  // C[i,j] = sa*sb * sum_k (A-azp)(B-bzp).
  const int8_t a[] = {10, 20, 30, 40};  // [2, 2]
  const int8_t b[] = {1, 2, 3, 4};      // [2, 2]
  kernels::QgemmParams p;
  p.a_scale = 0.5f;
  p.b_scale = 0.25f;
  p.a_zp = 10;
  p.b_zp = 1;
  std::vector<float> c(4, -1.0f);
  kernels::int8_backend()->qgemm(a, 2, b, 2, c.data(), 2, 2, 2, 2, p);
  // Row 0: A-azp = {0, 10}; B-bzp cols: {(0,2),(1,3)}.
  EXPECT_FLOAT_EQ(c[0], 0.125f * (0 * 0 + 10 * 2));
  EXPECT_FLOAT_EQ(c[1], 0.125f * (0 * 1 + 10 * 3));
  // Row 1: A-azp = {20, 30}.
  EXPECT_FLOAT_EQ(c[2], 0.125f * (20 * 0 + 30 * 2));
  EXPECT_FLOAT_EQ(c[3], 0.125f * (20 * 1 + 30 * 3));
}

TEST(Qgemm, PerChannelScalesOverridePerTensor) {
  // Per-row A scales and per-column B scales only touch requantization:
  // against a per-tensor call on the same integer panels the result must
  // differ exactly by the row/column scale ratios.
  Rng rng(19);
  const size_t m = 8, k = 32, n = 12;
  Tensor a = random2d(m, k, rng);
  Tensor b = random2d(k, n, rng);
  const PackedInt8 qa = quantize_tensor(a, 8);
  const PackedInt8 qb = quantize_tensor(b, 8);
  kernels::QgemmParams pt;
  pt.a_scale = qa.params.scale;
  pt.b_scale = qb.params.scale;
  std::vector<float> base(m * n);
  kernels::int8_backend()->qgemm(qa.data.data(), k, qb.data.data(), n,
                                 base.data(), n, m, k, n, pt);

  std::vector<float> arow(m), bcol(n);
  for (size_t i = 0; i < m; ++i)
    arow[i] = qa.params.scale * (1.0f + 0.5f * static_cast<float>(i));
  for (size_t j = 0; j < n; ++j)
    bcol[j] = qb.params.scale * (2.0f - 0.1f * static_cast<float>(j));
  kernels::QgemmParams pc = pt;
  pc.a_scales = arow.data();
  pc.b_scales = bcol.data();
  std::vector<float> got(m * n);
  kernels::int8_backend()->qgemm(qa.data.data(), k, qb.data.data(), n,
                                 got.data(), n, m, k, n, pc);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const float ratio = (arow[i] / qa.params.scale) *
                          (bcol[j] / qb.params.scale);
      EXPECT_NEAR(got[i * n + j], base[i * n + j] * ratio,
                  1e-4f * std::max(1.0f, std::fabs(base[i * n + j] * ratio)))
          << i << "," << j;
    }
  }
}

TEST(Qgemm, DeterministicAcrossThreadCounts) {
  Rng rng(23);
  const size_t m = 64, k = 48, n = 56;
  Tensor a = random2d(m, k, rng);
  Tensor b = random2d(k, n, rng);
  const PackedInt8 qa = quantize_tensor(a, 8);
  const PackedInt8 qb = quantize_tensor(b, 8);
  kernels::QgemmParams params;
  params.a_scale = qa.params.scale;
  params.b_scale = qb.params.scale;
  const auto run = [&] {
    std::vector<float> c(m * n, 0.0f);
    kernels::int8_backend()->qgemm(qa.data.data(), k, qb.data.data(), n,
                                   c.data(), n, m, k, n, params);
    return c;
  };
  set_parallel_threads(1);
  const auto ref = run();
  set_parallel_threads(4);
  const auto got = run();
  set_parallel_threads(0);
  EXPECT_EQ(std::memcmp(ref.data(), got.data(), ref.size() * sizeof(float)),
            0);
}

// Full-range int8 panel with a deliberate sprinkle of the ±127 saturation
// edges, so the widening multiplies in the vector kernels see their worst
// case (e.g. -127*-127 pairs that would overflow a 16-bit accumulator if a
// kernel widened too late).
std::vector<int8_t> random_i8(size_t numel, Rng& rng) {
  std::vector<int8_t> v(numel);
  for (size_t i = 0; i < numel; ++i) {
    const double u = rng.uniform(0.0, 1.0);
    if (u < 0.05) {
      v[i] = 127;
    } else if (u < 0.10) {
      v[i] = -127;
    } else {
      v[i] = static_cast<int8_t>(
          static_cast<int>(std::lrint(rng.uniform(-127.0, 127.0))));
    }
  }
  return v;
}

TEST(QgemmBitIdentity, VectorBackendsMatchScalarOracle) {
  // The ISA backends must reproduce the scalar qgemm oracle bit for bit:
  // integer accumulation is exact and the float store pairs its multiplies
  // 1:1 with the scalar epilogue. Covers zero-point combinations, odd
  // shapes (nothing aligned to the 4x16 register tile), per-channel
  // scales, and a strided C; memcmp over the full strided buffer also
  // proves the kernels never write the ldc padding.
  Rng rng(41);
  const kernels::KernelBackend* oracle = kernels::find_backend("scalar");
  ASSERT_NE(oracle, nullptr);
  struct Shape {
    size_t m, k, n;
  };
  // Mix of below-cutoff (delegates to scalar), odd, tile-aligned, and
  // wide-N shapes; the larger ones exceed the scalar-delegation cutoff so
  // the vector drivers genuinely run.
  const Shape shapes[] = {{1, 1, 1},    {3, 7, 5},     {5, 31, 47},
                          {17, 64, 129}, {8, 192, 512}, {4, 80, 2048}};
  const int32_t zps[][2] = {
      {0, 0}, {-127, 0}, {0, -127}, {-127, -127}, {5, -3}};
  for (const char* name : {"int8-avx2", "int8-vnni"}) {
    const kernels::KernelBackend* be = kernels::find_backend(name);
    if (be == nullptr) continue;  // host lacks the ISA; registration skipped
    for (const Shape& sh : shapes) {
      const auto a = random_i8(sh.m * sh.k, rng);
      const auto b = random_i8(sh.k * sh.n, rng);
      std::vector<float> as(sh.m), bs(sh.n);
      for (size_t i = 0; i < sh.m; ++i)
        as[i] = 0.03f + 0.01f * static_cast<float>(i % 7);
      for (size_t j = 0; j < sh.n; ++j)
        bs[j] = 0.11f - 0.005f * static_cast<float>(j % 13);
      for (const auto& zp : zps) {
        for (const bool per_channel : {false, true}) {
          kernels::QgemmParams p;
          p.a_scale = 0.0625f;
          p.b_scale = 0.125f;
          p.a_zp = zp[0];
          p.b_zp = zp[1];
          if (per_channel) {
            p.a_scales = as.data();
            p.b_scales = bs.data();
          }
          const size_t ldc = sh.n + 3;  // strided C with poisoned padding
          std::vector<float> ref(sh.m * ldc, -7.0f);
          std::vector<float> got(sh.m * ldc, -7.0f);
          oracle->qgemm(a.data(), sh.k, b.data(), sh.n, ref.data(), ldc,
                        sh.m, sh.k, sh.n, p);
          be->qgemm(a.data(), sh.k, b.data(), sh.n, got.data(), ldc, sh.m,
                    sh.k, sh.n, p);
          ASSERT_EQ(std::memcmp(ref.data(), got.data(),
                                ref.size() * sizeof(float)),
                    0)
              << name << " m=" << sh.m << " k=" << sh.k << " n=" << sh.n
              << " azp=" << zp[0] << " bzp=" << zp[1]
              << " per_channel=" << per_channel;
        }
      }
    }
  }
}

TEST(QgemmBitIdentity, WideNAcrossThreadCounts) {
  // Wide-N quantized matmul, per backend, across thread counts: the k-block
  // accumulation grid is fixed by the shape, so the partition must not leak
  // into results. Integer accumulation makes this exact.
  Rng rng(43);
  const size_t m = 64, k = 96, n = 2048;
  const auto a = random_i8(m * k, rng);
  const auto b = random_i8(k * n, rng);
  kernels::QgemmParams p;
  p.a_scale = 0.01f;
  p.b_scale = 0.02f;
  p.a_zp = -5;
  p.b_zp = 7;
  for (const std::string& name : kernels::backend_names()) {
    const kernels::KernelBackend* be = kernels::find_backend(name);
    const auto run = [&] {
      std::vector<float> c(m * n, 0.0f);
      be->qgemm(a.data(), k, b.data(), n, c.data(), n, m, k, n, p);
      return c;
    };
    set_parallel_threads(1);
    const auto ref = run();
    for (const int threads : {2, 5}) {
      set_parallel_threads(threads);
      const auto got = run();
      EXPECT_EQ(
          std::memcmp(ref.data(), got.data(), ref.size() * sizeof(float)), 0)
          << name << " qgemm not bit-identical at " << threads << " threads";
    }
    set_parallel_threads(0);
  }
}

TEST(PackedInt8, RoundTripWithinHalfStep) {
  Rng rng(29);
  Tensor t({5, 33});
  for (size_t i = 0; i < t.numel(); ++i)
    t.at(i) = static_cast<float>(rng.uniform(-2.5, 2.5));
  for (const int bits : {8, 6, 4}) {
    const PackedInt8 q = quantize_tensor(t, bits);
    const int qmax = (1 << (bits - 1)) - 1;
    ASSERT_EQ(q.data.size(), t.numel());
    EXPECT_EQ(q.params.bits, bits);
    for (size_t i = 0; i < t.numel(); ++i) {
      EXPECT_LE(std::abs(static_cast<int>(q.data[i])), qmax);
      // Max-abs calibration never saturates, so every element sits within
      // half a grid step of its dequantized value.
      EXPECT_LE(std::fabs(t.at(i) - q.dequant(i)),
                0.5f * q.params.scale + 1e-6f)
          << "bits=" << bits << " i=" << i;
    }
  }
  EXPECT_THROW(quantize_tensor(t, 16), CheckError);
}

TEST(PackedInt8, ViewHelpers) {
  const float src[] = {-1.5f, 0.25f, 3.0f, -0.75f};
  EXPECT_FLOAT_EQ(max_abs_view(src, 4), 3.0f);
  EXPECT_FLOAT_EQ(max_abs_view(src, 0), 0.0f);
  QuantParams qp;
  qp.bits = 8;
  qp.scale = 3.0f / 127.0f;
  int8_t dst[4];
  quantize_view(src, 4, qp, dst);
  EXPECT_EQ(dst[2], 127);
  for (int i = 0; i < 4; ++i)
    EXPECT_NEAR(static_cast<float>(dst[i]) * qp.scale, src[i],
                0.5f * qp.scale + 1e-6f);
}

TEST(Int8Backend, FloatGemmForwardsToBestFloatBackend) {
  Rng rng(31);
  const size_t m = 20, k = 24, n = 28;
  Tensor a = random2d(m, k, rng);
  Tensor b = random2d(k, n, rng);
  const kernels::KernelBackend* simd = kernels::simd_backend();
  const kernels::KernelBackend* want =
      simd != nullptr ? simd : kernels::scalar_backend();
  const auto ref = run_gemm(want, a, false, b, false, m, k, n);
  const auto got =
      run_gemm(kernels::int8_backend(), a, false, b, false, m, k, n);
  EXPECT_EQ(std::memcmp(ref.data(), got.data(), ref.size() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace alf
