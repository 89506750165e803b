#include "engine/exec_context.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/asan.hpp"
#include "core/check.hpp"
#include "core/parallel.hpp"
#include "kernels/backend.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "quant/quantize.hpp"

namespace alf {
namespace {

/// One row of an image's im2col unfold: dst[oh*wo + ow] = the (c, kh, kw)
/// tap of output position (oh, ow), zero where the tap lands in padding.
/// Identical values to the matching row of im2col_view — the quantized
/// conv path assembles rows one at a time (into an L2-resident staging
/// buffer) instead of materializing the whole float unfold.
void unfold_row_view(const float* src, const ConvGeom& g, size_t c, size_t kh,
                     size_t kw, float* dst) {
  const size_t ho = g.out_h(), wo = g.out_w();
  const size_t hw = g.in_h * g.in_w;
  const long base = static_cast<long>(kw) - static_cast<long>(g.pad);
  size_t lo = 0;
  if (base < 0) lo = (static_cast<size_t>(-base) + g.stride - 1) / g.stride;
  size_t hi = 0;
  const long top = static_cast<long>(g.in_w) - base;
  if (top > 0)
    hi = std::min(wo, (static_cast<size_t>(top) + g.stride - 1) / g.stride);
  lo = std::min(lo, hi);
  for (size_t oh = 0; oh < ho; ++oh) {
    const long ih =
        static_cast<long>(oh * g.stride + kh) - static_cast<long>(g.pad);
    float* d = dst + oh * wo;
    if (ih < 0 || ih >= static_cast<long>(g.in_h)) {
      std::memset(d, 0, wo * sizeof(float));
      continue;
    }
    const float* srow = src + c * hw + static_cast<size_t>(ih) * g.in_w;
    if (lo > 0) std::memset(d, 0, lo * sizeof(float));
    if (g.stride == 1) {
      std::memcpy(d + lo, srow + (static_cast<long>(lo) + base),
                  (hi - lo) * sizeof(float));
    } else {
      const float* s = srow + (static_cast<long>(lo * g.stride) + base);
      for (size_t ow = lo; ow < hi; ++ow, s += g.stride) d[ow] = *s;
    }
    if (hi < wo) std::memset(d + hi, 0, (wo - hi) * sizeof(float));
  }
}


/// Floats of one chunk's border-repair scratch for shifted-GEMM step `st`
/// (0 for 1x1s, which have no border): the gathered taps [Ci*K*K, 2*pad*H]
/// plus their GEMM result [Co, 2*pad*H].
size_t border_scratch_floats(const Step& st) {
  const ConvGeom& g = st.geom;
  if (st.kind != OpKind::kConv || !st.shift_gemm || g.kernel == 1) return 0;
  return (g.col_rows() + st.out_c) * 2 * g.pad * g.in_h;
}

/// Single-image shifted-GEMM convolution (stride 1, pad = (K-1)/2, output
/// size == input size). For each kernel offset (kh, kw) the valid output
/// range is a contiguous window of the flattened [H*W] plane, so the
/// contribution is one GEMM of w9[kh,kw] [Co, Ci] against the raw input
/// planes at a flat offset — no im2col materialization at all. Column
/// wrap-around at the left/right borders is repaired afterwards by one
/// more GEMM over just the `pad` edge columns on each side (`scratch`:
/// border_scratch_floats(st) floats).
void conv2d_image_shift(const Step& st, const kernels::KernelBackend* be,
                        const float* x_img, float* out_img, float* scratch) {
  const ConvGeom& g = st.geom;
  const size_t hh = g.in_h, ww = g.in_w, hw = hh * ww;
  const size_t ci = g.in_c, co = st.out_c, k = g.kernel;
  const long pad = static_cast<long>(g.pad);
  if (k == 1) {
    kernels::gemm_dispatch(be, st.tile, st.w.data(), ci, false, x_img, hw,
                           false, out_img, hw, co, ci, hw, 1.0f, 0.0f);
    bias_act_inplace(out_img, co, hw, st.bias.empty() ? nullptr : st.bias.data(),
                     st.act);
    return;
  }
  std::memset(out_img, 0, co * hw * sizeof(float));
  for (size_t kh = 0; kh < k; ++kh) {
    for (size_t kw = 0; kw < k; ++kw) {
      const long shift = (static_cast<long>(kh) - pad) * static_cast<long>(ww) +
                         (static_cast<long>(kw) - pad);
      const size_t c0 = shift < 0 ? static_cast<size_t>(-shift) : 0;
      const size_t c1 = shift > 0 ? hw - static_cast<size_t>(shift) : hw;
      if (c0 >= c1) continue;
      const float* a = st.w9.data() + (kh * k + kw) * co * ci;
      kernels::gemm_dispatch(be, st.tile, a, ci, false,
                             x_img + static_cast<long>(c0) + shift, hw, false,
                             out_img + c0, hw, co, ci, c1 - c0, 1.0f, 1.0f);
    }
  }
  // Repair the `pad` left/right border columns (their shifted reads wrapped
  // into the neighboring row). Gather the taps of the 2*pad edge columns
  // into an im2col-shaped matrix whose column e*H + y is output pixel
  // (y, x_e), multiply by `w` [Co, Ci*K*K] once, and overwrite the edges
  // with the result.
  const size_t p = g.pad, bn = 2 * p * hh, rows = g.col_rows();
  float* const col = scratch;
  float* const res = scratch + rows * bn;
  const auto edge_x = [&](size_t e) { return e < p ? e : ww - 2 * p + e; };
  float* dst = col;
  for (size_t c = 0; c < ci; ++c) {
    const float* xplane = x_img + c * hw;
    for (size_t dy = 0; dy < k; ++dy) {
      const size_t y0 = p > dy ? p - dy : 0;         // first valid row
      const size_t y1 = std::min(hh, hh + p - dy);   // one past the last
      for (size_t dx = 0; dx < k; ++dx) {
        for (size_t e = 0; e < 2 * p; ++e, dst += hh) {
          const long ix = static_cast<long>(edge_x(e) + dx) - pad;
          if (ix < 0 || ix >= static_cast<long>(ww)) {
            std::memset(dst, 0, hh * sizeof(float));
            continue;
          }
          const float* src = xplane +
                             (static_cast<long>(dy) - pad) *
                                 static_cast<long>(ww) +
                             ix;
          for (size_t y = 0; y < y0; ++y) dst[y] = 0.0f;
          for (size_t y = y0; y < y1; ++y) dst[y] = src[y * ww];
          for (size_t y = y1; y < hh; ++y) dst[y] = 0.0f;
        }
      }
    }
  }
  kernels::gemm_dispatch(be, st.tile, st.w.data(), rows, false, col, bn, false,
                         res, bn, co, rows, bn, 1.0f, 0.0f);
  for (size_t o = 0; o < co; ++o) {
    float* oplane = out_img + o * hw;
    const float* r = res + o * bn;
    for (size_t e = 0; e < 2 * p; ++e, r += hh) {
      const size_t x = edge_x(e);
      for (size_t y = 0; y < hh; ++y) oplane[y * ww + x] = r[y];
    }
  }
  bias_act_inplace(out_img, co, hw, st.bias.empty() ? nullptr : st.bias.data(),
                   st.act);
}

}  // namespace

ExecContext::ExecContext(std::shared_ptr<const Plan> plan)
    : plan_(std::move(plan)) {
  ALF_CHECK(plan_ != nullptr) << "ExecContext: null plan";
  // Sized, not filled: ZeroedVector storage reads as zeros but its pages
  // stay untouched until a run writes them.
  workspace_ = ZeroedVector<float>(plan_->workspace_floats());
  if (plan_->quantized()) {
    qws_ = ZeroedVector<int8_t>(plan_->qws_bytes());
    qbs_ = ZeroedVector<float>(plan_->qbs_floats());
  }
  for (const Step& st : plan_->steps())
    border_floats_ = std::max(border_floats_, border_scratch_floats(st));
  border_ = ZeroedVector<float>(plan_->chunks() * border_floats_);
  if constexpr (asan_enabled()) {
    // Arena-slot lifetime enforcement: record, per physical slot, the last
    // step that touches it (the loop runs in step order, so each entry
    // ends at its maximum). All activation slots start poisoned; run_rows
    // unpoisons rows as their writer executes and re-poisons each slot the
    // moment its last toucher retires, so the arena is fully poisoned
    // between runs and a cross-lifetime read faults immediately. The conv
    // scratch past the slots stays unpoisoned: GEMMs legitimately read
    // their result region (beta accumulation) before first writing it.
    const auto& steps = plan_->steps();
    slot_last_touch_.assign(plan_->activation_slots() + 1, 0);
    for (size_t i = 0; i < steps.size(); ++i) {
      slot_last_touch_[steps[i].in] = i;
      slot_last_touch_[steps[i].out] = i;
    }
    // The final activation outlives the step list: run_rows copies it to
    // the caller's logit buffer after the last step.
    slot_last_touch_[steps.back().out] = steps.size();
    for (size_t s = 1; s <= plan_->activation_slots(); ++s)
      asan_poison(workspace_.data() + (s - 1) * plan_->slot_stride(),
                  plan_->slot_stride() * sizeof(float));
  }
}

void ExecContext::run_conv(const Step& st, const float* in, float* out,
                           size_t n) {
  // The batch partition is frozen in the Plan (chunks()), so results are
  // bit-identical for any runtime thread count; each chunk owns one im2col
  // + result scratch slice at the arena tail of THIS context.
  const Plan& p = *plan_;
  const size_t nch = std::min(p.step_chunks(st), n);
  const size_t chunk = (n + nch - 1) / nch;
  const size_t nchunks = (n + chunk - 1) / chunk;
  const float* bias = st.bias.empty() ? nullptr : st.bias.data();
  const ConvGeom& g = st.geom;
  const auto process = [&](size_t lo, size_t hi) {
        for (size_t ci = lo; ci < hi; ++ci) {
          const size_t i0 = ci * chunk;
          const size_t i1 = std::min(n, i0 + chunk);
          if (st.shift_gemm) {
            float* scratch = border_.data() + ci * border_floats_;
            for (size_t i = i0; i < i1; ++i)
              conv2d_image_shift(st, st.be, in + i * st.in_sz,
                                 out + i * st.out_sz, scratch);
            continue;
          }
          // Chunk-batched: unfold the chunk's images side by side, run one
          // GEMM + fused epilogue, then scatter the channel rows to NCHW.
          const size_t imgs = i1 - i0;
          const size_t cols = g.col_cols();
          const size_t ld = imgs * cols;
          float* col = workspace_.data() + p.col_offset() + ci * p.col_floats();
          float* res =
              workspace_.data() + p.result_offset() + ci * p.result_floats();
          if (st.quantized) {
            // Quantize the chunk's im2col matrix with one max-abs scale
            // PER IMAGE (image j owns columns [j*cols, (j+1)*cols)); the
            // scales depend only on image content, so the result is
            // independent of both the thread count and the chunk grid.
            // Then run the real int8 GEMM: int32 accumulate, float store.
            const size_t rows = g.col_rows();
            int8_t* qcol = qws_.data() + ci * p.col_floats();
            float* bscales = qbs_.data() + ci * 2 * p.qbs_stride();
            float* binv = bscales + p.qbs_stride();
            const float levels =
                static_cast<float>((1 << (st.qbits - 1)) - 1);
            // Provably non-negative inputs (post-ReLU) take the asymmetric
            // grid: zero-point at the bottom of the range, twice the
            // resolution of the symmetric grid on [0, max].
            const float span = st.in_nonneg ? 2.0f * levels : levels;
            const float zp = st.in_nonneg ? -levels : 0.0f;
            // Per-image dynamic range from the *input image*, not the col
            // matrix: every col entry is an input pixel or a padding zero,
            // so the image max always bounds the col max (it can exceed it
            // only when stride > kernel skips pixels — still a valid, just
            // coarser, grid). One contiguous scan of in_sz floats instead
            // of K*K times that over the unfolded matrix; this scan was
            // the hottest part of the int8 path. Knowing the scale before
            // unfolding also lets each image quantize right after its own
            // im2col, while the stripe is still cache-hot, instead of
            // re-reading the whole chunk's col matrix in a second pass.
            thread_local std::vector<float> imax;
            imax.resize(imgs);
            kernels::max_abs_col_blocks(in + i0 * st.in_sz, /*rows=*/1,
                                        /*ld=*/0, st.in_sz, imgs,
                                        imax.data());
            for (size_t j = 0; j < imgs; ++j) {
              const float scale = imax[j] > 0.0f ? imax[j] / span : 1.0f;
              for (size_t jj = j * cols; jj < (j + 1) * cols; ++jj) {
                bscales[jj] = scale;
                binv[jj] = 1.0f / scale;
              }
            }
            // Assemble and quantize the unfold ROW-major through a staging
            // buffer of one row (ld floats — L2-resident), instead of
            // materializing the full float col matrix: the float taps are
            // quantized while still in cache, so the only full-matrix
            // traffic is the int8 write.
            thread_local std::vector<float> rowbuf;
            rowbuf.resize(ld);
            size_t r = 0;
            for (size_t ch = 0; ch < g.in_c; ++ch)
              for (size_t kh = 0; kh < g.kernel; ++kh)
                for (size_t kw = 0; kw < g.kernel; ++kw, ++r) {
                  for (size_t j = 0; j < imgs; ++j)
                    unfold_row_view(in + (i0 + j) * st.in_sz, g, ch, kh, kw,
                                    rowbuf.data() + j * cols);
                  kernels::quantize_cols_i8(rowbuf.data(), qcol + r * ld, ld,
                                            binv, static_cast<int32_t>(zp),
                                            static_cast<int32_t>(levels));
                }
            kernels::QgemmParams params;
            params.a_scales = st.qw_scales.data();  // per-output-channel
            params.b_scales = bscales;              // per-image
            params.b_zp = static_cast<int32_t>(zp);
            st.be->qgemm(st.qw.data(), rows, qcol, ld, res, ld, st.out_c,
                         rows, ld, params);
          } else {
            for (size_t j = 0; j < imgs; ++j)
              im2col_view(in + (i0 + j) * st.in_sz, g, col + j * cols, ld);
            kernels::gemm_dispatch(st.be, st.tile, st.w.data(), g.col_rows(),
                                   false, col, ld, false, res, ld, st.out_c,
                                   g.col_rows(), ld, 1.0f, 0.0f);
          }
          bias_act_inplace(res, st.out_c, ld, bias, st.act);
          for (size_t j = 0; j < imgs; ++j)
            for (size_t o = 0; o < st.out_c; ++o)
              std::memcpy(out + (i0 + j) * st.out_sz + o * cols,
                          res + o * ld + j * cols, cols * sizeof(float));
        }
  };
  if (nchunks == 1) {
    // Single-chunk plans (batch <= threads at compile, or a 1-core host)
    // bypass the dispatcher entirely: no std::function conversion, so
    // run() performs zero heap allocations. Multi-chunk dispatch costs one
    // closure allocation per conv step.
    process(0, 1);
    return;
  }
  parallel_for_chunked(0, nchunks, process, /*min_per_worker=*/1);
}

void ExecContext::run(const Tensor& x, Tensor& out) {
  const Plan& p = *plan_;
  ALF_CHECK_EQ(x.rank(), size_t{4});
  const size_t n = x.dim(0);
  ALF_CHECK_EQ(x.dim(1), p.in_c());
  ALF_CHECK_EQ(x.dim(2), p.in_h());
  ALF_CHECK_EQ(x.dim(3), p.in_w());
  ALF_CHECK_EQ(out.rank(), size_t{2});
  ALF_CHECK_EQ(out.dim(0), n);
  ALF_CHECK_EQ(out.dim(1), p.classes());
  run_rows(x.data(), n, out.data());
}

void ExecContext::run_rows(const float* x, size_t n, float* out) {
  const Plan& p = *plan_;
  ALF_CHECK(x != nullptr && out != nullptr);
  ALF_CHECK(n >= 1 && n <= p.batch())
      << "engine compiled for batch <= " << p.batch() << ", got " << n;

  float* ws = workspace_.data();
  const size_t stride = p.slot_stride();
  const auto in_ptr = [&](const Step& st) -> const float* {
    return st.in == 0 ? x : ws + (st.in - 1) * stride;
  };
  const auto out_ptr = [&](const Step& st) -> float* {
    return ws + (st.out - 1) * stride;
  };

  for (size_t si = 0; si < p.steps().size(); ++si) {
    const Step& st = p.steps()[si];
    const float* src = in_ptr(st);
    float* dst = out_ptr(st);
    // Open exactly the rows this step writes; the rest of the slot (unused
    // batch tail included) stays poisoned, so partial-batch overreads
    // fault too. For kAdd the destination rows are already open — its
    // producer unpoisoned them — and the unpoison is idempotent.
    if constexpr (asan_enabled())
      asan_unpoison(dst, n * st.out_sz * sizeof(float));
    switch (st.kind) {
      case OpKind::kConv:
        run_conv(st, src, dst, n);
        break;
      case OpKind::kLinear: {
        if (st.quantized) {
          // Dynamic per-image input quantization into the int8 scratch
          // (conv chunks are done by the time the head runs, so the
          // buffer is free), then qgemm against the pre-transposed weight
          // panel. One scale per batch row keeps every image's grid tight.
          const float levels = static_cast<float>((1 << (st.qbits - 1)) - 1);
          const float span = st.in_nonneg ? 2.0f * levels : levels;
          const float zp = st.in_nonneg ? -levels : 0.0f;
          float* ascales = qbs_.data();
          for (size_t i = 0; i < n; ++i) {
            const float* row = src + i * st.in_features;
            const float amax = max_abs_view(row, st.in_features);
            const float scale = amax > 0.0f ? amax / span : 1.0f;
            const float inv = 1.0f / scale;
            ascales[i] = scale;
            int8_t* qrow = qws_.data() + i * st.in_features;
            kernels::quantize_row_i8(row, qrow, st.in_features, inv,
                                     static_cast<int32_t>(zp),
                                     static_cast<int32_t>(levels));
          }
          kernels::QgemmParams params;
          params.a_scales = ascales;              // per-image
          params.b_scales = st.qw_scales.data();  // per-output-feature
          params.a_zp = static_cast<int32_t>(zp);
          st.be->qgemm(qws_.data(), st.in_features, st.qw.data(),
                       st.out_features, dst, st.out_features, n,
                       st.in_features, st.out_features, params);
          const float* b = st.bias.empty() ? nullptr : st.bias.data();
          if (b != nullptr) {
            for (size_t i = 0; i < n; ++i) {
              float* row = dst + i * st.out_features;
              for (size_t j = 0; j < st.out_features; ++j) row[j] += b[j];
            }
          }
          act_inplace(st.act, dst, n * st.out_features);
        } else {
          linear_forward_view(src, n, st.in_features, st.w.data(),
                              st.out_features,
                              st.bias.empty() ? nullptr : st.bias.data(),
                              st.act, dst, st.be);
        }
        break;
      }
      case OpKind::kGlobalAvgPool:
        global_avg_pool_view(src, n, st.geom.in_c,
                             st.geom.in_h * st.geom.in_w, dst);
        act_inplace(st.act, dst, n * st.out_sz);
        break;
      case OpKind::kMaxPool:
        maxpool_view(src, n, st.geom.in_c, st.geom.in_h, st.geom.in_w,
                     st.window, dst, /*argmax=*/nullptr);
        act_inplace(st.act, dst, n * st.out_sz);
        break;
      case OpKind::kAdd: {
        const size_t total = n * st.out_sz;
        if (st.act == Act::kRelu) {
          // The residual hot path: merge + block ReLU in one pass.
          for (size_t i = 0; i < total; ++i) {
            const float v = dst[i] + src[i];
            dst[i] = v > 0.0f ? v : 0.0f;
          }
        } else {
          for (size_t i = 0; i < total; ++i) dst[i] += src[i];
          act_inplace(st.act, dst, total);
        }
        break;
      }
      case OpKind::kScaleShift: {
        const size_t hw = st.geom.in_h * st.geom.in_w;
        for (size_t i = 0; i < n; ++i) {
          for (size_t ch = 0; ch < st.out_c; ++ch) {
            const float s = st.scale.at(ch), b = st.shift.at(ch);
            const float* pp = src + (i * st.out_c + ch) * hw;
            float* q = dst + (i * st.out_c + ch) * hw;
            for (size_t j = 0; j < hw; ++j) q[j] = pp[j] * s + b;
          }
        }
        act_inplace(st.act, dst, n * st.out_sz);
        break;
      }
      case OpKind::kActivation: {
        const size_t total = n * st.out_sz;
        std::memcpy(dst, src, total * sizeof(float));
        act_inplace(st.act, dst, total);
        break;
      }
    }
    // Kill slots whose last toucher just retired: any later read of them
    // is a lifetime bug and now faults as use-after-poison.
    if constexpr (asan_enabled()) {
      if (st.in != 0 && slot_last_touch_[st.in] == si)
        asan_poison(ws + (st.in - 1) * stride, stride * sizeof(float));
      if (slot_last_touch_[st.out] == si)
        asan_poison(ws + (st.out - 1) * stride, stride * sizeof(float));
    }
  }
  const Step& last = p.steps().back();
  std::memcpy(out, ws + (last.out - 1) * stride,
              n * p.classes() * sizeof(float));
  // The logits are delivered; the final slot dies too, restoring the
  // fully-poisoned between-runs state the constructor established.
  if constexpr (asan_enabled())
    asan_poison(ws + (last.out - 1) * stride, stride * sizeof(float));
}

Tensor ExecContext::run(const Tensor& x) {
  Tensor out({x.dim(0), plan_->classes()});
  run(x, out);
  return out;
}

}  // namespace alf
