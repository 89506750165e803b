// ExecContext: the mutable half of the compiled-model split (see plan.hpp).
//
// One ExecContext is everything a single in-flight batch needs that a Plan
// deliberately does not own: the activation arena, the per-chunk im2col,
// GEMM-result and shifted-GEMM border scratch, and (for quantized plans)
// the int8 activation and per-image scale scratch. Construction is cheap —
// a handful of zero-filled-on-demand allocations sized by the Plan's
// layout, no weight copies, no page touched — so a serving worker pool
// hands one context per hosted plan to every worker and runs N batches of
// the same compiled model concurrently.
//
// Concurrency contract: a context is single-threaded (one run at a time;
// the run itself may fan out over the process worker pool exactly as
// before), but any number of contexts may run the SAME Plan from different
// threads simultaneously — runs read the Plan and write only their own
// context, and the kernel backends keep per-thread scratch only. Results
// are bit-identical across contexts, thread counts, and batch packings:
// the chunk grid is frozen in the Plan and every per-image quantization
// scale depends only on image content.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/plan.hpp"

namespace alf {

/// Allocator of the context's scratch arenas: storage comes from calloc
/// and value-initialization is a no-op, so `std::vector<T,
/// ZeroedAllocator<T>> v(n)` reads as zeros without writing them. For
/// arena-sized requests calloc maps fresh zero pages and skips the memset,
/// so a page is faulted in only when a run first touches it — a context
/// costs address space, not resident memory, until it is used. Only a
/// fresh allocation is zero: growing a vector that was shrunk would
/// expose stale elements, so the context sizes each arena exactly once.
template <class T>
struct ZeroedAllocator {
  static_assert(std::is_trivially_default_constructible_v<T>);
  using value_type = T;

  ZeroedAllocator() = default;
  template <class U>
  ZeroedAllocator(const ZeroedAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    void* p = std::calloc(n, sizeof(T));
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, size_t) noexcept { std::free(p); }

  /// Value-initialization: the bytes are already zero.
  template <class U>
  void construct(U*) noexcept {}
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <class U>
  bool operator==(const ZeroedAllocator<U>&) const noexcept {
    return true;
  }
};

template <class T>
using ZeroedVector = std::vector<T, ZeroedAllocator<T>>;

class ExecContext {
 public:
  /// Allocates arena + scratch for `plan` (shared, kept alive by the
  /// context). All storage is allocated here, never during run.
  explicit ExecContext(std::shared_ptr<const Plan> plan);

  ExecContext(ExecContext&&) = default;
  ExecContext& operator=(ExecContext&&) = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// Executes the plan on x [n, Ci, H, W] with n <= plan().batch(); writes
  /// the logits into `out` [n, classes] (preallocated by the caller).
  /// Performs zero heap allocations when the batch runs as a single chunk.
  void run(const Tensor& x, Tensor& out);

  /// Convenience overload that allocates the output tensor.
  Tensor run(const Tensor& x);

  /// Raw row-range form of run(): executes the plan on the first `n` images
  /// at `x` (n * image_floats() floats, NCHW) and writes n * classes()
  /// logit floats to `out`. No shape objects are consulted, so a caller can
  /// pack several requests into contiguous rows of one preallocated buffer
  /// and serve a partial batch without reshaping tensors — this is the
  /// serving dispatch path. Pointer extents are the caller's contract; n is
  /// checked against the compiled batch.
  void run_rows(const float* x, size_t n, float* out);

  const Plan& plan() const { return *plan_; }
  const std::shared_ptr<const Plan>& plan_ptr() const { return plan_; }

  /// Total arena floats (activation slots + im2col scratch).
  size_t workspace_floats() const { return workspace_.size(); }
  /// Arena base pointer; stable across run() calls (tests assert no growth).
  const float* workspace_data() const { return workspace_.data(); }

 private:
  /// Executes one batched conv step (fixed compile-time chunk grid).
  void run_conv(const Step& st, const float* in, float* out, size_t n);

  std::shared_ptr<const Plan> plan_;
  ZeroedVector<float> workspace_;
  ZeroedVector<int8_t> qws_;  ///< int8 activation scratch (quantized plans)
  ZeroedVector<float> qbs_;   ///< per-image scale/inverse scratch (2 slices
                              ///< of Plan::qbs_stride() per chunk)
  /// Shifted-GEMM border-repair scratch, one slice of border_floats_ per
  /// chunk: the gathered edge-column taps [Ci*K*K, 2*pad*H] followed by
  /// their GEMM result [Co, 2*pad*H]. Sized from the plan's steps.
  ZeroedVector<float> border_;
  size_t border_floats_ = 0;
  /// ASan builds only (core/asan.hpp): index of the last step that reads
  /// or writes each arena slot (entry 0 = the external input, unused; the
  /// final step's output extends to steps().size() — the logit copy reads
  /// it). run_rows poisons a slot the moment its last toucher retires and
  /// unpoisons exactly the rows a step is about to write, so a kernel
  /// reading a DEAD slot — stale activations the allocator recycled —
  /// faults as use-after-poison instead of silently producing numbers.
  /// Empty in uninstrumented builds.
  std::vector<size_t> slot_last_touch_;
};

}  // namespace alf
