// Free-list tensor pool for backprop scratch space.
//
// One GRU step used to allocate ~15 tape tensors; the projected split
// cuts that to a handful of gate and saved-activation buffers whose
// shapes repeat every step.  The pool recycles those buffers through a
// small thread-local free list, searched best-fit, so the hot training
// loop stops hitting the allocator (DESIGN.md S3).
//
// Thread-local by construction: each trainer lane has its own list, so
// acquire/release need no synchronization and recycled buffers never
// migrate between threads.
#pragma once

#include <cstddef>

#include "nn/tensor.hpp"

namespace rnx::nn {

class TensorPool {
 public:
  /// A rows x cols tensor, zero-filled, backed by a recycled buffer when
  /// one is available on this thread's free list.
  [[nodiscard]] static Tensor acquire(std::size_t rows, std::size_t cols);

  /// As acquire(), but with unspecified contents — for buffers every
  /// element of which the caller overwrites before reading (gate panels,
  /// concatenation scratch).  Skips the zero-fill pass on reuse.
  [[nodiscard]] static Tensor acquire_uninit(std::size_t rows,
                                             std::size_t cols);

  /// Return a tensor's buffer to this thread's free list.  The tensor is
  /// left empty; releasing an empty tensor is a no-op.
  static void release(Tensor&& t);

  /// Buffers currently parked on this thread's free list (tests).
  [[nodiscard]] static std::size_t pooled_count() noexcept;

  /// Drop this thread's free list (tests / memory pressure).
  static void drain() noexcept;
};

}  // namespace rnx::nn
