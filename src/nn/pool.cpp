#include "nn/pool.hpp"

#include <utility>
#include <vector>

namespace rnx::nn {

namespace {
// A small free list of raw buffers, searched best-fit: a request takes
// the smallest parked buffer whose capacity holds it, so one tape's mix
// of shapes (from 1 x H bias grads to the training forward's saved-
// activation arena) recycles without small requests pinning large
// buffers or large requests regrowing small ones.  Capacity is bounded
// so a one-off huge matrix does not pin memory forever; sized to absorb
// the burst of buffers a tape teardown releases (every op output returns
// here via Node::~Node) so the next step's forward draws from the pool.
constexpr std::size_t kMaxPooled = 64;

std::vector<AlignedVec>& free_list() noexcept {
  thread_local std::vector<AlignedVec> list;
  return list;
}

/// The parked buffer that best fits n elements, moved out of the list;
/// an empty vector when none is large enough.
AlignedVec take_best_fit(std::size_t n) {
  auto& list = free_list();
  std::size_t best = list.size();
  for (std::size_t i = 0; i < list.size(); ++i)
    if (list[i].capacity() >= n &&
        (best == list.size() || list[i].capacity() < list[best].capacity()))
      best = i;
  if (best == list.size()) return {};
  AlignedVec buf = std::move(list[best]);
  list[best] = std::move(list.back());
  list.pop_back();
  return buf;
}
}  // namespace

Tensor TensorPool::acquire(std::size_t rows, std::size_t cols) {
  const std::size_t n = rows * cols;
  AlignedVec buf = n == 0 ? AlignedVec() : take_best_fit(n);
  if (buf.capacity() == 0) return Tensor(rows, cols);
  buf.assign(n, 0.0);  // resize + zero, keeping capacity
  return Tensor(rows, cols, std::move(buf));
}

Tensor TensorPool::acquire_uninit(std::size_t rows, std::size_t cols) {
  const std::size_t n = rows * cols;
  AlignedVec buf = n == 0 ? AlignedVec() : take_best_fit(n);
  if (buf.capacity() == 0) return Tensor(rows, cols);
  buf.resize(n);  // no fill: caller overwrites every element
  return Tensor(rows, cols, std::move(buf));
}

void TensorPool::release(Tensor&& t) {
  if (t.empty()) return;
  auto& list = free_list();
  if (list.size() >= kMaxPooled) return;  // let it deallocate
  list.push_back(std::move(t).take_buffer());
}

std::size_t TensorPool::pooled_count() noexcept { return free_list().size(); }

void TensorPool::drain() noexcept { free_list().clear(); }

}  // namespace rnx::nn
