#include "nn/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/kernels.hpp"
#include "nn/pool.hpp"

namespace rnx::nn {

// Forward-pass outputs and backward-saved activations come from the
// thread-local TensorPool rather than fresh allocations: every op output
// buffer returns to the pool when its tape node dies (see Node::~Node),
// so a steady-state training step runs allocation-free.  The elementwise
// ops are single-pass through the dispatched kernel backend — add used
// to materialize a full copy of `a` and then fix it up in a second pass.

namespace {
void check_same_shape(const Var& a, const Var& b, const char* what) {
  if (!a.value().same_shape(b.value()))
    throw std::invalid_argument(std::string(what) + ": shape mismatch");
}

/// Pool-backed deep copy (backward-saved activations).
Tensor pooled_copy(const Tensor& src) {
  Tensor dst = TensorPool::acquire_uninit(src.rows(), src.cols());
  const auto s = src.flat();
  std::copy(s.begin(), s.end(), dst.flat().begin());
  return dst;
}
}  // namespace

Var constant(Tensor t) { return Var(std::move(t), /*requires_grad=*/false); }

Var add(const Var& a, const Var& b) {
  check_same_shape(a, b, "add");
  Tensor y = TensorPool::acquire_uninit(a.rows(), a.cols());
  kernels::active().vadd(y.flat().data(), a.value().flat().data(),
                         b.value().flat().data(), y.size());
  if (grad_disabled()) return Var(std::move(y));
  return Var::make(std::move(y), {a, b},
                   [a = Var(a), b = Var(b)](const Tensor& g) mutable {
                     if (a.requires_grad()) a.grad_ref().add_inplace(g);
                     if (b.requires_grad()) b.grad_ref().add_inplace(g);
                   });
}

Var mul(const Var& a, const Var& b) {
  check_same_shape(a, b, "mul");
  Tensor y = TensorPool::acquire_uninit(a.rows(), a.cols());
  kernels::active().vmul(y.flat().data(), a.value().flat().data(),
                         b.value().flat().data(), y.size());
  if (grad_disabled()) return Var(std::move(y));
  return Var::make(
      std::move(y), {a, b}, [a = Var(a), b = Var(b)](const Tensor& g) mutable {
        if (a.requires_grad())
          kernels::active().vmacc(a.grad_ref().flat().data(), g.flat().data(),
                                  b.value().flat().data(), g.size());
        if (b.requires_grad())
          kernels::active().vmacc(b.grad_ref().flat().data(), g.flat().data(),
                                  a.value().flat().data(), g.size());
      });
}

Var matmul(const Var& a, const Var& b) {
  if (a.cols() != b.rows())
    throw std::invalid_argument("matmul: inner dim mismatch");
  Tensor y = TensorPool::acquire(a.rows(), b.cols());
  matmul_acc(y, a.value(), b.value());
  return Var::make(
      std::move(y), {a, b}, [a = Var(a), b = Var(b)](const Tensor& g) mutable {
        if (a.requires_grad()) matmul_nt_acc(a.grad_ref(), g, b.value());
        if (b.requires_grad()) matmul_tn_acc(b.grad_ref(), a.value(), g);
      });
}

Var add_bias(const Var& a, const Var& bias) {
  if (bias.rows() != 1 || bias.cols() != a.cols())
    throw std::invalid_argument("add_bias: bias must be 1 x cols(a)");
  Tensor y = TensorPool::acquire_uninit(a.rows(), a.cols());
  const auto& backend = kernels::active();
  const double* bv = bias.value().flat().data();
  const std::size_t cols = a.cols();
  for (std::size_t r = 0; r < y.rows(); ++r)
    backend.vadd(y.row(r).data(), a.value().row(r).data(), bv, cols);
  if (grad_disabled()) return Var(std::move(y));
  return Var::make(std::move(y), {a, bias},
                   [a = Var(a), bias = Var(bias)](const Tensor& g) mutable {
                     if (a.requires_grad()) a.grad_ref().add_inplace(g);
                     if (bias.requires_grad()) {
                       double* bg = bias.grad_ref().flat().data();
                       const auto& bk = kernels::active();
                       for (std::size_t r = 0; r < g.rows(); ++r)
                         bk.vadd(bg, bg, g.row(r).data(), g.cols());
                     }
                   });
}

Var sigmoid(const Var& a) {
  Tensor y = TensorPool::acquire_uninit(a.rows(), a.cols());
  kernels::active().vsigmoid(y.flat().data(), a.value().flat().data(),
                             y.size());
  if (grad_disabled() || !a.requires_grad()) return Var(std::move(y));
  Tensor ycopy = pooled_copy(y);  // for the backward: dy/dx = y(1-y)
  return Var::make(
      std::move(y), {a},
      [a = Var(a), ycopy = std::move(ycopy)](const Tensor& g) mutable {
        auto ag = a.grad_ref().flat();
        const auto gv = g.flat();
        const auto yv2 = ycopy.flat();
        for (std::size_t i = 0; i < gv.size(); ++i)
          ag[i] += gv[i] * yv2[i] * (1.0 - yv2[i]);
      });
}

Var tanh_op(const Var& a) {
  Tensor y = TensorPool::acquire_uninit(a.rows(), a.cols());
  kernels::active().vtanh(y.flat().data(), a.value().flat().data(), y.size());
  if (grad_disabled() || !a.requires_grad()) return Var(std::move(y));
  Tensor ycopy = pooled_copy(y);
  return Var::make(
      std::move(y), {a},
      [a = Var(a), ycopy = std::move(ycopy)](const Tensor& g) mutable {
        auto ag = a.grad_ref().flat();
        const auto gv = g.flat();
        const auto yv2 = ycopy.flat();
        for (std::size_t i = 0; i < gv.size(); ++i)
          ag[i] += gv[i] * (1.0 - yv2[i] * yv2[i]);
      });
}

Var relu(const Var& a) {
  Tensor y = TensorPool::acquire_uninit(a.rows(), a.cols());
  kernels::active().vrelu(y.flat().data(), a.value().flat().data(), y.size());
  return Var::make(std::move(y), {a}, [a = Var(a)](const Tensor& g) mutable {
    if (!a.requires_grad()) return;
    auto ag = a.grad_ref().flat();
    const auto gv = g.flat();
    const auto av2 = a.value().flat();
    for (std::size_t i = 0; i < gv.size(); ++i)
      if (av2[i] > 0.0) ag[i] += gv[i];
  });
}

Var softplus(const Var& a) {
  Tensor y = TensorPool::acquire_uninit(a.rows(), a.cols());
  const auto av = a.value().flat();
  auto yv = y.flat();
  for (std::size_t i = 0; i < yv.size(); ++i) {
    // Numerically stable: log(1+e^x) = max(x,0) + log1p(e^{-|x|}).
    yv[i] = std::max(av[i], 0.0) + std::log1p(std::exp(-std::abs(av[i])));
  }
  return Var::make(std::move(y), {a}, [a = Var(a)](const Tensor& g) mutable {
    if (!a.requires_grad()) return;
    auto ag = a.grad_ref().flat();
    const auto gv = g.flat();
    const auto av2 = a.value().flat();
    for (std::size_t i = 0; i < gv.size(); ++i)
      ag[i] += gv[i] / (1.0 + std::exp(-av2[i]));
  });
}

namespace {

// Value halves of the graph-plumbing ops.  Every shape and range check
// lives here, so the NoGrad span paths (no index copy, no closure)
// check exactly what the taped paths do.

Tensor gathered(const Var& a, std::span<const Index> idx) {
  for (const Index i : idx)
    if (i >= a.rows())
      throw std::out_of_range("gather_rows: index out of range");
  Tensor y = TensorPool::acquire_uninit(idx.size(), a.cols());
  for (std::size_t r = 0; r < idx.size(); ++r) {
    const auto src = a.value().row(idx[r]);
    std::copy(src.begin(), src.end(), y.row(r).begin());
  }
  return y;
}

Tensor segment_summed(const Var& a, std::span<const Index> seg,
                      std::size_t num_segments) {
  if (seg.size() != a.rows())
    throw std::invalid_argument("segment_sum: one segment id per row");
  for (const Index s : seg)
    if (s >= num_segments)
      throw std::out_of_range("segment_sum: segment id out of range");
  Tensor y = TensorPool::acquire(num_segments, a.cols());
  for (std::size_t r = 0; r < seg.size(); ++r) {
    auto dst = y.row(seg[r]);
    const auto src = a.value().row(r);
    for (std::size_t c = 0; c < dst.size(); ++c) dst[c] += src[c];
  }
  return y;
}

}  // namespace

Var gather_rows(const Var& a, std::vector<Index> idx) {
  Tensor y = gathered(a, idx);
  if (grad_disabled()) return Var(std::move(y));
  return Var::make(std::move(y), {a},
                   [a = Var(a), idx = std::move(idx)](const Tensor& g) mutable {
                     if (!a.requires_grad()) return;
                     Tensor& ag = a.grad_ref();
                     for (std::size_t r = 0; r < idx.size(); ++r) {
                       auto dst = ag.row(idx[r]);
                       const auto src = g.row(r);
                       for (std::size_t c = 0; c < dst.size(); ++c)
                         dst[c] += src[c];
                     }
                   });
}

Var segment_sum(const Var& a, std::vector<Index> seg,
                std::size_t num_segments) {
  Tensor y = segment_summed(a, seg, num_segments);
  if (grad_disabled()) return Var(std::move(y));
  return Var::make(std::move(y), {a},
                   [a = Var(a), seg = std::move(seg)](const Tensor& g) mutable {
                     if (!a.requires_grad()) return;
                     Tensor& ag = a.grad_ref();
                     for (std::size_t r = 0; r < seg.size(); ++r) {
                       auto dst = ag.row(r);
                       const auto src = g.row(seg[r]);
                       for (std::size_t c = 0; c < dst.size(); ++c)
                         dst[c] += src[c];
                     }
                   });
}

Var gather_rows(const Var& a, std::span<const Index> idx) {
  if (grad_disabled()) return Var(gathered(a, idx));
  return gather_rows(a, std::vector<Index>(idx.begin(), idx.end()));
}

Var segment_sum(const Var& a, std::span<const Index> seg,
                std::size_t num_segments) {
  if (grad_disabled()) return Var(segment_summed(a, seg, num_segments));
  return segment_sum(a, std::vector<Index>(seg.begin(), seg.end()),
                     num_segments);
}

Var mse_loss(const Var& pred, const Tensor& target) {
  if (!pred.value().same_shape(target))
    throw std::invalid_argument("mse_loss: shape mismatch");
  const auto pv = pred.value().flat();
  const auto tv = target.flat();
  const auto n = static_cast<double>(pv.size());
  double s = 0.0;
  for (std::size_t i = 0; i < pv.size(); ++i) {
    const double e = pv[i] - tv[i];
    s += e * e;
  }
  return Var::make(Tensor::scalar(s / n), {pred},
                   [pred = Var(pred), target, n](const Tensor& g) mutable {
                     if (!pred.requires_grad()) return;
                     const double gs = g(0, 0) / n;
                     auto pg = pred.grad_ref().flat();
                     const auto pv2 = pred.value().flat();
                     const auto tv2 = target.flat();
                     for (std::size_t i = 0; i < pg.size(); ++i)
                       pg[i] += gs * (2.0 * (pv2[i] - tv2[i]));
                   });
}

}  // namespace rnx::nn
