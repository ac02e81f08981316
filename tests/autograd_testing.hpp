// Test-only autograd: central-difference gradient checking and the ops
// that only tests build graphs from.  No src/ path calls any of these;
// the training and inference forwards use the ops in nn/ops.hpp.  They
// live in rnx::nn, next to the ops they compose with, so test code
// reaches them the same way (nn::op, `using namespace`, or ADL on Var).
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/autograd.hpp"
#include "nn/kernels.hpp"
#include "nn/ops.hpp"
#include "nn/pool.hpp"

namespace rnx::nn {

// ---- central-difference gradient check -----------------------------------

struct GradCheckReport {
  double max_abs_err = 0.0;
  /// |analytic - numeric| / max(1, |analytic|, |numeric|)
  double max_rel_err = 0.0;
  std::size_t entries = 0;

  [[nodiscard]] bool ok(double tol = 1e-6) const noexcept {
    return max_rel_err <= tol;
  }
};

/// For a scalar loss rebuilt by `loss_fn` on each call (reading the
/// current values of `params`), compare the analytic gradient from one
/// reverse sweep entry by entry against
/// (L(theta + eps e_i) - L(theta - eps e_i)) / 2 eps.
[[nodiscard]] inline GradCheckReport grad_check(
    const std::function<Var()>& loss_fn, std::vector<Var>& params,
    double eps = 1e-5) {
  for (auto& p : params) p.zero_grad();
  Var loss = loss_fn();
  loss.backward();
  std::vector<Tensor> analytic;
  analytic.reserve(params.size());
  for (auto& p : params) analytic.push_back(p.grad());

  GradCheckReport rep;
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Tensor& w = params[pi].mutable_value();
    for (std::size_t i = 0; i < w.size(); ++i) {
      const double orig = w.flat()[i];
      w.flat()[i] = orig + eps;
      const double lp = loss_fn().value().item();
      w.flat()[i] = orig - eps;
      const double lm = loss_fn().value().item();
      w.flat()[i] = orig;
      const double numeric = (lp - lm) / (2.0 * eps);
      const double exact = analytic[pi].flat()[i];
      const double abs_err = std::abs(numeric - exact);
      const double rel_err =
          abs_err / std::max({1.0, std::abs(numeric), std::abs(exact)});
      rep.max_abs_err = std::max(rep.max_abs_err, abs_err);
      rep.max_rel_err = std::max(rep.max_rel_err, rel_err);
      ++rep.entries;
    }
  }
  return rep;
}

// ---- elementwise -----------------------------------------------------------

[[nodiscard]] inline Var sub(const Var& a, const Var& b) {
  if (!a.value().same_shape(b.value()))
    throw std::invalid_argument("sub: shape mismatch");
  Tensor y = TensorPool::acquire_uninit(a.rows(), a.cols());
  kernels::active().vsub(y.flat().data(), a.value().flat().data(),
                         b.value().flat().data(), y.size());
  return Var::make(std::move(y), {a, b},
                   [a = Var(a), b = Var(b)](const Tensor& g) mutable {
                     if (a.requires_grad()) a.grad_ref().add_inplace(g);
                     if (b.requires_grad()) b.grad_ref().axpy_inplace(-1.0, g);
                   });
}

/// alpha * a + beta (elementwise); one_minus(x) == affine(x, -1, 1).
[[nodiscard]] inline Var affine(const Var& a, double alpha, double beta) {
  Tensor y = TensorPool::acquire_uninit(a.rows(), a.cols());
  kernels::active().vaffine(y.flat().data(), a.value().flat().data(), alpha,
                            beta, y.size());
  return Var::make(std::move(y), {a},
                   [a = Var(a), alpha](const Tensor& g) mutable {
                     if (a.requires_grad()) a.grad_ref().axpy_inplace(alpha, g);
                   });
}

[[nodiscard]] inline Var scale(const Var& a, double c) {
  return affine(a, c, 0.0);
}

// ---- graph plumbing --------------------------------------------------------

/// out = copy(base); out[idx[i]] = rows[i].  Indices must be distinct
/// (throws std::invalid_argument otherwise).
[[nodiscard]] inline Var scatter_rows(const Var& base,
                                      std::span<const Index> idx,
                                      const Var& rows) {
  if (rows.rows() != idx.size() || rows.cols() != base.cols())
    throw std::invalid_argument("scatter_rows: rows shape mismatch");
  std::vector<char> seen(base.rows(), 0);
  for (const Index i : idx) {
    if (i >= base.rows())
      throw std::out_of_range("scatter_rows: index out of range");
    if (seen[i]) throw std::invalid_argument("scatter_rows: duplicate index");
    seen[i] = 1;
  }
  Tensor y = TensorPool::acquire_uninit(base.rows(), base.cols());
  std::copy(base.value().flat().begin(), base.value().flat().end(),
            y.flat().begin());
  for (std::size_t r = 0; r < idx.size(); ++r) {
    const auto src = rows.value().row(r);
    std::copy(src.begin(), src.end(), y.row(idx[r]).begin());
  }
  if (grad_disabled()) return Var(std::move(y));
  return Var::make(
      std::move(y), {base, rows},
      [base = Var(base), rows = Var(rows),
       idx = std::vector<Index>(idx.begin(), idx.end()),
       seen = std::move(seen)](const Tensor& g) mutable {
        if (base.requires_grad()) {
          Tensor& bg = base.grad_ref();
          for (std::size_t r = 0; r < g.rows(); ++r) {
            if (seen[r]) continue;  // overwritten rows get no base grad
            auto dst = bg.row(r);
            const auto src = g.row(r);
            for (std::size_t c = 0; c < dst.size(); ++c) dst[c] += src[c];
          }
        }
        if (rows.requires_grad()) {
          Tensor& rg = rows.grad_ref();
          for (std::size_t r = 0; r < idx.size(); ++r) {
            auto dst = rg.row(r);
            const auto src = g.row(idx[r]);
            for (std::size_t c = 0; c < dst.size(); ++c) dst[c] += src[c];
          }
        }
      });
}

[[nodiscard]] inline Var scatter_rows(const Var& base,
                                      const std::vector<Index>& idx,
                                      const Var& rows) {
  return scatter_rows(base, std::span<const Index>(idx), rows);
}

/// [a | b] column concatenation (same row count).
[[nodiscard]] inline Var concat_cols(const Var& a, const Var& b) {
  if (a.rows() != b.rows())
    throw std::invalid_argument("concat_cols: row count mismatch");
  const std::size_t ca = a.cols(), cb = b.cols();
  Tensor y = TensorPool::acquire_uninit(a.rows(), ca + cb);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    const auto ra = a.value().row(r);
    const auto rb = b.value().row(r);
    auto ry = y.row(r);
    std::copy(ra.begin(), ra.end(), ry.begin());
    std::copy(rb.begin(), rb.end(),
              ry.begin() + static_cast<std::ptrdiff_t>(ca));
  }
  return Var::make(std::move(y), {a, b},
                   [a = Var(a), b = Var(b), ca, cb](const Tensor& g) mutable {
                     for (std::size_t r = 0; r < g.rows(); ++r) {
                       const auto gr = g.row(r);
                       if (a.requires_grad()) {
                         auto dst = a.grad_ref().row(r);
                         for (std::size_t c = 0; c < ca; ++c) dst[c] += gr[c];
                       }
                       if (b.requires_grad()) {
                         auto dst = b.grad_ref().row(r);
                         for (std::size_t c = 0; c < cb; ++c)
                           dst[c] += gr[ca + c];
                       }
                     }
                   });
}

// ---- reductions and losses -------------------------------------------------

[[nodiscard]] inline Var sum_all(const Var& a) {  ///< 1x1
  double s = 0.0;
  for (const double x : a.value().flat()) s += x;
  return Var::make(Tensor::scalar(s), {a},
                   [a = Var(a)](const Tensor& g) mutable {
                     if (!a.requires_grad()) return;
                     const double gs = g(0, 0);
                     for (auto& x : a.grad_ref().flat()) x += gs;
                   });
}

[[nodiscard]] inline Var mean_all(const Var& a) {  ///< 1x1
  return scale(sum_all(a), 1.0 / static_cast<double>(a.value().size()));
}

/// Mean absolute error against a constant target (same shape).
[[nodiscard]] inline Var mae_loss(const Var& pred, const Tensor& target) {
  if (!pred.value().same_shape(target))
    throw std::invalid_argument("mae_loss: shape mismatch");
  const auto pv = pred.value().flat();
  const auto tv = target.flat();
  const auto n = static_cast<double>(pv.size());
  double s = 0.0;
  for (std::size_t i = 0; i < pv.size(); ++i) s += std::abs(pv[i] - tv[i]);
  return Var::make(Tensor::scalar(s / n), {pred},
                   [pred = Var(pred), target, n](const Tensor& g) mutable {
                     if (!pred.requires_grad()) return;
                     const double gs = g(0, 0) / n;
                     auto pg = pred.grad_ref().flat();
                     const auto pv2 = pred.value().flat();
                     const auto tv2 = target.flat();
                     for (std::size_t i = 0; i < pg.size(); ++i) {
                       const double e = pv2[i] - tv2[i];
                       pg[i] += gs * (e > 0.0 ? 1.0 : (e < 0.0 ? -1.0 : 0.0));
                     }
                   });
}

/// Huber loss with threshold delta (> 0).
[[nodiscard]] inline Var huber_loss(const Var& pred, const Tensor& target,
                                    double delta = 1.0) {
  if (delta <= 0.0) throw std::invalid_argument("huber_loss: delta <= 0");
  if (!pred.value().same_shape(target))
    throw std::invalid_argument("huber_loss: shape mismatch");
  const auto pv = pred.value().flat();
  const auto tv = target.flat();
  const auto n = static_cast<double>(pv.size());
  double s = 0.0;
  for (std::size_t i = 0; i < pv.size(); ++i) {
    const double e = std::abs(pv[i] - tv[i]);
    s += e <= delta ? 0.5 * e * e : delta * (e - 0.5 * delta);
  }
  return Var::make(
      Tensor::scalar(s / n), {pred},
      [pred = Var(pred), target, delta, n](const Tensor& g) mutable {
        if (!pred.requires_grad()) return;
        const double gs = g(0, 0) / n;
        auto pg = pred.grad_ref().flat();
        const auto pv2 = pred.value().flat();
        const auto tv2 = target.flat();
        for (std::size_t i = 0; i < pg.size(); ++i)
          pg[i] += gs * std::clamp(pv2[i] - tv2[i], -delta, delta);
      });
}

}  // namespace rnx::nn
