// The GRU cell written op by op: the oracle nn::GRUCell::step's fused
// kernel is pinned against (tests/gru_fused_test.cpp).  Same function,
// ~15 tape nodes instead of one, backward derived by autograd.
#pragma once

#include <stdexcept>

#include "autograd_testing.hpp"
#include "nn/gru.hpp"
#include "nn/ops.hpp"

namespace rnx::test {

/// h' = (1 - z) .* n + z .* h with the PyTorch gate convention of
/// nn/gru.hpp, reading the weights through cell.named_params() (order
/// wxz, whz, bz, wxr, whr, br, wxn, whn, bn).
[[nodiscard]] inline nn::Var gru_step_composed(const nn::GRUCell& cell,
                                               const nn::Var& x,
                                               const nn::Var& h) {
  if (x.cols() != cell.input_dim() || h.cols() != cell.hidden_dim() ||
      x.rows() != h.rows())
    throw std::invalid_argument("gru_step_composed: shape mismatch");
  using nn::Var;  // the ops below resolve by argument-dependent lookup
  const auto p = cell.named_params();
  const Var &wxz = p[0].second, &whz = p[1].second, &bz = p[2].second;
  const Var &wxr = p[3].second, &whr = p[4].second, &br = p[5].second;
  const Var &wxn = p[6].second, &whn = p[7].second, &bn = p[8].second;
  const Var z = sigmoid(add_bias(add(matmul(x, wxz), matmul(h, whz)), bz));
  const Var r = sigmoid(add_bias(add(matmul(x, wxr), matmul(h, whr)), br));
  const Var n =
      tanh_op(add_bias(add(matmul(x, wxn), matmul(mul(r, h), whn)), bn));
  return add(mul(affine(z, -1.0, 1.0), n), mul(z, h));
}

}  // namespace rnx::test
