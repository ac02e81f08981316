// Gated recurrent unit cell.
//
// RouteNet uses recurrent units for all three state-update functions
// (RNN_P over path sequences, RNN_L for link updates, RNN_N for node
// updates — the latter introduced by this paper); GRUs are the choice in
// the reference implementation.  Gate convention follows PyTorch:
//   z = sigmoid(x Wxz + h Whz + bz)          (update gate)
//   r = sigmoid(x Wxr + h Whr + br)          (reset gate)
//   n = tanh  (x Wxn + (r .* h) Whn + bn)    (candidate)
//   h' = (1 - z) .* n + z .* h
//
// One forward and one backward serve every cell.  The forward is split
// in two: project_inputs accumulates the input half of the gate
// pre-activations, and step_projected finishes the step in place with
// raw backend kernels (hidden-half matmuls, gate and blend passes).  The
// packed path pass (core/path_pass.cpp, core/infer.cpp) projects each
// link or node row once for all the paths that read it; step() is the
// same split at one position over R rows and records a single tape node
// whose backward is step_projected_backward + add_hidden_grads +
// project_inputs_backward.  tests/gru_reference.hpp keeps the op-by-op
// composition (~15 tape nodes) as the oracle tests/gru_fused_test.cpp
// pins step() against, next to central differences.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "nn/autograd.hpp"
#include "util/rng.hpp"

namespace rnx::nn {

class GRUCell {
 public:
  /// Weights Glorot-initialized from rng; biases zero.
  GRUCell(std::size_t input_dim, std::size_t hidden_dim,
          util::RngStream& rng, std::string name = "gru");
  /// A cell over existing parameters in named_params() order (wxz, whz,
  /// bz, wxr, whr, br, wxn, whn, bn): it shares their values and
  /// gradients with the cell they were read from.
  explicit GRUCell(std::span<const std::pair<std::string, Var>> params);

  /// One step: x is (R x input_dim), h is (R x hidden_dim); returns the
  /// new hidden state (R x hidden_dim).  Differentiable through both.
  [[nodiscard]] Var step(const Var& x, const Var& h) const;

  // -- the split, on raw rows (core/path_pass.cpp, core/infer.cpp) -----
  // Every z/r pre-activation cell is the chain "bias, then x's columns,
  // then h's columns" and every candidate cell "bias, then x's columns,
  // then (r.*h)'s columns"; project_inputs runs the chains up to the end
  // of x's columns and step_projected finishes them, so an input row
  // shared by many hidden rows is projected once.

  /// Input half of the pre-activations for input rows x (R x input_dim):
  /// a_zr (R x 2H) = [bz|br] + x [Wxz|Wxr], a_n (R x H) = bn + x Wxn.
  void project_inputs(const Tensor& x, Tensor& a_zr, Tensor& a_n) const;
  /// [Whz|Whr] (H x 2H): the hidden half of the z/r weight panel.
  [[nodiscard]] Tensor hidden_zr_panel() const;
  /// Finish one step in place on `rows` contiguous hidden rows h
  /// (rows x H) whose input projections the caller gathered into a_zr
  /// (rows x 2H) and a_n (rows x H); both are overwritten.  w_hzr is
  /// hidden_zr_panel(); scratch holds at least 4 * rows * H doubles.
  /// With `saved` (4 * rows * H doubles) the step also records
  /// [h_prev | z | r | n], each rows x H, for step_projected_backward,
  /// and scratch needs only rows * H.  Same kernels either way, so the
  /// new state is bitwise the same.  Raw backend kernels only: no tape,
  /// no allocation.
  void step_projected(double* h, double* a_zr, double* a_n, std::size_t rows,
                      const Tensor& w_hzr, std::span<double> scratch,
                      double* saved = nullptr) const;

  // -- backward of the split (core/path_pass.cpp, step()) ---------------

  /// Reverse of one saving step_projected over `rows` rows.  On entry g
  /// (rows x H) holds dL/dh', on exit dL/dh_prev.  d_zr (rows x 2H) and
  /// d_n (rows x H) receive the gradients of the z/r and candidate
  /// pre-activations, which the caller routes to the input projections.
  /// The hidden-half weight gradients are accumulated into dw_hzr
  /// (H x 2H, the [Whz|Whr] panel) and dw_hn (H x H).  w_t is
  /// hidden_panel_t(); scratch holds at least 2 * rows * H doubles.
  void step_projected_backward(double* g, const double* saved, double* d_zr,
                               double* d_n, std::size_t rows,
                               const Tensor& w_t, Tensor& dw_hzr,
                               Tensor& dw_hn, std::span<double> scratch) const;
  /// [Whz|Whr|Whn]^T (3H x H): the hidden weights transposed, so the
  /// backward's products against them run as plain matmuls.
  [[nodiscard]] Tensor hidden_panel_t() const;
  /// Add the panels step_projected_backward accumulated into the
  /// gradients of Whz, Whr and Whn.
  void add_hidden_grads(const Tensor& dw_hzr, const Tensor& dw_hn) const;
  /// Reverse of project_inputs: from the pre-activation gradients d_zr
  /// (R x 2H) and d_n (R x H) of the input rows x, accumulate the bias
  /// and input-weight gradients and, when x_grad is non-null, dL/dx.
  void project_inputs_backward(const Tensor& x, const Tensor& d_zr,
                               const Tensor& d_n, Tensor* x_grad) const;

  [[nodiscard]] std::size_t input_dim() const noexcept { return in_; }
  [[nodiscard]] std::size_t hidden_dim() const noexcept { return hid_; }
  /// Trainable parameters as (name, Var) pairs; Vars share the cell's
  /// tape nodes, so optimizer updates are visible to the cell.
  [[nodiscard]] std::vector<std::pair<std::string, Var>> named_params() const;

 private:
  std::size_t in_;
  std::size_t hid_;
  std::string name_;
  Var wxz_, whz_, bz_;
  Var wxr_, whr_, br_;
  Var wxn_, whn_, bn_;
};

}  // namespace rnx::nn
