// Differentiable operations on Vars.
//
// The set is exactly what RouteNet-style message passing needs:
//  * dense algebra: matmul, add, add_bias, mul;
//  * nonlinearities: sigmoid, tanh, relu, softplus;
//  * graph plumbing: gather_rows (select entity states by index),
//    segment_sum (aggregate messages per target entity);
//  * the MSE training loss.
//
// Every op's backward is verified against central differences in
// tests/nn_gradcheck_test.cpp.  The ops only tests build graphs from
// (sub, affine, scatter_rows, concat_cols, reductions, other losses)
// live in tests/autograd_testing.hpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/autograd.hpp"

namespace rnx::nn {

using Index = std::uint32_t;

/// Leaf Var wrapping a constant (no gradient).
[[nodiscard]] Var constant(Tensor t);

// -- elementwise / dense -------------------------------------------------
[[nodiscard]] Var add(const Var& a, const Var& b);        ///< same shape
[[nodiscard]] Var mul(const Var& a, const Var& b);        ///< Hadamard
[[nodiscard]] Var matmul(const Var& a, const Var& b);
/// a (R x C) + bias (1 x C) broadcast over rows.
[[nodiscard]] Var add_bias(const Var& a, const Var& bias);

[[nodiscard]] Var sigmoid(const Var& a);
[[nodiscard]] Var tanh_op(const Var& a);
[[nodiscard]] Var relu(const Var& a);
[[nodiscard]] Var softplus(const Var& a);

// -- graph plumbing --------------------------------------------------------
/// y[i] = a[idx[i]] (row gather); rows may repeat.
[[nodiscard]] Var gather_rows(const Var& a, std::vector<Index> idx);
/// out[s] = sum of a's rows i with seg[i] == s; out has num_segments rows.
/// Segments may be empty (zero rows).
[[nodiscard]] Var segment_sum(const Var& a, std::vector<Index> seg,
                              std::size_t num_segments);
// Span overloads for arena-backed index sets (core::MpPlan).  The
// backward closures need owned storage, so with the tape on each copies
// the span into a vector; under NoGrad no copy and no closure is made.
[[nodiscard]] Var gather_rows(const Var& a, std::span<const Index> idx);
[[nodiscard]] Var segment_sum(const Var& a, std::span<const Index> seg,
                              std::size_t num_segments);

// -- loss --------------------------------------------------------------------
/// Mean squared error against a constant target (same shape).
[[nodiscard]] Var mse_loss(const Var& pred, const Tensor& target);

}  // namespace rnx::nn
