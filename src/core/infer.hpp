// Packed, tape-free inference forward shared by both RouteNet variants.
//
// RouteNet::forward_traced and ExtendedRouteNet::forward_traced route
// here whenever nn::grad_disabled() && cfg.fused_gru — every serving,
// forward_batch, eval and validation call.  The autograd forward stays
// the training path and the oracle this one is pinned against bitwise
// (tests/inference_forward_test.cpp; DESIGN.md §G):
//
//   * per iteration the path GRU's input half is projected once per
//     link and node row (nn::GRUCell::project_inputs); each position
//     gathers those projection rows and accumulates only the hidden
//     half — the same per-cell accumulation chain as the fused step;
//   * the path hidden state lives in the plan's packed row order, so
//     each position's active rows are a contiguous prefix, updated in
//     place (nn::GRUCell::step_projected) with no gather, scatter or
//     tape node;
//   * link and positional node messages are summed in the plan's
//     original row order, so float association is unchanged; the
//     hidden state is un-permuted once per iteration for the node
//     update and once for the readout.
#pragma once

#include "core/model.hpp"
#include "core/plan.hpp"
#include "nn/gru.hpp"
#include "nn/layers.hpp"

namespace rnx::core {

/// The learned functions one forward reads; `node` is null for the
/// original (path-link) model.
struct ForwardCells {
  const nn::GRUCell& path;
  const nn::GRUCell& link;
  const nn::GRUCell* node;
  const nn::Mlp& readout;
};

/// The inference forward over a built plan from the initial states
/// (h_node undefined for the original model).  Must run under NoGrad
/// with fused cells; the result equals forward_traced's autograd path
/// bit for bit.
[[nodiscard]] ForwardTrace packed_inference_forward(
    const MpPlan& plan, const ModelConfig& cfg, const ForwardCells& cells,
    const nn::Var& h_path, nn::Var h_link, nn::Var h_node);

}  // namespace rnx::core
