// Packed, tape-free inference forward of both RouteNet kinds.
//
// Model::forward_traced routes here whenever nn::grad_disabled() — every
// serving, forward_batch, eval and validation call.  The autograd
// forward stays the training path and the oracle this one is pinned
// against bitwise (tests/inference_forward_test.cpp; DESIGN.md §G):
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
#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/model.hpp"
#include "core/plan.hpp"
#include "nn/ops.hpp"
#include "nn/pool.hpp"

namespace rnx::core {

namespace {

/// dst.row(order[k]) = src.row(k): packed rows back to sample order.
void unpermute(nn::Tensor& dst, const nn::Tensor& src,
               std::span<const nn::Index> order) {
  for (std::size_t k = 0; k < order.size(); ++k) {
    const auto row = src.row(k);
    std::copy(row.begin(), row.end(), dst.row(order[k]).begin());
  }
}

/// out (num_segments x H) = zeros, then out[seg[i]] += src[src_rows[i]]
/// for i ascending: nn::segment_sum's exact operations on the rows a
/// gather would have handed it.
nn::Var segment_sum_rows(const nn::Tensor& src,
                         std::span<const nn::Index> src_rows,
                         std::span<const nn::Index> seg,
                         std::size_t num_segments) {
  nn::Tensor out = nn::TensorPool::acquire(num_segments, src.cols());
  for (std::size_t i = 0; i < seg.size(); ++i) {
    auto dst = out.row(seg[i]);
    const auto row = src.row(src_rows[i]);
    for (std::size_t c = 0; c < dst.size(); ++c) dst[c] += row[c];
  }
  return nn::Var(std::move(out));
}

void accumulate(nn::Var& total, nn::Var msg) {
  total = total.defined() ? nn::add(total, msg) : std::move(msg);
}

}  // namespace

ForwardTrace Model::inference_forward(const MpPlan& plan,
                                      const nn::Var& h_path, nn::Var h_link,
                                      nn::Var h_node) const {
  using nn::TensorPool;
  const std::size_t hid = cfg_.state_dim;
  const std::size_t num_paths = plan.num_paths;
  const bool use_nodes = rnn_node_.has_value();
  // The kernels below index raw rows by plan ids; a plan built for other
  // entity counts (a stale address-keyed cache entry) must fail here the
  // way the autograd forward's range-checked gathers do.
  if (h_path.rows() != num_paths || h_link.rows() != plan.num_links ||
      (use_nodes && h_node.rows() != plan.num_nodes))
    throw std::invalid_argument(
        "Model::inference_forward: plan does not match the sample's "
        "path/link/node counts");
  const bool positional_node_msgs =
      use_nodes && cfg_.node_rule == NodeUpdateRule::kPositionalMessages;
  const std::span<const nn::Index> order = plan.packed_order();

  nn::Var link_inv_count, node_inv_count;
  if (cfg_.link_mean_aggregation)
    link_inv_count = link_inv_count_var(plan, hid);
  if (use_nodes && cfg_.node_mean_aggregation)
    node_inv_count = node_inv_count_var(plan, hid);

  // Path states in packed row order (updated in place) and in sample
  // order (refreshed when the node update or the readout reads them).
  nn::Tensor packed = TensorPool::acquire_uninit(num_paths, hid);
  for (std::size_t k = 0; k < num_paths; ++k) {
    const auto row = h_path.value().row(order[k]);
    std::copy(row.begin(), row.end(), packed.row(k).begin());
  }
  nn::Tensor states = TensorPool::acquire_uninit(num_paths, hid);

  nn::Tensor w_hzr = rnn_path_.hidden_zr_panel();
  nn::Tensor a_zr = TensorPool::acquire_uninit(num_paths, 2 * hid);
  nn::Tensor a_n = TensorPool::acquire_uninit(num_paths, hid);
  nn::Tensor scratch = TensorPool::acquire_uninit(num_paths, 4 * hid);
  // Input projections of every link and node row, refreshed per iteration.
  nn::Tensor link_zr = TensorPool::acquire_uninit(plan.num_links, 2 * hid);
  nn::Tensor link_n = TensorPool::acquire_uninit(plan.num_links, hid);
  nn::Tensor node_zr, node_n;
  if (use_nodes) {
    node_zr = TensorPool::acquire_uninit(plan.num_nodes, 2 * hid);
    node_n = TensorPool::acquire_uninit(plan.num_nodes, hid);
  }

  for (std::size_t iter = 0; iter < cfg_.iterations; ++iter) {
    rnn_path_.project_inputs(h_link.value(), link_zr, link_n);
    if (use_nodes) rnn_path_.project_inputs(h_node.value(), node_zr, node_n);
    nn::Var link_msg, node_msg;
    for (std::size_t p = 0; p < plan.num_positions(); ++p) {
      const PlanPosition pos = plan.position(p);
      const nn::Tensor& src_zr = pos.is_node ? node_zr : link_zr;
      const nn::Tensor& src_n = pos.is_node ? node_n : link_n;
      for (std::size_t i = 0; i < pos.elem_ids.size(); ++i) {
        const auto zr = src_zr.row(pos.elem_ids[i]);
        const auto n = src_n.row(pos.elem_ids[i]);
        std::copy(zr.begin(), zr.end(), a_zr.row(pos.packed_rows[i]).begin());
        std::copy(n.begin(), n.end(), a_n.row(pos.packed_rows[i]).begin());
      }
      rnn_path_.step_projected(packed.flat().data(), a_zr.flat().data(),
                               a_n.flat().data(), pos.path_rows.size(),
                               w_hzr, scratch.flat());
      if (!pos.is_node)
        accumulate(link_msg, segment_sum_rows(packed, pos.packed_rows,
                                              pos.elem_ids, plan.num_links));
      else if (positional_node_msgs)
        accumulate(node_msg, segment_sum_rows(packed, pos.packed_rows,
                                              pos.elem_ids, plan.num_nodes));
    }
    if (link_msg.defined()) {
      if (link_inv_count.defined())
        link_msg = nn::mul(link_msg, link_inv_count);
      h_link = rnn_link_.step(link_msg, h_link);
    }
    if (use_nodes && !positional_node_msgs) {
      // The paper's rule reads the freshly updated path states.
      unpermute(states, packed, order);
      node_msg = segment_sum_rows(states, plan.inc_path_rows,
                                  plan.inc_node_ids, plan.num_nodes);
    }
    if (node_msg.defined()) {
      if (node_inv_count.defined())
        node_msg = nn::mul(node_msg, node_inv_count);
      h_node = rnn_node_->step(node_msg, h_node);
    }
  }
  unpermute(states, packed, order);
  TensorPool::release(std::move(packed));
  TensorPool::release(std::move(w_hzr));
  TensorPool::release(std::move(a_zr));
  TensorPool::release(std::move(a_n));
  TensorPool::release(std::move(scratch));
  TensorPool::release(std::move(link_zr));
  TensorPool::release(std::move(link_n));
  TensorPool::release(std::move(node_zr));
  TensorPool::release(std::move(node_n));

  ForwardTrace tr;
  tr.path_states = nn::Var(std::move(states));
  tr.link_states = std::move(h_link);
  tr.node_states = std::move(h_node);
  tr.predictions = readout_.forward(tr.path_states);
  return tr;
}

}  // namespace rnx::core
