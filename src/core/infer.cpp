// Packed, tape-free inference forward of both RouteNet kinds.
//
// Model::forward_from routes here whenever nn::grad_disabled() — every
// serving, forward_batch, eval and validation call.  It runs the packed
// path pass (core/path_pass.hpp) with one PathPass kept across the
// iterations: input projections once per link and node row, the path
// state updated in place on packed prefixes with no gather, scatter or
// tape node, messages summed in the plan's original entry order.  The
// path state is un-permuted once per iteration for the paper's node
// update and once for the readout; the link and node GRU updates and
// the readout reuse the NoGrad op layer.  It is bitwise equal to the
// training forward and to the op-by-op oracle
// (tests/inference_forward_test.cpp, tests/train_parity_test.cpp;
// DESIGN.md §G).
#include <stdexcept>
#include <utility>

#include "core/model.hpp"
#include "core/path_pass.hpp"
#include "core/plan.hpp"
#include "nn/ops.hpp"
#include "nn/pool.hpp"

namespace rnx::core {

namespace {

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

/// The Var of a message sum (undefined when nothing was summed).
nn::Var message_var(nn::Tensor t) {
  return t.empty() ? nn::Var() : nn::Var(std::move(t));
}

}  // namespace

ForwardTrace Model::inference_forward(const MpPlan& plan,
                                      const nn::Var& h_path, nn::Var h_link,
                                      nn::Var h_node) const {
  const std::size_t hid = cfg_.state_dim;
  const std::size_t num_paths = plan.num_paths;
  const bool use_nodes = rnn_node_.has_value();
  // The kernels below index raw rows by plan ids; a plan built for other
  // entity counts (a stale address-keyed cache entry) must fail here the
  // way the training forward does.
  if (h_path.rows() != num_paths || h_link.rows() != plan.num_links ||
      (use_nodes && h_node.rows() != plan.num_nodes))
    throw std::invalid_argument(
        "Model::inference_forward: plan does not match the sample's "
        "path/link/node counts");
  const bool positional_node_msgs =
      use_nodes && cfg_.node_rule == NodeUpdateRule::kPositionalMessages;

  nn::Var link_inv_count, node_inv_count;
  if (cfg_.link_mean_aggregation)
    link_inv_count = link_inv_count_var(plan, hid);
  if (use_nodes && cfg_.node_mean_aggregation)
    node_inv_count = node_inv_count_var(plan, hid);

  // Path states in packed row order, updated in place across iterations,
  // and in sample order (refreshed when the node update or the readout
  // reads them).
  PathPass pass(rnn_path_, plan, use_nodes);
  pass.pack(h_path.value());
  nn::Tensor states = nn::TensorPool::acquire_uninit(num_paths, hid);

  for (std::size_t iter = 0; iter < cfg_.iterations; ++iter) {
    nn::Tensor link_sum, node_sum;
    pass.run(h_link.value(), use_nodes ? &h_node.value() : nullptr,
             positional_node_msgs, link_sum, node_sum);
    nn::Var link_msg = message_var(std::move(link_sum));
    nn::Var node_msg = message_var(std::move(node_sum));
    if (link_msg.defined()) {
      if (link_inv_count.defined())
        link_msg = nn::mul(link_msg, link_inv_count);
      h_link = rnn_link_.step(link_msg, h_link);
    }
    if (use_nodes && !positional_node_msgs) {
      // The paper's rule reads the freshly updated path states.
      pass.unpack(states);
      node_msg = segment_sum_rows(states, plan.inc_path_rows,
                                  plan.inc_node_ids, plan.num_nodes);
    }
    if (node_msg.defined()) {
      if (node_inv_count.defined())
        node_msg = nn::mul(node_msg, node_inv_count);
      h_node = rnn_node_->step(node_msg, h_node);
    }
  }
  pass.unpack(states);

  ForwardTrace tr;
  tr.path_states = nn::Var(std::move(states));
  tr.link_states = std::move(h_link);
  tr.node_states = std::move(h_node);
  tr.predictions = readout_.forward(tr.path_states);
  return tr;
}

}  // namespace rnx::core
