// The RouteNet forward written op by op: the oracle the model's packed
// training forward is pinned against (tests/train_parity_test.cpp).
//
// Per sequence position it gathers the element and hidden rows, runs
// one GRUCell::step, scatters the hidden rows back and sums the
// position's messages with segment_sum + add — about five tape nodes
// per position, every backward derived by autograd.  It reads the
// weights through model.named_params(), so its gradients land in the
// model's own parameters.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <utility>

#include "autograd_testing.hpp"
#include "core/model.hpp"
#include "core/plan.hpp"
#include "nn/gru.hpp"
#include "nn/ops.hpp"

namespace rnx::test {

/// Message passing over `plan` from the given initial states (h_node
/// undefined for the original kind), as core::Model::forward_from.
[[nodiscard]] inline core::ForwardTrace reference_forward_from(
    const core::Model& model, const core::MpPlan& plan, nn::Var h_path,
    nn::Var h_link, nn::Var h_node) {
  using core::NodeUpdateRule;
  const core::ModelConfig& cfg = model.config();
  const bool use_nodes = model.kind() == core::ModelKind::kExtended;
  const nn::NamedParams params = model.named_params();
  const std::span<const std::pair<std::string, nn::Var>> all(params);
  const nn::GRUCell rnn_path(all.subspan(0, 9));
  const nn::GRUCell rnn_link(all.subspan(9, 9));
  std::optional<nn::GRUCell> rnn_node;
  if (use_nodes) rnn_node.emplace(all.subspan(18, 9));
  const std::size_t readout_at = use_nodes ? 27 : 18;

  nn::Var node_inv_count;
  if (use_nodes && cfg.node_mean_aggregation)
    node_inv_count = core::node_inv_count_var(plan, cfg.state_dim);
  nn::Var link_inv_count;
  if (cfg.link_mean_aggregation)
    link_inv_count = core::link_inv_count_var(plan, cfg.state_dim);

  for (std::size_t iter = 0; iter < cfg.iterations; ++iter) {
    nn::Var hidden = h_path;
    nn::Var link_msg;  // (L x H) summed positional messages to links
    nn::Var node_msg;  // (N x H) only for the positional-message ablation
    for (std::size_t p = 0; p < plan.num_positions(); ++p) {
      const core::PlanPosition pos = plan.position(p);
      const nn::Var x = pos.is_node ? nn::gather_rows(h_node, pos.elem_ids)
                                    : nn::gather_rows(h_link, pos.elem_ids);
      const nn::Var h = nn::gather_rows(hidden, pos.path_rows);
      const nn::Var h2 = rnn_path.step(x, h);
      hidden = nn::scatter_rows(hidden, pos.path_rows, h2);
      if (!pos.is_node) {
        const nn::Var msg = nn::segment_sum(h2, pos.elem_ids, plan.num_links);
        link_msg = link_msg.defined() ? nn::add(link_msg, msg) : msg;
      } else if (cfg.node_rule == NodeUpdateRule::kPositionalMessages) {
        const nn::Var msg = nn::segment_sum(h2, pos.elem_ids, plan.num_nodes);
        node_msg = node_msg.defined() ? nn::add(node_msg, msg) : msg;
      }
    }
    h_path = hidden;
    if (link_msg.defined()) {
      if (link_inv_count.defined())
        link_msg = nn::mul(link_msg, link_inv_count);
      h_link = rnn_link.step(link_msg, h_link);
    }
    if (use_nodes && cfg.node_rule == NodeUpdateRule::kSumPathStates) {
      const nn::Var gathered = nn::gather_rows(h_path, plan.inc_path_rows);
      node_msg = nn::segment_sum(gathered, plan.inc_node_ids, plan.num_nodes);
    }
    if (node_msg.defined()) {
      if (node_inv_count.defined())
        node_msg = nn::mul(node_msg, node_inv_count);
      h_node = rnn_node->step(node_msg, h_node);
    }
  }

  // The readout MLP: ReLU hidden layers, linear output (nn::Mlp).
  nn::Var out = h_path;
  for (std::size_t i = readout_at; i < params.size(); i += 2) {
    out = nn::add_bias(nn::matmul(out, params[i].second),
                       params[i + 1].second);
    if (i + 2 < params.size()) out = nn::relu(out);
  }

  core::ForwardTrace tr;
  tr.path_states = h_path;
  tr.link_states = h_link;
  tr.node_states = h_node;
  tr.predictions = out;
  return tr;
}

/// The whole forward of `model` on one sample: plan, initial states,
/// message passing, readout.
[[nodiscard]] inline core::ForwardTrace reference_forward(
    const core::Model& model, const data::Sample& sample,
    const data::Scaler& scaler) {
  const bool use_nodes = model.kind() == core::ModelKind::kExtended;
  const core::MpPlan plan = core::build_plan(sample, use_nodes);
  const core::ModelConfig& cfg = model.config();
  nn::Var h_node;
  if (use_nodes) h_node = core::initial_node_states(sample, scaler, cfg);
  return reference_forward_from(
      model, plan, core::initial_path_states(sample, scaler, cfg),
      core::initial_link_states(sample, scaler, cfg), std::move(h_node));
}

}  // namespace rnx::test
