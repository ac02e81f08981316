#include "core/routenet_ext.hpp"

#include <stdexcept>
#include <string>

#include "core/infer.hpp"
#include "core/plan.hpp"
#include "core/plan_cache.hpp"
#include "nn/ops.hpp"

namespace rnx::core {

ExtendedRouteNet::ExtendedRouteNet(ModelConfig cfg)
    : cfg_(cfg),
      rnn_path_([&] {
        util::RngStream rng(cfg.init_seed);
        return nn::GRUCell(cfg.state_dim, cfg.state_dim, rng, "rnn_p");
      }()),
      rnn_link_([&] {
        util::RngStream rng(cfg.init_seed + 1);
        return nn::GRUCell(cfg.state_dim, cfg.state_dim, rng, "rnn_l");
      }()),
      rnn_node_([&] {
        util::RngStream rng(cfg.init_seed + 3);
        return nn::GRUCell(cfg.state_dim, cfg.state_dim, rng, "rnn_n");
      }()),
      readout_([&] {
        util::RngStream rng(cfg.init_seed + 2);
        return nn::Mlp({cfg.state_dim, cfg.readout_hidden, 1},
                       nn::Activation::kRelu, rng, "readout");
      }()) {
  if (cfg_.scenario_features && cfg_.state_dim < kScenarioFeatureMinDim)
    throw std::invalid_argument(
        "ExtendedRouteNet: scenario features need state_dim >= " +
        std::to_string(kScenarioFeatureMinDim));
  rnn_path_.set_fused(cfg_.fused_gru);
  rnn_link_.set_fused(cfg_.fused_gru);
  rnn_node_.set_fused(cfg_.fused_gru);
}

ForwardTrace ExtendedRouteNet::forward_traced(
    const data::Sample& sample, const data::Scaler& scaler) const {
  std::shared_ptr<const MpPlan> plan_holder;
  const MpPlan& plan = plan_for(sample, /*use_nodes=*/true, plan_holder);
  nn::Var h_path = initial_path_states(sample, scaler, cfg_);
  nn::Var h_link = initial_link_states(sample, scaler, cfg_);
  nn::Var h_node = initial_node_states(sample, scaler, cfg_);
  if (nn::grad_disabled() && cfg_.fused_gru)
    return packed_inference_forward(
        plan, cfg_, {rnn_path_, rnn_link_, &rnn_node_, readout_}, h_path,
        std::move(h_link), std::move(h_node));

  // Optional mean normalization of the node aggregation (see ModelConfig):
  // per-node 1/count, as a constant (N x H) multiplier.
  nn::Var node_inv_count;
  if (cfg_.node_mean_aggregation)
    node_inv_count = node_inv_count_var(plan, cfg_.state_dim);
  // And the symmetric link-side normalizer (see ModelConfig).
  nn::Var link_inv_count;
  if (cfg_.link_mean_aggregation)
    link_inv_count = link_inv_count_var(plan, cfg_.state_dim);

  for (std::size_t iter = 0; iter < cfg_.iterations; ++iter) {
    nn::Var hidden = h_path;
    nn::Var link_msg;  // (L x H) summed positional messages to links
    nn::Var node_msg;  // (N x H) only for the positional-message ablation
    for (std::size_t p = 0; p < plan.num_positions(); ++p) {
      // The interleaved sequence: even positions read node states, odd
      // positions read link states (paper Fig. 1).
      const PlanPosition pos = plan.position(p);
      const nn::Var x = pos.is_node ? nn::gather_rows(h_node, pos.elem_ids)
                                    : nn::gather_rows(h_link, pos.elem_ids);
      const nn::Var h = nn::gather_rows(hidden, pos.path_rows);
      const nn::Var h2 = rnn_path_.step(x, h);
      hidden = nn::scatter_rows(hidden, pos.path_rows, h2);
      if (!pos.is_node) {
        const nn::Var msg = nn::segment_sum(h2, pos.elem_ids, plan.num_links);
        link_msg = link_msg.defined() ? nn::add(link_msg, msg) : msg;
      } else if (cfg_.node_rule == NodeUpdateRule::kPositionalMessages) {
        const nn::Var msg = nn::segment_sum(h2, pos.elem_ids, plan.num_nodes);
        node_msg = node_msg.defined() ? nn::add(node_msg, msg) : msg;
      }
    }
    h_path = hidden;
    if (link_msg.defined()) {
      if (link_inv_count.defined())
        link_msg = nn::mul(link_msg, link_inv_count);
      h_link = rnn_link_.step(link_msg, h_link);
    }

    if (cfg_.node_rule == NodeUpdateRule::kSumPathStates) {
      // The paper's rule: element-wise sum of the (freshly updated)
      // states of all paths traversing each node, fed to RNN_N.
      const nn::Var gathered = nn::gather_rows(h_path, plan.inc_path_rows);
      node_msg = nn::segment_sum(gathered, plan.inc_node_ids, plan.num_nodes);
    }
    if (node_msg.defined()) {
      if (node_inv_count.defined())
        node_msg = nn::mul(node_msg, node_inv_count);
      h_node = rnn_node_.step(node_msg, h_node);
    }
  }

  ForwardTrace tr;
  tr.path_states = h_path;
  tr.link_states = h_link;
  tr.node_states = h_node;
  tr.predictions = readout_.forward(h_path);
  return tr;
}

nn::Var ExtendedRouteNet::forward(const data::Sample& sample,
                                  const data::Scaler& scaler) const {
  return forward_traced(sample, scaler).predictions;
}

std::unique_ptr<Model> ExtendedRouteNet::clone() const {
  auto copy = std::make_unique<ExtendedRouteNet>(cfg_);
  copy->copy_params_from(*this);
  return copy;
}

nn::NamedParams ExtendedRouteNet::named_params() const {
  nn::NamedParams out;
  for (auto& p : rnn_path_.named_params()) out.push_back(std::move(p));
  for (auto& p : rnn_link_.named_params()) out.push_back(std::move(p));
  for (auto& p : rnn_node_.named_params()) out.push_back(std::move(p));
  for (auto& p : readout_.named_params()) out.push_back(std::move(p));
  return out;
}

}  // namespace rnx::core
