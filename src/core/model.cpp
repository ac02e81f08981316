#include "core/model.hpp"

#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/path_pass.hpp"
#include "core/plan.hpp"
#include "core/plan_cache.hpp"
#include "nn/ops.hpp"
#include "util/thread_pool.hpp"

namespace rnx::core {

void Model::save_weights(const std::string& path) const {
  const nn::NamedParams params = named_params();
  nn::save_params(path, params);
}

void Model::load_weights(const std::string& path) {
  nn::NamedParams params = named_params();
  nn::load_params(path, params);
}

void Model::copy_params_from(const Model& src) {
  const nn::NamedParams from = src.named_params();
  nn::NamedParams to = named_params();
  if (from.size() != to.size())
    throw std::invalid_argument("copy_params_from: parameter count mismatch");
  for (std::size_t i = 0; i < from.size(); ++i) {
    if (from[i].first != to[i].first ||
        !from[i].second.value().same_shape(to[i].second.value()))
      throw std::invalid_argument("copy_params_from: parameter mismatch at " +
                                  from[i].first);
    to[i].second.mutable_value() = from[i].second.value();
  }
}

std::shared_ptr<const MpPlan> Model::plan_for(const data::Sample& sample,
                                             bool use_nodes) const {
  if (plan_cache_ != nullptr) return plan_cache_->get(sample, use_nodes);
  return std::make_shared<const MpPlan>(build_plan(sample, use_nodes));
}

std::vector<nn::Tensor> Model::forward_batch(
    std::span<const data::Sample> samples, const data::Scaler& scaler,
    util::ThreadPool* pool, const std::vector<char>* skip) const {
  std::vector<const data::Sample*> ptrs(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) ptrs[i] = &samples[i];
  return forward_batch(std::span<const data::Sample* const>(ptrs), scaler,
                       pool, nullptr, skip);
}

std::vector<nn::Tensor> Model::forward_batch(
    std::span<const data::Sample* const> samples, const data::Scaler& scaler,
    util::ThreadPool* pool, std::vector<std::exception_ptr>* errors,
    const std::vector<char>* skip) const {
  if (skip != nullptr && skip->size() != samples.size())
    throw std::invalid_argument("forward_batch: skip mask size mismatch");
  std::vector<nn::Tensor> out(samples.size());
  if (errors != nullptr) {
    errors->clear();
    errors->resize(samples.size());
  }
  const auto eval_one = [&](std::size_t i) {
    if (skip != nullptr && (*skip)[i]) return;
    const nn::NoGradGuard guard;  // thread-local: set per lane
    if (errors == nullptr) {
      out[i] = forward(*samples[i], scaler).value();
      return;
    }
    try {
      out[i] = forward(*samples[i], scaler).value();
    } catch (...) {
      (*errors)[i] = std::current_exception();
    }
  };
  const bool pooled = pool != nullptr && pool->size() > 1 &&
                      samples.size() > 1 &&
                      pool->try_parallel_for(samples.size(), eval_one);
  if (!pooled)
    for (std::size_t i = 0; i < samples.size(); ++i) eval_one(i);
  return out;
}

namespace {

// The bundle feature-gating contract (DESIGN.md §S): a model trained
// with scenario features must not silently read zeros off a
// pre-scenario-engine dataset.
void require_scenario(const data::Sample& s, std::size_t state_dim) {
  if (state_dim < kScenarioFeatureMinDim)
    throw std::runtime_error(
        "scenario features need state_dim >= " +
        std::to_string(kScenarioFeatureMinDim) + ", got " +
        std::to_string(state_dim));
  if (!s.scenario_recorded)
    throw std::runtime_error(
        "model expects scenario features, but this sample records no "
        "scenario (dataset predates the scenario engine — regenerate it "
        "with rnx_datagen, or use a model without scenario features)");
}

}  // namespace

nn::Var initial_path_states(const data::Sample& s, const data::Scaler& sc,
                            const ModelConfig& cfg) {
  nn::Tensor t(s.paths.size(), cfg.state_dim);
  if (cfg.scale_invariant_features) {
    const std::vector<double> load = data::path_bottleneck_load(s);
    for (std::size_t i = 0; i < s.paths.size(); ++i) t(i, 0) = load[i];
  } else {
    for (std::size_t i = 0; i < s.paths.size(); ++i)
      t(i, 0) = sc.traffic(s.paths[i].traffic_bps);
  }
  if (cfg.scenario_features) {
    require_scenario(s, cfg.state_dim);
    const double class_span =
        s.scenario.priority_classes > 1
            ? static_cast<double>(s.scenario.priority_classes - 1)
            : 1.0;
    const std::size_t traffic_col =
        2 + static_cast<std::size_t>(s.scenario.traffic);
    for (std::size_t i = 0; i < s.paths.size(); ++i) {
      t(i, 1) = static_cast<double>(s.paths[i].priority_class) / class_span;
      t(i, traffic_col) = 1.0;
    }
  }
  return nn::constant(std::move(t));
}

nn::Var initial_link_states(const data::Sample& s, const data::Scaler& sc,
                            const ModelConfig& cfg) {
  nn::Tensor t(s.num_links(), cfg.state_dim);
  if (cfg.scale_invariant_features) {
    const std::vector<double> util = data::link_utilization(s);
    for (std::size_t l = 0; l < s.num_links(); ++l) t(l, 0) = util[l];
  } else {
    for (std::size_t l = 0; l < s.num_links(); ++l)
      t(l, 0) = sc.capacity(s.link_capacity_bps[l]);
  }
  if (cfg.scenario_features) {
    require_scenario(s, cfg.state_dim);
    const std::size_t policy_col =
        1 + static_cast<std::size_t>(s.scenario.policy);
    for (std::size_t l = 0; l < s.num_links(); ++l) t(l, policy_col) = 1.0;
  }
  return nn::constant(std::move(t));
}

nn::Var initial_node_states(const data::Sample& s, const data::Scaler& sc,
                            const ModelConfig& cfg) {
  nn::Tensor t(s.num_nodes, cfg.state_dim);
  if (cfg.scale_invariant_features) {
    const std::vector<double> frac = data::node_queue_fraction(s);
    for (std::size_t n = 0; n < s.num_nodes; ++n) t(n, 0) = frac[n];
  } else {
    for (std::size_t n = 0; n < s.num_nodes; ++n)
      t(n, 0) = sc.queue(s.queue_pkts[n]);
  }
  return nn::constant(std::move(t));
}

// Per-link 1/count multiplier for link_mean_aggregation: count = the
// number of (path, position) messages summed into each link, i.e. the
// link's occurrences across all paths.
nn::Var link_inv_count_var(const MpPlan& plan, std::size_t state_dim) {
  std::vector<double> counts(plan.num_links, 0.0);
  for (std::size_t p = 0; p < plan.num_positions(); ++p) {
    const PlanPosition pos = plan.position(p);
    if (pos.is_node) continue;
    for (const auto l : pos.elem_ids) counts[l] += 1.0;
  }
  nn::Tensor inv(plan.num_links, state_dim);
  for (std::size_t l = 0; l < plan.num_links; ++l) {
    const double v = counts[l] > 0.0 ? 1.0 / counts[l] : 0.0;
    for (std::size_t c = 0; c < state_dim; ++c) inv(l, c) = v;
  }
  return nn::constant(std::move(inv));
}

nn::Var node_inv_count_var(const MpPlan& plan, std::size_t state_dim) {
  std::vector<double> counts(plan.num_nodes, 0.0);
  for (const auto n : plan.inc_node_ids) counts[n] += 1.0;
  nn::Tensor inv(plan.num_nodes, state_dim);
  for (std::size_t n = 0; n < plan.num_nodes; ++n) {
    const double v = counts[n] > 0.0 ? 1.0 / counts[n] : 0.0;
    for (std::size_t c = 0; c < state_dim; ++c) inv(n, c) = v;
  }
  return nn::constant(std::move(inv));
}

// ---- the model ------------------------------------------------------------

namespace {

nn::GRUCell make_cell(const ModelConfig& cfg, std::uint64_t seed_offset,
                      std::string name) {
  util::RngStream rng(cfg.init_seed + seed_offset);
  return nn::GRUCell(cfg.state_dim, cfg.state_dim, rng, std::move(name));
}

}  // namespace

Model::Model(ModelKind kind, ModelConfig cfg)
    : kind_(kind),
      cfg_(cfg),
      rnn_path_(make_cell(cfg, 0, "rnn_p")),
      rnn_link_(make_cell(cfg, 1, "rnn_l")),
      readout_([&] {
        util::RngStream rng(cfg.init_seed + 2);
        return nn::Mlp({cfg.state_dim, cfg.readout_hidden, 1},
                       nn::Activation::kRelu, rng, "readout");
      }()) {
  if (kind != ModelKind::kOriginal && kind != ModelKind::kExtended)
    throw std::invalid_argument("Model: invalid model kind");
  if (kind == ModelKind::kExtended) rnn_node_ = make_cell(cfg, 3, "rnn_n");
  if (cfg_.scenario_features && cfg_.state_dim < kScenarioFeatureMinDim)
    throw std::invalid_argument(
        "Model: scenario features need state_dim >= " +
        std::to_string(kScenarioFeatureMinDim));
}

ForwardTrace Model::forward_traced(const data::Sample& sample,
                                   const data::Scaler& scaler) const {
  std::shared_ptr<const MpPlan> plan = plan_for(sample, rnn_node_.has_value());
  nn::Var h_node;
  if (rnn_node_) h_node = initial_node_states(sample, scaler, cfg_);
  return forward_from(std::move(plan),
                      initial_path_states(sample, scaler, cfg_),
                      initial_link_states(sample, scaler, cfg_),
                      std::move(h_node));
}

ForwardTrace Model::forward_from(std::shared_ptr<const MpPlan> plan,
                                 nn::Var h_path, nn::Var h_link,
                                 nn::Var h_node) const {
  const bool use_nodes = rnn_node_.has_value();
  if (nn::grad_disabled())
    return inference_forward(*plan, h_path, std::move(h_link),
                             std::move(h_node));

  // Optional mean normalization of the node and link aggregations (see
  // ModelConfig): per-entity 1/count, as constant (N|L x H) multipliers.
  nn::Var node_inv_count;
  if (use_nodes && cfg_.node_mean_aggregation)
    node_inv_count = node_inv_count_var(*plan, cfg_.state_dim);
  nn::Var link_inv_count;
  if (cfg_.link_mean_aggregation)
    link_inv_count = link_inv_count_var(*plan, cfg_.state_dim);
  const bool positional_node_msgs =
      use_nodes && cfg_.node_rule == NodeUpdateRule::kPositionalMessages;

  for (std::size_t iter = 0; iter < cfg_.iterations; ++iter) {
    // The path pass: one tape op per iteration (core/path_pass.hpp).
    PathSequence seq = path_sequence(rnn_path_, plan, h_path, h_link, h_node,
                                     positional_node_msgs);
    h_path = std::move(seq.path_states);
    nn::Var link_msg = std::move(seq.link_msg);
    nn::Var node_msg = std::move(seq.node_msg);
    if (link_msg.defined()) {
      if (link_inv_count.defined())
        link_msg = nn::mul(link_msg, link_inv_count);
      h_link = rnn_link_.step(link_msg, h_link);
    }
    if (use_nodes && !positional_node_msgs) {
      // The paper's rule: element-wise sum of the (freshly updated)
      // states of all paths traversing each node, fed to RNN_N.
      const nn::Var gathered = nn::gather_rows(h_path, plan->inc_path_rows);
      node_msg = nn::segment_sum(gathered, plan->inc_node_ids, plan->num_nodes);
    }
    if (node_msg.defined()) {
      if (node_inv_count.defined())
        node_msg = nn::mul(node_msg, node_inv_count);
      h_node = rnn_node_->step(node_msg, h_node);
    }
  }

  ForwardTrace tr;
  tr.path_states = h_path;
  tr.link_states = h_link;
  tr.node_states = h_node;
  tr.predictions = readout_.forward(h_path);
  return tr;
}

nn::Var Model::forward(const data::Sample& sample,
                       const data::Scaler& scaler) const {
  return forward_traced(sample, scaler).predictions;
}

std::unique_ptr<Model> Model::clone() const {
  auto copy = std::make_unique<Model>(kind_, cfg_);
  copy->copy_params_from(*this);
  return copy;
}

nn::NamedParams Model::named_params() const {
  nn::NamedParams out = rnn_path_.named_params();
  for (auto& p : rnn_link_.named_params()) out.push_back(std::move(p));
  if (rnn_node_)
    for (auto& p : rnn_node_->named_params()) out.push_back(std::move(p));
  for (auto& p : readout_.named_params()) out.push_back(std::move(p));
  return out;
}

}  // namespace rnx::core
