// The grad-enabled (training) forward against the op-by-op oracle in
// tests/forward_reference.hpp.
//
// Values: predictions and every entity state must agree bit for bit.
// Gradients: every parameter gradient and the gradient of each initial
// entity state must agree within 1e-10 of the oracle's largest entry —
// the training forward sums the same terms in a different order
// (DESIGN.md §G).  Both run over the InferenceParity matrix: both model
// kinds, both node-update rules, the mean-aggregation switches, the
// feature sets, four sample shapes and every kernel backend this host
// has.  A central-difference gradcheck through the whole model and a
// short fit against an oracle-forward Adam loop close the loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "autograd_testing.hpp"
#include "core/model.hpp"
#include "core/plan.hpp"
#include "core/trainer.hpp"
#include "eval/metrics.hpp"
#include "forward_reference.hpp"
#include "nn/ops.hpp"
#include "nn/optimizer.hpp"
#include "parity_samples.hpp"

namespace {

using namespace rnx;
using test::bitwise_equal;
using test::Features;
using test::golden_sample;
using test::host_backends;

/// Everything one forward + backward produces.
struct Run {
  core::ForwardTrace trace;
  std::vector<nn::Tensor> param_grads;  ///< named_params() order
  std::vector<nn::Tensor> state_grads;  ///< initial path, link[, node]
};

/// Forward from initial states that require gradients, then backward of
/// MSE(predictions, 0) — plus, with `all_outputs`, the mean squares of
/// the final link and node states, so the last iteration's link and
/// node updates are on the gradient path too.
Run run_once(const core::Model& m, const data::Sample& s,
             const data::Scaler& sc, bool reference, bool all_outputs) {
  const bool use_nodes = m.kind() == core::ModelKind::kExtended;
  const auto plan =
      std::make_shared<const core::MpPlan>(core::build_plan(s, use_nodes));
  std::vector<nn::Var> states = {
      nn::Var(core::initial_path_states(s, sc, m.config()).value(), true),
      nn::Var(core::initial_link_states(s, sc, m.config()).value(), true)};
  if (use_nodes)
    states.emplace_back(
        core::initial_node_states(s, sc, m.config()).value(), true);
  const nn::Var h_node = use_nodes ? states[2] : nn::Var();
  Run out;
  out.trace =
      reference
          ? test::reference_forward_from(m, *plan, states[0], states[1],
                                         h_node)
          : m.forward_from(plan, states[0], states[1], h_node);
  const nn::Var& pred = out.trace.predictions;
  nn::Var loss = nn::mse_loss(pred, nn::Tensor::zeros(pred.rows(), 1));
  if (all_outputs) {
    const nn::Var& link = out.trace.link_states;
    loss = nn::add(loss, nn::mean_all(nn::mul(link, link)));
    if (use_nodes) {
      const nn::Var& node = out.trace.node_states;
      loss = nn::add(loss, nn::mean_all(nn::mul(node, node)));
    }
  }
  loss.backward();
  for (auto& [name, p] : m.named_params()) {
    out.param_grads.push_back(p.grad());
    p.zero_grad();
  }
  for (const nn::Var& st : states) out.state_grads.push_back(st.grad());
  return out;
}

/// max|g - g_ref| <= 1e-10 * max|g_ref| (exact zeros where the oracle's
/// gradient is identically zero).
void expect_grad_close(const nn::Tensor& g, const nn::Tensor& ref,
                       const std::string& what) {
  ASSERT_TRUE(g.same_shape(ref)) << what;
  double max_ref = 0.0, max_diff = 0.0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    max_ref = std::max(max_ref, std::abs(ref.flat()[i]));
    max_diff = std::max(max_diff, std::abs(g.flat()[i] - ref.flat()[i]));
  }
  EXPECT_LE(max_diff, 1e-10 * max_ref)
      << what << ": max|g - g_ref| = " << max_diff
      << ", max|g_ref| = " << max_ref;
}

void expect_train_parity(const core::Model& m, const data::Sample& s,
                         const data::Scaler& sc, bool all_outputs,
                         const std::string& what) {
  const Run ref = run_once(m, s, sc, /*reference=*/true, all_outputs);
  const Run got = run_once(m, s, sc, /*reference=*/false, all_outputs);
  ASSERT_TRUE(got.trace.predictions.requires_grad()) << what;
  EXPECT_TRUE(bitwise_equal(got.trace.predictions.value(),
                            ref.trace.predictions.value()))
      << what << ": predictions";
  EXPECT_TRUE(bitwise_equal(got.trace.path_states.value(),
                            ref.trace.path_states.value()))
      << what << ": path states";
  EXPECT_TRUE(bitwise_equal(got.trace.link_states.value(),
                            ref.trace.link_states.value()))
      << what << ": link states";
  ASSERT_EQ(got.trace.node_states.defined(), ref.trace.node_states.defined())
      << what;
  if (ref.trace.node_states.defined()) {
    EXPECT_TRUE(bitwise_equal(got.trace.node_states.value(),
                              ref.trace.node_states.value()))
        << what << ": node states";
  }
  // The sample-level entry point (plan lookup, constant initial states)
  // runs the same forward.
  EXPECT_TRUE(bitwise_equal(m.forward(s, sc).value(),
                            ref.trace.predictions.value()))
      << what << ": forward()";

  const nn::NamedParams params = m.named_params();
  ASSERT_EQ(got.param_grads.size(), params.size());
  for (std::size_t i = 0; i < params.size(); ++i)
    expect_grad_close(got.param_grads[i], ref.param_grads[i],
                      what + " d/d" + params[i].first);
  const char* state_names[] = {"path", "link", "node"};
  ASSERT_EQ(got.state_grads.size(), ref.state_grads.size());
  for (std::size_t i = 0; i < ref.state_grads.size(); ++i)
    expect_grad_close(got.state_grads[i], ref.state_grads[i],
                      what + " d/d initial " + state_names[i] + " state");
}

TEST(TrainParity, MatchesReferenceForwardAndGradients) {
  const auto samples = test::parity_samples();
  for (const auto* backend : host_backends()) {
    const nn::kernels::ScopedBackendOverride pin(*backend);
    for (const auto& [topo_name, s] : samples) {
      const data::Scaler sc = data::Scaler::fit(std::span(&s, 1), 0);
      for (const auto kind :
           {core::ModelKind::kOriginal, core::ModelKind::kExtended})
        for (const auto rule : {core::NodeUpdateRule::kSumPathStates,
                                core::NodeUpdateRule::kPositionalMessages})
          for (const bool node_mean : {false, true})
            for (const bool link_mean : {false, true})
              for (const auto features :
                   {Features::kBase, Features::kScenario,
                    Features::kScaleInvariant}) {
                // The node switches do not reach the original model.
                if (kind == core::ModelKind::kOriginal &&
                    (rule != core::NodeUpdateRule::kSumPathStates ||
                     !node_mean))
                  continue;
                core::ModelConfig cfg;
                cfg.state_dim = 12;  // 2H = 24: full and ragged tiles
                cfg.readout_hidden = 8;
                cfg.iterations = 3;
                cfg.node_rule = rule;
                cfg.node_mean_aggregation = node_mean;
                cfg.link_mean_aggregation = link_mean;
                cfg.scenario_features = features == Features::kScenario;
                cfg.scale_invariant_features =
                    features == Features::kScaleInvariant;
                const auto m = core::make_model(kind, cfg);
                expect_train_parity(
                    *m, s, sc, /*all_outputs=*/true,
                    std::string(backend->name) + " " + topo_name + " " +
                        std::string(core::to_string(kind)) + " rule=" +
                        std::to_string(static_cast<int>(rule)) +
                        " node_mean=" + std::to_string(node_mean) +
                        " link_mean=" + std::to_string(link_mean) +
                        " features=" +
                        std::to_string(static_cast<int>(features)));
              }
    }
  }
}

TEST(TrainParity, DefaultWidthAndShallowIterations) {
  // H=16 (whole 2x16 register tiles), T=0 (no message passing: only the
  // readout and the initial path state carry gradient), T=1 and the
  // default T=4, on the training loss alone: the last iteration's link
  // and node updates are off the gradient path.
  const data::Sample s = golden_sample(topo::geant2(), 37);
  const data::Scaler sc = data::Scaler::fit(std::span(&s, 1));
  for (const auto* backend : host_backends()) {
    const nn::kernels::ScopedBackendOverride pin(*backend);
    for (const std::size_t iterations :
         {std::size_t{0}, std::size_t{1}, std::size_t{4}})
      for (const auto kind :
           {core::ModelKind::kOriginal, core::ModelKind::kExtended}) {
        core::ModelConfig cfg;
        cfg.iterations = iterations;
        const auto m = core::make_model(kind, cfg);
        expect_train_parity(*m, s, sc, /*all_outputs=*/false,
                            std::string(backend->name) + " T=" +
                                std::to_string(iterations) + " " +
                                std::string(core::to_string(kind)));
      }
  }
}

TEST(ModelGradcheck, CentralDifferencesTinySample) {
  // Every weight and every initial-state entry of both kinds against
  // central differences, through the whole model (H=3, T=2).
  const data::Sample s = golden_sample(topo::ring(4), 59);
  const data::Scaler sc = data::Scaler::fit(std::span(&s, 1), 0);
  for (const auto kind :
       {core::ModelKind::kOriginal, core::ModelKind::kExtended}) {
    core::ModelConfig cfg;
    cfg.state_dim = 3;
    cfg.readout_hidden = 4;
    cfg.iterations = 2;
    const auto m = core::make_model(kind, cfg);
    const bool use_nodes = kind == core::ModelKind::kExtended;
    const auto plan =
        std::make_shared<const core::MpPlan>(core::build_plan(s, use_nodes));
    std::vector<nn::Var> params;
    for (auto& [name, p] : m->named_params()) params.push_back(p);
    const nn::Var h_path(core::initial_path_states(s, sc, cfg).value(), true);
    const nn::Var h_link(core::initial_link_states(s, sc, cfg).value(), true);
    nn::Var h_node;
    if (use_nodes)
      h_node = nn::Var(core::initial_node_states(s, sc, cfg).value(), true);
    params.push_back(h_path);
    params.push_back(h_link);
    if (use_nodes) params.push_back(h_node);
    nn::Tensor target(s.paths.size(), 1);
    for (std::size_t i = 0; i < s.paths.size(); ++i)
      target(i, 0) = 0.1 * static_cast<double>(i % 5) - 0.2;
    const auto loss = [&] {
      return nn::mse_loss(
          m->forward_from(plan, h_path, h_link, h_node).predictions, target);
    };
    const nn::GradCheckReport rep = nn::grad_check(loss, params, 1e-6);
    EXPECT_GT(rep.entries, 0u);
    EXPECT_TRUE(rep.ok(1e-6))
        << core::to_string(kind) << ": max rel err " << rep.max_rel_err;
  }
}

/// Trainer::sample_loss over the oracle forward.
nn::Var reference_sample_loss(const core::Model& m, const data::Sample& s,
                              const data::Scaler& sc,
                              std::uint64_t min_delivered) {
  const std::vector<nn::Index> valid = core::valid_label_rows(s, min_delivered);
  if (valid.empty()) return {};
  nn::Tensor labels(valid.size(), 1);
  for (std::size_t i = 0; i < valid.size(); ++i)
    labels(i, 0) = sc.delay_to_target(s.paths[valid[i]].mean_delay_s);
  const nn::Var pred = test::reference_forward(m, s, sc).predictions;
  return nn::mse_loss(nn::gather_rows(pred, valid), labels);
}

TEST(TrainParity, ShortFitMatchesReferenceAdamLoop) {
  // Trainer::fit for 3 epochs on 2 samples against the same recipe
  // written out over the oracle forward (Fisher-Yates order, per-sample
  // gradients merged in sample order, mean, clip, Adam, lr decay): the
  // held-out MRE must agree to round-off.
  std::vector<data::Sample> train_samples, test_samples;
  for (std::uint64_t i = 0; i < 4; ++i)
    (i < 2 ? train_samples : test_samples)
        .push_back(golden_sample(topo::nsfnet(), 61 + i));
  const data::Dataset train(std::move(train_samples));
  const data::Dataset held_out(std::move(test_samples));
  core::TrainConfig tc;
  tc.epochs = 3;
  tc.batch_samples = 2;
  tc.lr = 2e-3;
  tc.verbose = false;
  const data::Scaler sc = data::Scaler::fit(train.samples(), tc.min_delivered);
  for (const auto kind :
       {core::ModelKind::kOriginal, core::ModelKind::kExtended}) {
    core::ModelConfig mc;
    mc.state_dim = 8;
    mc.readout_hidden = 8;
    mc.iterations = 3;

    const auto fitted = core::make_model(kind, mc);
    core::Trainer trainer(*fitted, tc);
    (void)trainer.fit(train, sc);

    const auto oracle = core::make_model(kind, mc);
    std::vector<nn::Var> params;
    for (auto& [name, p] : oracle->named_params()) params.push_back(p);
    nn::Adam adam(params, tc.lr);
    util::RngStream shuffle(tc.seed);
    std::vector<std::size_t> order(train.size());
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t epoch = 0; epoch < tc.epochs; ++epoch) {
      for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1],
                  order[static_cast<std::size_t>(shuffle.uniform_int(
                      0, static_cast<std::int64_t>(i) - 1))]);
      std::vector<std::vector<nn::Tensor>> slots;
      for (const std::size_t i : order) {
        const nn::Var loss =
            reference_sample_loss(*oracle, train[i], sc, tc.min_delivered);
        if (!loss.defined()) continue;
        loss.backward();
        slots.emplace_back();
        for (nn::Var& p : params) {
          slots.back().push_back(p.grad());
          p.zero_grad();
        }
      }
      ASSERT_FALSE(slots.empty());
      for (const auto& slot : slots)
        for (std::size_t k = 0; k < params.size(); ++k)
          params[k].grad_ref().add_inplace(slot[k]);
      for (nn::Var& p : params)
        p.grad_ref().scale_inplace(1.0 / static_cast<double>(slots.size()));
      adam.clip_global_norm(tc.clip_norm);
      adam.step();
      adam.zero_grad();
      adam.set_lr(adam.lr() * tc.lr_decay);
    }

    const double got =
        eval::summarize(eval::predict_dataset(*fitted, held_out, sc,
                                              tc.min_delivered))
            .mape;
    const double want =
        eval::summarize(eval::predict_dataset(*oracle, held_out, sc,
                                              tc.min_delivered))
            .mape;
    ASSERT_TRUE(std::isfinite(want) && want > 0.0);
    EXPECT_LE(std::abs(got - want), 1e-9 * want)
        << core::to_string(kind) << ": fit MRE " << got << ", oracle " << want;
  }
}

}  // namespace
