// Prediction pins for the two RouteNet forwards.
//
// Golden digests: the scalar-backend predictions of both model kinds on
// one NSFNET and one GEANT2 sample, hashed bit for bit.  The constants
// were captured from the op-by-op autograd forward before the packed
// inference forward existed (DESIGN.md §G); both forwards must keep
// reproducing them, with and without NoGrad.
//
// Parity: the packed inference forward (core/infer.cpp, taken under
// NoGrad) must equal the grad-enabled training forward bit for bit —
// predictions and every entity state — across both model kinds, both
// node-update rules, the mean-aggregation switches, the feature sets,
// four sample shapes and every kernel backend this host has, and must
// keep doing so after the weights change underneath it.  The op-by-op
// autograd forward both are pinned to lives in tests/forward_reference.hpp
// (tests/train_parity_test.cpp holds the training forward to it).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/plan_cache.hpp"
#include "data/generator.hpp"
#include "nn/kernels.hpp"
#include "nn/ops.hpp"
#include "nn/optimizer.hpp"
#include "parity_samples.hpp"
#include "topo/zoo.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace rnx;
using test::bitwise_equal;
using test::Features;
using test::golden_sample;
using test::host_backends;
using test::parity_samples;

std::uint64_t fnv1a64(std::uint64_t h, const nn::Tensor& t) {
  for (const double v : t.flat()) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

std::uint64_t digest(const nn::Tensor& t) {
  return fnv1a64(0xcbf29ce484222325ull, t);
}

struct GoldenCase {
  const char* topo;
  core::ModelKind kind;
  std::uint64_t digest;
};

TEST(ForwardGolden, ScalarPredictionsMatchPinnedDigests) {
  const nn::kernels::ScopedBackendOverride scalar(
      nn::kernels::scalar_backend());
  const data::Sample nsf = golden_sample(topo::nsfnet(), 17);
  const data::Sample geant = golden_sample(topo::geant2(), 19);
  const GoldenCase cases[] = {
      {"nsfnet", core::ModelKind::kOriginal, 0xd9d57a1adbf0ba53ull},
      {"nsfnet", core::ModelKind::kExtended, 0x2544f5a3108a6c16ull},
      {"geant2", core::ModelKind::kOriginal, 0xc03ab5cf67568591ull},
      {"geant2", core::ModelKind::kExtended, 0x836246774c25e5b4ull},
  };
  for (const GoldenCase& gc : cases) {
    const data::Sample& s = std::strcmp(gc.topo, "nsfnet") == 0 ? nsf : geant;
    const data::Scaler sc = data::Scaler::fit(std::span(&s, 1));
    const std::unique_ptr<core::Model> m =
        core::make_model(gc.kind, core::ModelConfig{});
    const std::uint64_t taped = digest(m->forward(s, sc).value());
    std::uint64_t inference = 0;
    {
      const nn::NoGradGuard guard;
      inference = digest(m->forward(s, sc).value());
    }
    EXPECT_EQ(taped, gc.digest)
        << gc.topo << " " << core::to_string(gc.kind) << " got 0x" << std::hex
        << taped;
    EXPECT_EQ(inference, gc.digest)
        << gc.topo << " " << core::to_string(gc.kind) << " (NoGrad) got 0x"
        << std::hex << inference;
  }
}

// ---- inference forward == autograd forward -----------------------------

/// Asserts every product of the two forwards agrees bit for bit.
void expect_forwards_equal(const core::Model& m, const data::Sample& s,
                           const data::Scaler& sc, const std::string& what) {
  const core::ForwardTrace taped = m.forward_traced(s, sc);
  ASSERT_TRUE(taped.predictions.requires_grad()) << what;
  core::ForwardTrace fast;
  {
    const nn::NoGradGuard guard;
    fast = m.forward_traced(s, sc);
  }
  EXPECT_TRUE(bitwise_equal(taped.predictions.value(),
                            fast.predictions.value()))
      << what << ": predictions";
  EXPECT_TRUE(bitwise_equal(taped.path_states.value(),
                            fast.path_states.value()))
      << what << ": path states";
  EXPECT_TRUE(bitwise_equal(taped.link_states.value(),
                            fast.link_states.value()))
      << what << ": link states";
  ASSERT_EQ(taped.node_states.defined(), fast.node_states.defined()) << what;
  if (taped.node_states.defined()) {
    EXPECT_TRUE(bitwise_equal(taped.node_states.value(),
                              fast.node_states.value()))
        << what << ": node states";
  }
}

TEST(InferenceParity, MatchesAutogradForwardBitwise) {
  const auto samples = parity_samples();
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
                expect_forwards_equal(
                    *m, s, sc,
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

TEST(InferenceParity, DefaultWidthAndZeroIterations) {
  // H=16 (the serving width: whole 2x16 register tiles) and T=0 (the
  // initial path states pass through the packed layout untouched).
  const data::Sample s = golden_sample(topo::geant2(), 37);
  const data::Scaler sc = data::Scaler::fit(std::span(&s, 1));
  for (const auto* backend : host_backends()) {
    const nn::kernels::ScopedBackendOverride pin(*backend);
    for (const std::size_t iterations : {std::size_t{0}, std::size_t{4}})
      for (const auto kind :
           {core::ModelKind::kOriginal, core::ModelKind::kExtended}) {
        core::ModelConfig cfg;
        cfg.iterations = iterations;
        const auto m = core::make_model(kind, cfg);
        expect_forwards_equal(*m, s, sc,
                              std::string(backend->name) + " T=" +
                                  std::to_string(iterations) + " " +
                                  std::string(core::to_string(kind)));
      }
  }
}

TEST(InferenceParity, TracksWeightUpdates) {
  // The inference forward reads the weights on every call: after an Adam
  // step, copy_params_from and load_weights it must still equal the
  // autograd forward — and the predictions must actually have moved.
  const data::Sample s = golden_sample(topo::nsfnet(), 41);
  const data::Scaler sc = data::Scaler::fit(std::span(&s, 1));
  for (const auto kind :
       {core::ModelKind::kOriginal, core::ModelKind::kExtended}) {
    core::ModelConfig cfg;
    cfg.state_dim = 12;
    cfg.iterations = 3;
    const auto m = core::make_model(kind, cfg);
    const auto predict = [&] {
      const nn::NoGradGuard guard;
      return m->forward(s, sc).value();
    };
    const nn::Tensor before = predict();

    std::vector<nn::Var> params;
    for (auto& [name, v] : m->named_params()) params.push_back(v);
    nn::Adam adam(params, 1e-2);
    const nn::Var pred = m->forward(s, sc);
    const nn::Tensor target = nn::Tensor::zeros(pred.rows(), 1);
    nn::mse_loss(pred, target).backward();
    adam.step();
    const nn::Tensor stepped = predict();
    EXPECT_FALSE(bitwise_equal(before, stepped));
    expect_forwards_equal(*m, s, sc, "after adam step");

    core::ModelConfig other_cfg = cfg;
    other_cfg.init_seed = 4242;
    const auto other = core::make_model(kind, other_cfg);
    m->copy_params_from(*other);
    EXPECT_FALSE(bitwise_equal(stepped, predict()));
    expect_forwards_equal(*m, s, sc, "after copy_params_from");

    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("rnx_infer_parity_" + std::string(core::to_string(kind)) + ".rnxw");
    const auto trained = core::make_model(kind, cfg);
    trained->copy_params_from(*m);
    adam.step();  // move m away from what was saved
    trained->save_weights(path.string());
    m->load_weights(path.string());
    std::filesystem::remove(path);
    expect_forwards_equal(*m, s, sc, "after load_weights");
    const nn::NoGradGuard guard;
    EXPECT_TRUE(bitwise_equal(m->forward(s, sc).value(),
                              trained->forward(s, sc).value()));
  }
}

TEST(InferenceParity, ForwardBatchLanesShareCachedPlans) {
  // Pool lanes run the inference forward concurrently over the same
  // cached plans (each sample appears three times in the batch); every
  // output must still equal the single-threaded autograd forward.
  const data::Sample base[] = {golden_sample(topo::nsfnet(), 43),
                               golden_sample(topo::geant2(), 47)};
  std::vector<const data::Sample*> batch;
  for (int rep = 0; rep < 3; ++rep)
    for (const auto& s : base) batch.push_back(&s);
  const data::Scaler sc = data::Scaler::fit(std::span(base));
  core::PlanCache cache;
  util::ThreadPool pool(3);
  for (const auto kind :
       {core::ModelKind::kOriginal, core::ModelKind::kExtended}) {
    const auto m = core::make_model(kind, core::ModelConfig{});
    m->set_plan_cache(&cache);
    const std::vector<nn::Tensor> out = m->forward_batch(
        std::span<const data::Sample* const>(batch), sc, &pool);
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
      EXPECT_TRUE(bitwise_equal(out[i], m->forward(*batch[i], sc).value()))
          << core::to_string(kind) << " sample " << i;
    m->set_plan_cache(nullptr);
  }
}

TEST(InferenceParity, StaleCachedPlanThrowsLikeAutograd) {
  // A plan cached for a sample whose paths then change (same address)
  // must be refused, not indexed past the end of the smaller state.
  data::Sample s = golden_sample(topo::nsfnet(), 53);
  const data::Scaler sc = data::Scaler::fit(std::span(&s, 1));
  core::PlanCache cache;
  for (const auto kind :
       {core::ModelKind::kOriginal, core::ModelKind::kExtended}) {
    cache.clear();
    data::Sample stale = s;
    const auto m = core::make_model(kind, core::ModelConfig{});
    m->set_plan_cache(&cache);
    {
      const nn::NoGradGuard guard;
      (void)m->forward(stale, sc);
    }
    stale.paths.pop_back();
    EXPECT_ANY_THROW((void)m->forward(stale, sc)) << "autograd";
    const nn::NoGradGuard guard;
    EXPECT_THROW((void)m->forward(stale, sc), std::invalid_argument)
        << core::to_string(kind);
    m->set_plan_cache(nullptr);
  }
}

}  // namespace
