// Set-up shared by the query and serve phases: scenarios generated from
// the seed, untrained model bundles (weights from a fixed init seed),
// engines with warm plan caches and the reference predictions every
// response is checked against.
#include <utility>

#include "core/model.hpp"
#include "core/plan.hpp"
#include "data/generator.hpp"
#include "data/normalize.hpp"
#include "topo/zoo.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace rnxbench {
namespace {

using namespace rnx;

/// Scenarios need only enough packets for the scaler's label moments;
/// the phases read the model inputs, not the labels.  Hop-count routing
/// keeps each topology's plan (and so the forward's work) the same for
/// every seed: the seed draws capacities, queue sizes and traffic.
constexpr std::uint64_t kScenarioPackets = 5'000;
constexpr std::uint64_t kScalerMinDelivered = 5;

std::vector<data::Sample> scenarios(const topo::Topology& base,
                                    std::size_t count,
                                    const util::RngStream& root,
                                    std::string_view label) {
  data::GeneratorConfig gen;
  gen.target_packets = kScenarioPackets;
  gen.util_lo = 0.5;
  gen.util_hi = 0.9;
  gen.randomize_routing = false;
  std::vector<data::Sample> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    util::RngStream rng = root.derive(label, i);
    out.push_back(data::generate_sample(base, gen, rng));
  }
  return out;
}

serve::ModelBundle bundle(core::ModelKind kind, std::size_t state_dim,
                          std::size_t readout, std::size_t iterations,
                          const data::Scaler& scaler) {
  core::ModelConfig mc;
  mc.state_dim = state_dim;
  mc.readout_hidden = readout;
  mc.iterations = iterations;
  serve::ModelBundle b;
  b.model = core::make_model(kind, mc);
  b.scaler = scaler;
  b.target = core::PredictionTarget::kDelay;
  b.min_delivered = kScalerMinDelivered;
  return b;
}

}  // namespace

std::unique_ptr<Fixture> build_fixture(std::uint64_t seed) {
  using frozen::kServeGeant2;
  using frozen::kServeNsfnet;
  const util::RngStream root(seed);
  auto fx = std::make_unique<Fixture>();

  // -- query: private engines, H=16, T=4 ---------------------------------
  fx->query_scenarios = scenarios(topo::geant2(), frozen::kQueryScenarios,
                                  root, "query");
  const data::Scaler qscaler =
      data::Scaler::fit(fx->query_scenarios, kScalerMinDelivered);
  fx->query_ext = std::make_unique<serve::InferenceEngine>(
      bundle(core::ModelKind::kExtended, frozen::kQueryStateDim,
             frozen::kQueryReadout, frozen::kQueryIterations, qscaler));
  fx->query_orig = std::make_unique<serve::InferenceEngine>(
      bundle(core::ModelKind::kOriginal, frozen::kQueryStateDim,
             frozen::kQueryReadout, frozen::kQueryIterations, qscaler));
  for (const data::Sample& s : fx->query_scenarios) {
    fx->query_ref_ext.push_back(fx->query_ext->predict(s));
    fx->query_ref_orig.push_back(fx->query_orig->predict(s));
  }

  // -- serve: one registry, shared byte-budgeted plan cache --------------
  fx->serve_scenarios = scenarios(topo::nsfnet(), kServeNsfnet, root, "nsfnet");
  for (data::Sample& s :
       scenarios(topo::geant2(), kServeGeant2, root, "geant2"))
    fx->serve_scenarios.push_back(std::move(s));
  const data::Scaler sscaler =
      data::Scaler::fit(fx->serve_scenarios, kScalerMinDelivered);
  // The budget holds about half of the distinct plans (both variants),
  // so the mixed stream misses and evicts.
  std::size_t plan_bytes = 0;
  for (const data::Sample& s : fx->serve_scenarios)
    plan_bytes += core::build_plan(s, /*use_nodes=*/true).bytes() +
                  core::build_plan(s, /*use_nodes=*/false).bytes();
  fx->registry = std::make_unique<serve::ModelRegistry>(frozen::kServeLanes);
  fx->registry->set_plan_cache_budget(static_cast<std::size_t>(
      frozen::kServeCacheFraction * static_cast<double>(plan_bytes)));
  const serve::InferenceEngine& ext = fx->registry->add(
      "ext", bundle(core::ModelKind::kExtended, frozen::kServeStateDim,
                    frozen::kServeReadout, frozen::kServeIterations, sscaler));
  const serve::InferenceEngine& orig = fx->registry->add(
      "orig", bundle(core::ModelKind::kOriginal, frozen::kServeStateDim,
                     frozen::kServeReadout, frozen::kServeIterations, sscaler));
  for (const data::Sample& s : fx->serve_scenarios) {
    fx->serve_ref_ext.push_back(ext.predict(s));
    fx->serve_ref_orig.push_back(orig.predict(s));
  }
  return fx;
}

}  // namespace rnxbench
