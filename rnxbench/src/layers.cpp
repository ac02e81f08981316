// Per-layer probes for the traced run.  Each probe is a span around a
// call into one module's public API, at the shapes the workloads use:
// the nn kernels at the forward's GRU shape, the core plan build and
// both forwards on a query scenario, forward_batch at the serve phase's
// observed batch size, one training step split into loss forward,
// backward and Adam, and the packet simulation the model replaces.
#include <cmath>

#include "core/model.hpp"
#include "core/plan.hpp"
#include "core/plan_cache.hpp"
#include "core/trainer.hpp"
#include "nn/gru.hpp"
#include "nn/init.hpp"
#include "nn/optimizer.hpp"
#include "sim/simulator.hpp"
#include "topo/routing.hpp"
#include "topo/traffic.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace rnxbench {

using namespace rnx;

namespace {

constexpr std::size_t kReps = 30;
/// Active path rows of an average GEANT2 position (4,024 / 18).
constexpr std::size_t kGruRows = 224;
constexpr std::size_t kKernelBlock = 100;

/// The simulation behind one label of the pipeline's dataset, on the
/// sample's own topology, routing and traffic.
struct SimInputs {
  explicit SimInputs(const data::Sample& s)
      : topo(s.to_topology()), routing(s.num_nodes), tm(s.num_nodes) {
    for (const data::PathRecord& p : s.paths) {
      routing.set_path(p.src, p.dst, topo::Path{p.nodes, p.links});
      tm.set(p.src, p.dst, p.traffic_bps);
    }
    cfg.window_s = static_cast<double>(frozen::kGenPackets) /
                   (tm.total() / cfg.mean_packet_bits);
    cfg.warmup_s = 0.1 * cfg.window_s;
    cfg.seed = 11;
  }
  topo::Topology topo;
  topo::RoutingScheme routing;
  topo::TrafficMatrix tm;
  sim::SimConfig cfg;
};

}  // namespace

double forward_flops(const data::Sample& sample, bool use_nodes,
                     std::size_t state_dim, std::size_t readout,
                     std::size_t iterations) {
  const core::MpPlan plan = core::build_plan(sample, use_nodes);
  // A GRU step over R rows with input and hidden width H multiplies
  // [x|h] (R x 2H) by 2H x 3H of weights: 12 R H^2 FLOPs.
  const double h2 = static_cast<double>(state_dim * state_dim);
  const double rows_per_iter =
      static_cast<double>(plan.total_entries() + plan.num_links +
                          (use_nodes ? plan.num_nodes : 0));
  const double readout_flops =
      2.0 * static_cast<double>(plan.num_paths) *
      static_cast<double>(state_dim * readout + readout);
  return static_cast<double>(iterations) * 12.0 * h2 * rows_per_iter +
         readout_flops;
}

ProbeCounts run_layer_probes(const Fixture& fx, std::size_t serve_batch,
                             Tracer& tracer, Ledger& ledger) {
  const ScopedSpan phase(tracer, "bench.probes");
  ProbeCounts counts;
  util::RngStream rng(5);
  const data::Sample& geant2 = fx.query_scenarios.front();
  const std::size_t h = frozen::kQueryStateDim;

  // -- nn: the z/r panel matmul and the fused GRU step ---------------------
  {
    const nn::Tensor a = nn::uniform_init(kGruRows, 2 * h, -1.0, 1.0, rng);
    const nn::Tensor b = nn::uniform_init(2 * h, 2 * h, -1.0, 1.0, rng);
    nn::Tensor c(kGruRows, 2 * h);
    counts.matmul_flops = 2.0 * kGruRows * 2 * h * 2 * h * kKernelBlock;
    for (std::size_t r = 0; r < kReps; ++r) {
      const ScopedSpan span(tracer, "nn.matmul_acc");
      for (std::size_t i = 0; i < kKernelBlock; ++i) nn::matmul_acc(c, a, b);
    }
    ledger.expect(std::isfinite(c.squared_norm()), "matmul probe output");
  }
  {
    const nn::GRUCell cell(h, h, rng);
    const nn::Var x(nn::uniform_init(kGruRows, h, -1.0, 1.0, rng), false);
    nn::Var state(nn::uniform_init(kGruRows, h, -1.0, 1.0, rng), false);
    const nn::NoGradGuard no_grad;
    counts.gru_steps = kKernelBlock;
    for (std::size_t r = 0; r < kReps; ++r) {
      const ScopedSpan span(tracer, "nn.GRUCell::step");
      for (std::size_t i = 0; i < kKernelBlock; ++i)
        state = cell.step(x, state);
    }
    ledger.expect(std::isfinite(state.value().squared_norm()),
                  "GRU probe output");
  }

  // -- core: plan build and both forwards on a warm cache -----------------
  for (std::size_t r = 0; r < kReps; ++r) {
    const ScopedSpan span(tracer, "core.build_plan");
    counts.plan_bytes = static_cast<double>(
        core::build_plan(geant2, /*use_nodes=*/true).bytes());
  }
  counts.flops_ext = forward_flops(geant2, true, h, frozen::kQueryReadout,
                                   frozen::kQueryIterations);
  counts.flops_orig = forward_flops(geant2, false, h, frozen::kQueryReadout,
                                    frozen::kQueryIterations);
  {
    const nn::NoGradGuard no_grad;
    for (std::size_t r = 0; r < kReps; ++r) {
      {
        const ScopedSpan span(tracer, "core.Model::forward.ext");
        (void)fx.query_ext->model().forward(geant2, fx.query_ext->scaler());
      }
      {
        const ScopedSpan span(tracer, "core.Model::forward.orig");
        (void)fx.query_orig->model().forward(geant2, fx.query_orig->scaler());
      }
    }
  }

  // -- serve: forward_batch at the observed mean batch size ---------------
  {
    const auto last = static_cast<std::int64_t>(fx.serve_scenarios.size()) - 1;
    std::vector<const data::Sample*> batch;
    for (std::size_t i = 0; i < serve_batch; ++i)
      batch.push_back(&fx.serve_scenarios[static_cast<std::size_t>(
          rng.uniform_int(0, last))]);
    const serve::InferenceEngine& engine = fx.registry->at("ext");
    for (std::size_t r = 0; r < kReps; ++r) {
      const ScopedSpan span(tracer, "core.Model::forward_batch");
      (void)engine.model().forward_batch(batch, engine.scaler(),
                                         fx.registry->pool());
    }
  }

  // -- core trainer + nn autograd/optimizer: one step, split --------------
  {
    core::ModelConfig mc;
    mc.state_dim = frozen::kTrainStateDim;
    mc.readout_hidden = frozen::kTrainReadout;
    mc.iterations = frozen::kTrainIterations;
    core::PlanCache plans;  // as in Trainer::fit: plans built once
    const std::unique_ptr<core::Model> model =
        core::make_model(core::ModelKind::kExtended, mc);
    const core::PlanCacheScope restore(*model);
    model->set_plan_cache(&plans);
    std::vector<nn::Var> params;
    for (auto& [name, v] : model->named_params()) params.push_back(v);
    nn::Adam adam(params, 2e-3);
    const data::Scaler& scaler = fx.query_ext->scaler();
    for (std::size_t r = 0; r < kReps / 3; ++r) {
      adam.zero_grad();
      nn::Var loss;
      {
        const ScopedSpan span(tracer, "core.Trainer::sample_loss");
        loss = core::Trainer::sample_loss(*model, geant2, scaler, 5);
      }
      {
        const ScopedSpan span(tracer, "nn.Var::backward");
        loss.backward();
      }
      {
        const ScopedSpan span(tracer, "nn.Adam::step");
        adam.step();
      }
      ledger.expect(std::isfinite(loss.value().item()),
                    "training-step probe loss");
    }
  }

  // -- sim: the label simulation of the same GEANT2 scenario --------------
  const SimInputs inputs(geant2);
  for (int r = 0; r < 3; ++r) {
    sim::SimResult res;
    {
      const ScopedSpan span(tracer, "sim.Simulator::run");
      res = sim::Simulator(inputs.topo, inputs.routing, inputs.tm, inputs.cfg)
                .run();
    }
    counts.sim_events = static_cast<double>(res.total_events);
    ledger.expect(res.paths.size() == geant2.paths.size(),
                  "simulation probe path count");
  }
  return counts;
}

}  // namespace rnxbench
