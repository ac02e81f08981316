// P1 — training-step throughput of both architectures on a real GEANT2
// sample (552 paths): one full step split into loss forward, backward
// and Adam, at H = 8/16/32, next to the NoGrad inference forward.
//
// The model runs with a plan cache attached, as in Trainer::fit, so the
// plan is built once and the step times only what training pays every
// step.  Prints a table and writes BENCH_training_throughput.json with
// per-phase milliseconds, samples/s, the kernel ISA and the core count
// (RNX_BENCH_QUICK=1 shortens the timing budget).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/model.hpp"
#include "core/plan_cache.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "nn/kernels.hpp"
#include "nn/optimizer.hpp"
#include "topo/zoo.hpp"
#include "util/timer.hpp"

namespace {

using namespace rnx;

/// Mean per-step milliseconds of each phase.
struct StepTimes {
  double loss_fwd_ms = 0.0;
  double backward_ms = 0.0;
  double adam_ms = 0.0;
  [[nodiscard]] double step_ms() const {
    return loss_fwd_ms + backward_ms + adam_ms;
  }
};

StepTimes time_train_steps(core::ModelKind kind, std::size_t state_dim,
                           const data::Sample& sample,
                           const data::Scaler& scaler, double budget_s) {
  core::ModelConfig mc;
  mc.state_dim = state_dim;
  core::Model model(kind, mc);
  core::PlanCache plans;
  const core::PlanCacheScope restore(model);
  model.set_plan_cache(&plans);
  std::vector<nn::Var> params;
  for (auto& [name, v] : model.named_params()) params.push_back(v);
  nn::Adam opt(params, 1e-3);

  StepTimes sum;
  const auto step = [&] {
    opt.zero_grad();
    util::Stopwatch sw;
    const nn::Var loss =
        core::Trainer::sample_loss(model, sample, scaler, 10);
    sum.loss_fwd_ms += 1e3 * sw.seconds();
    sw.reset();
    loss.backward();
    sum.backward_ms += 1e3 * sw.seconds();
    sw.reset();
    opt.clip_global_norm(10.0);
    opt.step();
    sum.adam_ms += 1e3 * sw.seconds();
    if (!std::isfinite(loss.value().item()))
      throw std::runtime_error("non-finite training loss");
  };
  step();  // warm-up: builds the plan, fills the tensor pool
  sum = StepTimes{};
  std::size_t steps = 0;
  for (const util::Stopwatch wall; wall.seconds() < budget_s; ++steps) step();
  const double n = static_cast<double>(std::max<std::size_t>(steps, 1));
  return {sum.loss_fwd_ms / n, sum.backward_ms / n, sum.adam_ms / n};
}

double time_inference_ms(core::ModelKind kind, std::size_t state_dim,
                         const data::Sample& sample,
                         const data::Scaler& scaler, double budget_s) {
  core::ModelConfig mc;
  mc.state_dim = state_dim;
  core::Model model(kind, mc);
  core::PlanCache plans;
  const core::PlanCacheScope restore(model);
  model.set_plan_cache(&plans);
  const nn::NoGradGuard guard;
  (void)model.forward(sample, scaler);  // warm-up: plan, pool
  std::size_t calls = 0;
  const util::Stopwatch wall;
  for (; wall.seconds() < budget_s; ++calls)
    (void)model.forward(sample, scaler);
  return 1e3 * wall.seconds() /
         static_cast<double>(std::max<std::size_t>(calls, 1));
}

}  // namespace

int main() {
  benchcfg::print_banner("training throughput: GEANT2 step, fwd/bwd/Adam");
  const double budget = benchcfg::quick_mode() ? 0.3 : 2.0;

  data::GeneratorConfig gen;
  gen.target_packets = 20'000;
  util::RngStream rng(13);
  const data::Sample sample = data::generate_sample(topo::geant2(), gen, rng);
  const data::Scaler scaler = data::Scaler::fit({&sample, 1});

  benchcfg::BenchResult result("training_throughput");
  result.set_config("GEANT2 sample (" + std::to_string(sample.paths.size()) +
                    " paths, 20k packets), T=4, one sample per step, plan "
                    "cache attached; inference forward under NoGrad");
  result.note("isa", nn::kernels::active().name);
  result.note("dispatch_reason", nn::kernels::dispatch_reason());
  result.note("cores", std::to_string(std::thread::hardware_concurrency()));

  std::printf("%-5s %3s %11s %11s %9s %9s %12s\n", "kind", "H", "loss_fwd_ms",
              "backward_ms", "adam_ms", "step_ms", "samples/s");
  for (const auto kind :
       {core::ModelKind::kOriginal, core::ModelKind::kExtended}) {
    const std::string tag(core::to_string(kind));
    for (const std::size_t h : {std::size_t{8}, std::size_t{16},
                                std::size_t{32}}) {
      const StepTimes t = time_train_steps(kind, h, sample, scaler, budget);
      const std::string key = tag + ".h" + std::to_string(h) + ".";
      result.add(key + "loss_fwd_ms", t.loss_fwd_ms);
      result.add(key + "backward_ms", t.backward_ms);
      result.add(key + "adam_ms", t.adam_ms);
      result.add(key + "step_ms", t.step_ms());
      result.add(key + "samples_per_s", 1e3 / t.step_ms());
      std::printf("%-5s %3zu %11.3f %11.3f %9.3f %9.3f %12.1f\n", tag.c_str(),
                  h, t.loss_fwd_ms, t.backward_ms, t.adam_ms, t.step_ms(),
                  1e3 / t.step_ms());
    }
    const double infer_ms = time_inference_ms(kind, 16, sample, scaler, budget);
    result.add(tag + ".h16.inference_ms", infer_ms);
    std::printf("%-5s %3d inference forward %.3f ms\n", tag.c_str(), 16,
                infer_ms);
  }
  result.write();
  return 0;
}
