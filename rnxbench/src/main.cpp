// rnxbench — one command per workload:
//
//   rnxbench --workload {query|serve} --seed N --seconds S
//            --trace {0|1} [--out DIR] [--commit C] [--source-digest D]
//
// Every run sets the fixture up kSetupRepeats times (setup_s is their
// median), then runs max(kMinRounds, S / kRoundSeconds) rounds of one
// slice per phase, so every end-to-end metric is measured on every
// workload; the named workload's slice is double (workloads.hpp).
// --trace 0 reports the end-to-end metrics; --trace 1 records spans
// around every call into a module, adds the per-layer probes and reports
// the per-layer metrics.  The last line of stdout is the result object;
// DIR receives the same result with the run environment (and, traced,
// the spans).  Exit status 0 only when every correctness check passed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "nn/kernels.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

namespace rnxbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out = ".bench_out";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "rnxbench: " << why
            << "\nusage: rnxbench --workload {query|serve} --seed N "
               "--seconds S --trace {0|1} [--out DIR] [--commit C] "
               "[--source-digest D]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
        have_trace = true;
      } else if (flag == "--out") {
        a.out = v;
      } else if (flag == "--commit") {
        a.commit = v;
      } else if (flag == "--source-digest") {
        a.source_digest = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload != "query" && a.workload != "serve")
    usage("--workload must be query or serve");
  if (!have_seed || !have_seconds || !have_trace)
    usage("--seed, --seconds and --trace are required");
  return a;
}

double seconds_since(Clock::time_point t) {
  return ms_between(t, Clock::now()) / 1000.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double median_or_zero(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : median(xs);
}

std::string json_array(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i)
    out += (i ? ", " : "") + json_number(xs[i]);
  return out + "]";
}

/// p99, counted as a failed check unless 10 samples lie beyond it.
double checked_p99(const std::vector<double>& ms, const char* what,
                   Ledger& ledger) {
  const Tail t = tail_percentile(ms, 99.0);
  ledger.expect(t.valid, std::string(what) + ": under 10 samples beyond p99");
  return t.value;
}

double sum(const std::vector<double>& xs) {
  double total = 0.0;
  for (const double x : xs) total += x;
  return total;
}

/// Per-call tracing cost on the query path: alternating blocks of ext
/// queries with the tracer off and on (percent of the untraced time).
double tracing_overhead_pct(const Fixture& fx, Tracer& tracer) {
  constexpr int kBlocks = 6;
  constexpr std::size_t kPerBlock = 40;
  std::vector<double> off, on;
  const bool was = tracer.enabled();
  for (int b = 0; b < 2 * kBlocks; ++b) {
    tracer.set_enabled(b % 2 == 1);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < kPerBlock; ++i) {
      const ScopedSpan span(tracer, "serve.predict.ext");
      (void)fx.query_ext->predict(
          fx.query_scenarios[i % fx.query_scenarios.size()]);
    }
    (b % 2 == 1 ? on : off).push_back(ms_between(t0, Clock::now()));
  }
  tracer.set_enabled(was);
  const double base = median(off);
  return 100.0 * (median(on) - base) / base;
}

std::string env_json(const Args& a) {
  const auto& backend = rnx::nn::kernels::active();
  std::string s = "{";
  s += "\"isa\": " + json_string(backend.name);
  s += ", \"dispatch_reason\": " +
       json_string(rnx::nn::kernels::dispatch_reason());
  s += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  s += ", \"build_type\": " + json_string(RNXBENCH_BUILD_TYPE);
  s += ", \"commit\": " + json_string(a.commit);
  s += ", \"source_digest\": " + json_string(a.source_digest);
  s += ", \"workload\": " + json_string(a.workload);
  s += ", \"seed\": " + std::to_string(a.seed);
  s += ", \"seconds\": " + json_number(a.seconds);
  s += ", \"trace\": " + std::string(a.trace ? "1" : "0");
  return s + "}";
}

struct Phases {
  QueryResult query;
  ServeResult serve;
  PipelineResult pipeline;
};

/// The dataset digest of every pipeline pass must be the same in every
/// run with this seed and these generation settings: digests persist in
/// `path`, one "pass digest" line each, and a pass seen before is
/// compared.
void check_digests_across_runs(const std::string& path,
                               const std::vector<std::uint64_t>& digests,
                               Ledger& ledger) {
  std::map<std::size_t, std::uint64_t> seen;
  {
    std::ifstream f(path);
    std::size_t pass = 0;
    std::uint64_t digest = 0;
    while (f >> pass >> digest) seen[pass] = digest;
  }
  for (std::size_t pass = 0; pass < digests.size(); ++pass) {
    const auto it = seen.find(pass);
    if (it == seen.end())
      seen[pass] = digests[pass];
    else
      ledger.expect(it->second == digests[pass],
                    "dataset digest of pass " + std::to_string(pass) +
                        " differs from an earlier run with this seed");
  }
  std::ofstream f(path);
  for (const auto& [pass, digest] : seen) f << pass << " " << digest << "\n";
  ledger.expect(static_cast<bool>(f), "write " + path);
}

std::vector<Metric> end_to_end(double setup_s, const Phases& p,
                               Ledger& ledger) {
  const PipelineResult& pl = p.pipeline;
  const auto count = [](auto v) { return static_cast<double>(v); };
  return {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"query_ext_p50_ms", median(p.query.ext_ms), "ms"},
      {"query_orig_p50_ms", median(p.query.orig_ms), "ms"},
      {"serve_goodput_rps", median(p.serve.goodput_rps), "req/s"},
      {"datagen_samples_per_s", count(pl.samples) / sum(pl.datagen2_s),
       "samples/s"},
      {"train_samples_per_s",
       count(pl.train_samples * frozen::kTrainEpochs) / sum(pl.train2_s),
       "samples/s"},
      {"eval_mre", pl.ape_sum / count(std::max<std::size_t>(pl.ape_n, 1)),
       "ratio"},
  };
}

std::vector<Metric> per_layer(const Phases& p, const ProbeCounts& c,
                              const std::vector<Span>& spans,
                              double overhead_pct, Ledger& ledger) {
  const auto span_ms = [&](std::string_view name) {
    return median_or_zero(durations_ms(spans, name));
  };
  const ServeResult& sv = p.serve;
  const PipelineResult& pl = p.pipeline;
  const double matmul_gflops =
      c.matmul_flops / (span_ms("nn.matmul_acc") * 1e6);
  const double fwd_ext = span_ms("core.Model::forward.ext");
  const double fwd_gflops = c.flops_ext / (fwd_ext * 1e6);
  const double execute_ms = span_ms("core.Model::forward_batch");
  const double sim_ms = span_ms("sim.Simulator::run");
  const std::map<std::string, double> self = layer_self_us(spans);
  const auto self_ms = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second / 1000.0;
  };
  const auto count = [](auto v) { return static_cast<double>(v); };
  return {
      {"nn.matmul_gflops", matmul_gflops, "GFLOP/s"},
      {"nn.gru_step_us", span_ms("nn.GRUCell::step") * 1000.0 / c.gru_steps,
       "us"},
      {"nn.backward_ms", span_ms("nn.Var::backward"), "ms"},
      {"nn.adam_step_ms", span_ms("nn.Adam::step"), "ms"},
      {"core.forward_ms.ext", fwd_ext, "ms"},
      {"core.forward_ms.orig", span_ms("core.Model::forward.orig"), "ms"},
      {"core.forward_gflops", fwd_gflops, "GFLOP/s"},
      {"core.kernel_ceiling_ratio", fwd_gflops / matmul_gflops, "ratio"},
      {"core.plan_build_us", span_ms("core.build_plan") * 1000.0, "us"},
      {"core.plan_bytes", c.plan_bytes, "bytes"},
      {"core.plan_cache.hit_ratio",
       sv.cache_lookups ? count(sv.cache_hits) / count(sv.cache_lookups) : 0.0,
       "ratio"},
      {"core.plan_cache.lookups", count(sv.cache_lookups), "count"},
      {"core.plan_cache.evictions", count(sv.cache_evictions), "count"},
      {"core.plan_cache.peak_bytes", count(sv.cache_peak_bytes), "bytes"},
      {"core.trainer.epoch_s", median_or_zero(pl.epoch_s), "s"},
      {"core.trainer.loss_fwd_ms", span_ms("core.Trainer::sample_loss"), "ms"},
      {"core.trainer.lane_efficiency",
       sum(pl.train1_s) / sum(pl.train2_s) / count(frozen::kLanes), "ratio"},
      {"serve.predict.ext_p99_ms",
       checked_p99(p.query.ext_ms, "query ext", ledger), "ms"},
      {"serve.p50_ms", median_or_zero(sv.moderate_ms), "ms"},
      {"serve.p99_ms", checked_p99(sv.moderate_ms, "serve moderate", ledger),
       "ms"},
      {"serve.submit_us", median_or_zero(sv.submit_us), "us"},
      {"serve.mean_batch_samples",
       sv.batches ? count(sv.batch_samples) / count(sv.batches) : 0.0,
       "samples"},
      {"serve.peak_queue_depth", count(sv.peak_queue_depth), "requests"},
      {"serve.execute_ms", execute_ms, "ms"},
      {"serve.queue_wait_ms", median_or_zero(sv.moderate_ms) - execute_ms,
       "ms"},
      {"serve.generator_late_ms",
       sv.late_ms.empty() ? 0.0 : tail_percentile(sv.late_ms, 99.0).value,
       "ms"},
      {"serve.attempted", count(sv.attempted), "requests"},
      {"serve.completed", count(sv.completed), "requests"},
      {"serve.shed", count(sv.shed), "requests"},
      {"serve.expired", count(sv.expired), "requests"},
      {"serve.failed", count(sv.failed), "requests"},
      {"sim.run_ms", sim_ms, "ms"},
      {"sim.events", c.sim_events, "count"},
      {"sim.events_per_s", c.sim_events / (sim_ms / 1000.0), "1/s"},
      {"data.generate_sample_ms",
       sum(pl.datagen1_s) * 1000.0 / count(pl.samples), "ms"},
      {"data.datagen_lane_efficiency",
       sum(pl.datagen1_s) / sum(pl.datagen2_s) / count(frozen::kLanes),
       "ratio"},
      {"data.shard_write_mb_per_s", pl.shard_bytes / 1e6 / pl.shard_write_s,
       "MB/s"},
      {"model_vs_sim_cost_ratio", sim_ms / fwd_ext, "ratio"},
      {"trace.overhead_pct", overhead_pct, "%"},
      {"bench.self_ms", self_ms("bench"), "ms"},
      {"serve.self_ms", self_ms("serve"), "ms"},
      {"core.self_ms", self_ms("core"), "ms"},
      {"nn.self_ms", self_ms("nn"), "ms"},
      {"data.self_ms", self_ms("data"), "ms"},
      {"sim.self_ms", self_ms("sim"), "ms"},
  };
}

int run(const Args& args) {
  rnx::util::set_log_level(rnx::util::LogLevel::kWarn);
  std::filesystem::create_directories(args.out);
  const std::string env = env_json(args);
  std::cout << "env " << env << "\n";

  Ledger ledger;
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fx;
  for (std::size_t r = 0; r < frozen::kSetupRepeats; ++r) {
    fx.reset();
    const Clock::time_point t0 = Clock::now();
    fx = build_fixture(args.seed);
    setup_s.push_back(seconds_since(t0));
  }

  Tracer tracer(args.trace);
  Phases p;
  const std::string work_dir =
      args.out + "/work-" + std::to_string(static_cast<long>(getpid()));
  const Clock::time_point start = Clock::now();
  // Rounds of one slice per phase; the named workload's slice is double.
  const std::size_t rounds =
      std::max(frozen::kMinRounds, static_cast<std::size_t>(std::llround(
                                       args.seconds / frozen::kRoundSeconds)));
  for (std::size_t r = 0; r < rounds; ++r) {
    run_query_pass(*fx,
                   (args.workload == "query" ? 2 : 1) * frozen::kQueryPairs,
                   tracer, ledger, p.query);
    run_serve_pass(*fx, args.seed, r, args.workload == "serve" ? 2 : 1, tracer,
                   ledger, p.serve);
    run_pipeline_pass(args.seed, r, work_dir, args.trace, tracer, ledger,
                      p.pipeline);
  }
  const double measured_s = seconds_since(start);

  check_query_parity(*fx, ledger);
  check_digests_across_runs(args.out + "/digests-seed" +
                                std::to_string(args.seed) + "-" +
                                std::to_string(p.pipeline.config) + ".txt",
                            p.pipeline.digests, ledger);
  std::vector<Metric> metrics;
  if (args.trace) {
    const ServeResult& sv = p.serve;
    const double mean_batch =
        static_cast<double>(sv.batch_samples) /
        static_cast<double>(std::max<std::uint64_t>(sv.batches, 1));
    const auto batch = static_cast<std::size_t>(
        std::max<long long>(1, std::llround(mean_batch)));
    const ProbeCounts counts = run_layer_probes(*fx, batch, tracer, ledger);
    const double overhead = tracing_overhead_pct(*fx, tracer);
    const std::vector<Span> spans = tracer.spans();
    metrics = per_layer(p, counts, spans, overhead, ledger);
    const std::string spans_path = args.out + "/" + args.workload + "-seed" +
                                   std::to_string(args.seed) + "-spans.json";
    ledger.expect(tracer.write_json(spans_path), "write " + spans_path);
  } else {
    metrics = end_to_end(median(setup_s), p, ledger);
  }

  const bool correct = ledger.failed() == 0;
  const std::string line =
      result_line(correct, ledger.attempted(), ledger.failed(), metrics);
  const std::string result_path = args.out + "/" + args.workload + "-seed" +
                                  std::to_string(args.seed) + "-trace" +
                                  (args.trace ? "1" : "0") + ".json";
  {
    std::ofstream f(result_path);
    f << "{\"env\": " << env << ", \"measured_s\": " << json_number(measured_s)
      << ", \"rounds\": " << rounds << ", \"samples\": {\"query_ext\": "
      << p.query.ext_ms.size() << ", \"query_orig\": " << p.query.orig_ms.size()
      << ", \"serve_moderate\": " << p.serve.moderate_ms.size() << "}"
      << ", \"per_round\": {\"serve_goodput_rps\": "
      << json_array(p.serve.goodput_rps)
      << ", \"datagen_s\": " << json_array(p.pipeline.datagen2_s)
      << ", \"train_s\": " << json_array(p.pipeline.train2_s) << "}"
      << ", \"serve\": {\"attempted\": " << p.serve.attempted
      << ", \"completed\": " << p.serve.completed << ", \"shed\": "
      << p.serve.shed << ", \"expired\": " << p.serve.expired
      << ", \"failed\": " << p.serve.failed << "}, \"result\": " << line
      << "}\n";
  }
  for (const Metric& m : metrics)
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  std::cout << "samples: query ext " << p.query.ext_ms.size() << ", orig "
            << p.query.orig_ms.size() << ", serve moderate "
            << p.serve.moderate_ms.size() << "\n";
  std::cout << "operations: attempted " << ledger.attempted() << ", succeeded "
            << ledger.attempted() - ledger.failed() << ", failed "
            << ledger.failed() << " (measured " << measured_s << " s)\n";
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rnxbench

int main(int argc, char** argv) {
  const rnxbench::Args args = rnxbench::parse(argc, argv);
  try {
    return rnxbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "rnxbench: " << e.what() << "\n";
    return 1;
  }
}
