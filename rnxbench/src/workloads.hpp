// The two workloads and the fixture they share.
//
// A run is a fixed number of rounds; each round runs a slice of every
// phase — query, serve and pipeline — so every end-to-end metric is
// measured on every workload and each phase's samples are spread over
// the whole run (the host's speed drifts over seconds; interleaving
// averages that drift into every metric alike).  The workload names the
// phase that gets a double slice: `query` or `serve`.  Sizes, rates and
// the latency limit below are frozen: later changes are compared against
// them, never against values re-derived from a run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/sample.hpp"
#include "harness.hpp"
#include "serve/inference.hpp"
#include "serve/registry.hpp"

namespace rnxbench {

namespace frozen {
// -- query: GEANT2 (552 paths, 18 positions), H=16, T=4 ---------------------
inline constexpr std::size_t kQueryScenarios = 4;
inline constexpr std::size_t kQueryStateDim = 16;
inline constexpr std::size_t kQueryReadout = 32;
inline constexpr std::size_t kQueryIterations = 4;
/// (ext, orig) query pairs per round: kMinRounds rounds give 1000 ext
/// samples, 10 beyond p99.
inline constexpr std::size_t kQueryPairs = 125;
/// Scalar-reference parity bound on physical predictions: the kernel
/// parity suite's per-step bound, accumulated over a T=4 forward.
inline constexpr double kParityRelTol = 1e-9;

// -- serve: NSFNET:GEANT2 3:1, H=12, T=3, two bundles -----------------------
inline constexpr std::size_t kServeNsfnet = 24;
inline constexpr std::size_t kServeGeant2 = 8;
inline constexpr std::size_t kServeStateDim = 12;
inline constexpr std::size_t kServeReadout = 24;
inline constexpr std::size_t kServeIterations = 3;
/// Open-loop Poisson rates (req/s), calibrated once on a 4-core AVX2+FMA
/// x86-64 host: about half of capacity and about 1.5x capacity.
inline constexpr double kServeModerateRps = 400.0;
inline constexpr double kServeOverloadRps = 1250.0;
/// Moderate-rate requests per round (kMinRounds rounds: 2000, 20 beyond
/// p99) and overload window per round.
inline constexpr std::size_t kServeModerateRequests = 250;
inline constexpr double kServeOverloadSeconds = 0.5;
/// Goodput's latency limit.  Overload requests carry a deadline 10 ms
/// shorter, so a request the scheduler starts finishes within the limit
/// even on a slowed host, and goodput follows capacity.
inline constexpr double kServeLimitMs = 25.0;
inline constexpr double kServeDeadlineMs = 15.0;
inline constexpr std::size_t kServeQueueDepth = 64;
inline constexpr std::size_t kServeMaxBatch = 16;
inline constexpr long kServeLingerUs = 200;
/// Registry pool lanes.  Threads: generator + collector + drainer + one
/// pool worker = 4 = nproc of the calibration host.
inline constexpr std::size_t kServeLanes = 2;
/// Shared plan-cache budget as a fraction of the distinct plans' bytes.
inline constexpr double kServeCacheFraction = 0.5;

// -- pipeline: datagen -> shards -> train -> eval ---------------------------
inline constexpr std::uint64_t kGenPackets = 60'000;
/// Each pass draws its own dataset (seed, pass): eval_mre pools the
/// held-out errors of every pass.
inline constexpr std::size_t kGenPerTopology = 6;  ///< NSFNET and GEANT2 each
inline constexpr std::size_t kHeldOutPerTopology = 2;
/// Samples per topology regenerated serially in an untraced run to check
/// the digest across lane counts (the traced run regenerates them all).
inline constexpr std::size_t kSerialCheckPerTopology = 1;
inline constexpr std::size_t kLanes = 2;
inline constexpr std::size_t kTrainEpochs = 3;
inline constexpr std::size_t kTrainBatch = 4;
inline constexpr std::size_t kTrainStateDim = 12;
inline constexpr std::size_t kTrainReadout = 24;
inline constexpr std::size_t kTrainIterations = 4;
inline constexpr std::size_t kShardSamples = 8;

// -- run shape --------------------------------------------------------------
inline constexpr std::size_t kSetupRepeats = 5;
/// Rounds per run: --seconds / kRoundSeconds, at least kMinRounds (the
/// percentile rule's sample counts assume kMinRounds).
inline constexpr std::size_t kMinRounds = 8;
inline constexpr double kRoundSeconds = 4.0;
}  // namespace frozen

/// Everything the query and serve phases need, built from the seed.
/// Held by pointer: engines key plans by sample address.
struct Fixture {
  // query
  std::vector<rnx::data::Sample> query_scenarios;  ///< GEANT2
  std::unique_ptr<rnx::serve::InferenceEngine> query_ext, query_orig;
  std::vector<std::vector<double>> query_ref_ext, query_ref_orig;
  // serve
  std::vector<rnx::data::Sample> serve_scenarios;  ///< NSFNET, then GEANT2
  std::unique_ptr<rnx::serve::ModelRegistry> registry;
  std::vector<std::vector<double>> serve_ref_ext, serve_ref_orig;
};

[[nodiscard]] std::unique_ptr<Fixture> build_fixture(std::uint64_t seed);

// ---- phases ---------------------------------------------------------------

struct QueryResult {
  std::vector<double> ext_ms, orig_ms;
};
/// One closed-loop slice of `pairs` alternating (ext, orig) queries;
/// every response is checked bitwise against the fixture's reference.
void run_query_pass(const Fixture& fx, std::size_t pairs, Tracer& tracer,
                    Ledger& ledger, QueryResult& out);
/// Scalar-backend parity of the fixture's reference predictions.
void check_query_parity(const Fixture& fx, Ledger& ledger);

struct ServeResult {
  std::vector<double> moderate_ms;   ///< completed, from scheduled send
  std::vector<double> goodput_rps;   ///< one per overload pass
  std::vector<double> late_ms;       ///< generator lateness, every request
  std::vector<double> submit_us;     ///< submit() call duration
  std::uint64_t attempted = 0, completed = 0, shed = 0, expired = 0,
                failed = 0;
  /// Batching at the moderate rate (the rate serve_p50_ms is taken at).
  std::uint64_t batches = 0, batch_samples = 0;
  std::size_t peak_queue_depth = 0;
  /// Shared plan-cache counter deltas over the passes.
  std::uint64_t cache_lookups = 0, cache_hits = 0, cache_evictions = 0;
  std::size_t cache_peak_bytes = 0;
};
/// One moderate-rate stream (kServeModerateRequests x scale) then one
/// overload window (kServeOverloadSeconds x scale); `pass` varies the
/// arrival draws between passes.
void run_serve_pass(const Fixture& fx, std::uint64_t seed, std::size_t pass,
                    std::size_t scale, Tracer& tracer, Ledger& ledger,
                    ServeResult& out);

/// Per-pass walls; throughputs pool them (total work / total time), as
/// each pass draws a different dataset.
struct PipelineResult {
  std::vector<double> datagen1_s;     ///< serial generation wall (full only)
  std::vector<double> datagen2_s;     ///< kLanes generation wall
  std::vector<double> train1_s, train2_s;  ///< Trainer::fit wall, 1 / kLanes
  std::vector<double> epoch_s;
  double shard_bytes = 0.0, shard_write_s = 0.0;
  double ape_sum = 0.0;  ///< held-out |relative error|, pooled over passes
  std::size_t ape_n = 0;
  std::size_t samples = 0;        ///< generated at kLanes, all passes
  std::size_t train_samples = 0;  ///< training-set sizes, all passes
  std::vector<std::uint64_t> digests;   ///< dataset digest, per pass
  std::uint64_t config = 0;  ///< digest of the generation settings
};
/// One pass over the dataset drawn from (seed, pass); `full_serial`
/// regenerates every sample serially (for the lane efficiency) instead of
/// the kSerialCheckPerTopology subset.
void run_pipeline_pass(std::uint64_t seed, std::size_t pass,
                       const std::string& work_dir, bool full_serial,
                       Tracer& tracer, Ledger& ledger, PipelineResult& out);

// ---- per-layer probes (traced run only) -----------------------------------

/// Counts read at the probes' boundaries (timings live in the spans).
struct ProbeCounts {
  double matmul_flops = 0.0;   ///< per nn.matmul_acc block span
  double gru_steps = 0.0;      ///< per nn.GRUCell::step block span
  double plan_bytes = 0.0;     ///< GEANT2 ext plan
  double flops_ext = 0.0, flops_orig = 0.0;  ///< computed, per forward
  double sim_events = 0.0;     ///< per Simulator::run
};
/// Microbenchmarks and single-call timings that the traced run adds to
/// the phases' spans: kernels, plan build, forwards, forward_batch at
/// the observed batch size, trainer steps and the simulator.
[[nodiscard]] ProbeCounts run_layer_probes(const Fixture& fx,
                                           std::size_t serve_batch,
                                           Tracer& tracer, Ledger& ledger);

/// Computed matmul FLOPs of one forward over `sample` (plan rows x GRU
/// shapes + readout), for a model of the given shape.
[[nodiscard]] double forward_flops(const rnx::data::Sample& sample,
                                   bool use_nodes, std::size_t state_dim,
                                   std::size_t readout, std::size_t iterations);

}  // namespace rnxbench
