// The pipeline phase: the offline path.  Simulator-driven generation over
// NSFNET and GEANT2, a shard write and read-back, Trainer::fit, and
// evaluation on a held-out split.  The serial generation and the serial fit
// double as determinism checks: both must reproduce the parallel results bit
// for bit.
#include <filesystem>
#include <string>

#include "core/model.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "data/generator.hpp"
#include "data/sample_io.hpp"
#include "data/shards.hpp"
#include "eval/metrics.hpp"
#include "topo/zoo.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace rnxbench {
namespace {

using namespace rnx;
namespace fs = std::filesystem;

constexpr std::uint64_t kMinDelivered = 10;

std::vector<std::uint64_t> digests(const std::vector<data::Sample>& samples) {
  std::vector<std::uint64_t> out;
  out.reserve(samples.size());
  for (const data::Sample& s : samples)
    out.push_back(data::io::sample_digest(s));
  return out;
}

/// `per_topology` NSFNET then as many GEANT2 samples, generated on
/// `lanes` lanes.  Sample i of a topology does not depend on the count.
std::vector<data::Sample> generate(const data::GeneratorConfig& gen,
                                   std::uint64_t seed, std::size_t per_topology,
                                   std::size_t lanes) {
  std::vector<data::Sample> all = data::generate_dataset(
      topo::nsfnet(), per_topology, gen, seed, lanes);
  for (data::Sample& s : data::generate_dataset(topo::geant2(), per_topology,
                                                gen, seed + 1, lanes))
    all.push_back(std::move(s));
  return all;
}

bool same_weights(const core::Model& a, const core::Model& b) {
  const nn::NamedParams pa = a.named_params(), pb = b.named_params();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i)
    if (!bitwise_equal(pa[i].second.value().flat(),
                       pb[i].second.value().flat()))
      return false;
  return true;
}

}  // namespace

void run_pipeline_pass(std::uint64_t seed, std::size_t pass,
                       const std::string& work_dir, bool full_serial,
                       Tracer& tracer, Ledger& ledger, PipelineResult& out) {
  const ScopedSpan phase(tracer, "bench.pipeline");
  const util::RngStream root = util::RngStream(seed).derive("pipeline", pass);
  data::GeneratorConfig gen;
  gen.target_packets = frozen::kGenPackets;
  const std::uint64_t gen_seed = root.derive("generate")();

  // -- generation, parallel then serial ----------------------------------
  constexpr std::size_t kPer = frozen::kGenPerTopology;
  std::vector<data::Sample> samples;
  Clock::time_point t0 = Clock::now();
  {
    const ScopedSpan span(tracer, "data.generate_dataset.lanes");
    samples = generate(gen, gen_seed, kPer, frozen::kLanes);
  }
  const double gen2_s = ms_between(t0, Clock::now()) / 1000.0;
  const std::size_t serial_per =
      full_serial ? kPer : frozen::kSerialCheckPerTopology;
  t0 = Clock::now();
  std::vector<data::Sample> serial;
  {
    const ScopedSpan span(tracer, "data.generate_dataset.serial");
    serial = generate(gen, gen_seed, serial_per, 1);
  }
  if (full_serial)
    out.datagen1_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  const std::vector<std::uint64_t> all = digests(samples);
  std::vector<std::uint64_t> prefix(all.begin(), all.begin() + serial_per);
  prefix.insert(prefix.end(), all.begin() + kPer,
                all.begin() + kPer + serial_per);
  ledger.add_ok(samples.size() + serial.size());
  ledger.expect(fold_digests(prefix) == fold_digests(digests(serial)),
                "dataset digest differs between 1 and " +
                    std::to_string(frozen::kLanes) + " lanes");
  out.digests.push_back(fold_digests(all));
  const std::uint64_t settings[] = {data::config_digest(gen), kPer};
  out.config = fold_digests(settings);
  out.samples += samples.size();
  out.datagen2_s.push_back(gen2_s);

  // -- shard write and read-back -------------------------------------------
  fs::create_directories(work_dir);
  const std::string manifest = work_dir + "/pipeline.rnxm";
  t0 = Clock::now();
  {
    const ScopedSpan span(tracer, "data.ShardWriter");
    data::ShardWriter writer(manifest, frozen::kShardSamples, gen_seed,
                             data::config_digest(gen));
    for (const data::Sample& s : samples) writer.add(s);
    (void)writer.finish();
  }
  const double write_s = ms_between(t0, Clock::now()) / 1000.0;
  data::Dataset back;
  std::uintmax_t bytes = fs::file_size(manifest);
  {
    const ScopedSpan span(tracer, "data.ShardedReader");
    const data::ShardedReader reader(manifest);
    for (std::size_t i = 0; i < reader.num_shards(); ++i)
      bytes += fs::file_size(reader.shard_path(i));
    back = reader.load_all();
  }
  out.shard_bytes += static_cast<double>(bytes);
  out.shard_write_s += write_s;
  ledger.expect(digests(back.samples()) == digests(samples),
                "shard round trip changed the samples");
  fs::remove_all(work_dir);

  // -- training, parallel then serial ----------------------------------------
  std::vector<data::Sample> train_samples, held_out;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const bool held = i % frozen::kGenPerTopology >=
                      frozen::kGenPerTopology - frozen::kHeldOutPerTopology;
    (held ? held_out : train_samples).push_back(std::move(samples[i]));
  }
  const data::Dataset train(std::move(train_samples));
  out.train_samples += train.size();
  const data::Dataset test(std::move(held_out));
  const data::Scaler scaler = data::Scaler::fit(train.samples(), kMinDelivered);

  core::ModelConfig mc;
  mc.state_dim = frozen::kTrainStateDim;
  mc.readout_hidden = frozen::kTrainReadout;
  mc.iterations = frozen::kTrainIterations;
  core::TrainConfig tc;
  tc.epochs = frozen::kTrainEpochs;
  tc.batch_samples = frozen::kTrainBatch;
  tc.lr = 2e-3;
  tc.min_delivered = kMinDelivered;
  tc.seed = root.derive("shuffle")();
  tc.verbose = false;

  const auto fit = [&](std::size_t lanes, const char* span_name, double& secs) {
    std::unique_ptr<core::Model> model =
        core::make_model(core::ModelKind::kExtended, mc);
    tc.threads = lanes;
    core::Trainer trainer(*model, tc);
    const Clock::time_point start = Clock::now();
    std::vector<core::EpochRecord> history;
    {
      const ScopedSpan span(tracer, span_name);
      history = trainer.fit(train, scaler);
    }
    secs = ms_between(start, Clock::now()) / 1000.0;
    return std::make_pair(std::move(model), std::move(history));
  };
  double train2_s = 0.0, train1_s = 0.0;
  const auto [model, history] =
      fit(frozen::kLanes, "core.Trainer::fit.lanes", train2_s);
  const auto [serial_model, serial_history] =
      fit(1, "core.Trainer::fit.serial", train1_s);
  std::vector<double> losses;
  for (const core::EpochRecord& e : history) {
    losses.push_back(e.train_loss);
    out.epoch_s.push_back(e.seconds);
  }
  ledger.add_ok(2 * history.size());
  ledger.expect(finite_and_decreasing(losses),
                "training loss is not finite and decreasing");
  ledger.expect(same_weights(*model, *serial_model),
                "trained weights differ between 1 and " +
                    std::to_string(frozen::kLanes) + " lanes");
  out.train2_s.push_back(train2_s);
  out.train1_s.push_back(train1_s);

  // -- evaluation on the held-out split --------------------------------------
  eval::PairedPredictions pp;
  {
    const ScopedSpan span(tracer, "core.predict_dataset");
    pp = eval::predict_dataset(*model, test, scaler, kMinDelivered);
  }
  const eval::RegressionSummary summary = eval::summarize(pp);
  ledger.add_ok(test.size());
  out.ape_sum += summary.mape * static_cast<double>(summary.n);
  out.ape_n += summary.n;
}

}  // namespace rnxbench
