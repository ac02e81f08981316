#include "serve/bundle.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "nn/serialize.hpp"

namespace rnx::serve {

namespace {

constexpr char kMagic[4] = {'R', 'N', 'X', 'B'};
// Weights for the models this repo trains are a few hundred KiB; a body
// size beyond this is certainly corruption, so refuse the allocation.
constexpr std::uint64_t kMaxBodyBytes = 1ull << 30;

template <typename T>
void write_pod(std::ostream& f, const T& v) {
  f.write(reinterpret_cast<const char*>(&v), sizeof(T));
}
template <typename T>
void read_pod(std::istream& f, T& v, const char* what) {
  f.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!f)
    throw std::runtime_error(std::string("load_bundle: truncated file (") +
                             what + ")");
}

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

void write_moments(std::ostream& f, const data::Moments& m) {
  write_pod(f, m.mean);
  write_pod(f, m.stddev);
}
data::Moments read_moments(std::istream& f, const char* what) {
  data::Moments m;
  read_pod(f, m.mean, what);
  read_pod(f, m.stddev, what);
  return m;
}

}  // namespace

void save_bundle(const std::string& path, const core::Model& model,
                 const data::Scaler& scaler, core::PredictionTarget target,
                 std::uint64_t min_delivered, nn::WeightEncoding encoding) {
  // fp64 saves must stay byte-identical to the pre-quantization v3
  // layout (no weight_encoding byte); only quantized saves emit v4.
  const bool quantized = encoding != nn::WeightEncoding::kFp64;
  const std::uint32_t version =
      quantized ? kBundleVersion : kFp64BundleVersion;
  std::ostringstream body(std::ios::binary);
  write_pod(body, static_cast<std::uint8_t>(model.kind()));
  write_pod(body, static_cast<std::uint8_t>(target));
  write_pod(body, min_delivered);
  const core::ModelConfig& mc = model.config();
  write_pod(body, static_cast<std::uint64_t>(mc.state_dim));
  write_pod(body, static_cast<std::uint64_t>(mc.readout_hidden));
  write_pod(body, static_cast<std::uint64_t>(mc.iterations));
  write_pod(body, static_cast<std::uint8_t>(mc.node_rule));
  write_pod(body, static_cast<std::uint8_t>(mc.node_mean_aggregation));
  write_pod(body, std::uint8_t{1});  // retired fused_gru option, always 1
  write_pod(body, static_cast<std::uint8_t>(mc.scenario_features));
  write_pod(body, static_cast<std::uint8_t>(mc.scale_invariant_features));
  write_pod(body, static_cast<std::uint8_t>(mc.link_mean_aggregation));
  if (quantized) write_pod(body, static_cast<std::uint8_t>(encoding));
  write_pod(body, mc.init_seed);
  write_moments(body, scaler.traffic_moments());
  write_moments(body, scaler.capacity_moments());
  write_moments(body, scaler.queue_moments());
  write_moments(body, scaler.log_delay_moments());
  write_moments(body, scaler.log_jitter_moments());
  const nn::NamedParams params = model.named_params();
  if (quantized)
    nn::save_params_quantized(body, params, encoding);
  else
    nn::save_params(body, params);

  const std::string bytes = body.str();
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("save_bundle: cannot open " + path);
  f.write(kMagic, sizeof(kMagic));
  write_pod(f, version);
  write_pod(f, static_cast<std::uint64_t>(bytes.size()));
  write_pod(f, fnv1a64(bytes));
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!f) throw std::runtime_error("save_bundle: write failed on " + path);
}

ModelBundle load_bundle(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("load_bundle: cannot open " + path);
  char magic[4];
  f.read(magic, sizeof(magic));
  if (!f || std::string_view(magic, 4) != std::string_view(kMagic, 4))
    throw std::runtime_error("load_bundle: bad magic in " + path +
                             " (not a .rnxb bundle)");
  std::uint32_t version = 0;
  read_pod(f, version, "version");
  if (version < kMinBundleVersion || version > kBundleVersion)
    throw std::runtime_error("load_bundle: unsupported bundle version " +
                             std::to_string(version));
  std::uint64_t body_size = 0, checksum = 0;
  read_pod(f, body_size, "body size");
  read_pod(f, checksum, "checksum");
  if (body_size == 0 || body_size > kMaxBodyBytes)
    throw std::runtime_error("load_bundle: corrupt header in " + path +
                             " (body size " + std::to_string(body_size) +
                             ")");
  std::string bytes(body_size, '\0');
  f.read(bytes.data(), static_cast<std::streamsize>(body_size));
  if (!f)
    throw std::runtime_error("load_bundle: truncated bundle " + path);
  if (fnv1a64(bytes) != checksum)
    throw std::runtime_error("load_bundle: checksum mismatch in " + path +
                             " (file corrupt)");

  std::istringstream body(bytes, std::ios::binary);
  std::uint8_t kind_byte = 0, target_byte = 0;
  read_pod(body, kind_byte, "model kind");
  read_pod(body, target_byte, "prediction target");
  if (kind_byte > 1)
    throw std::runtime_error("load_bundle: invalid model kind byte " +
                             std::to_string(kind_byte));
  const auto kind = static_cast<core::ModelKind>(kind_byte);
  if (target_byte > 1)
    throw std::runtime_error("load_bundle: invalid prediction target byte " +
                             std::to_string(target_byte));

  ModelBundle out;
  out.target = static_cast<core::PredictionTarget>(target_byte);
  read_pod(body, out.min_delivered, "min_delivered");

  core::ModelConfig mc;
  std::uint64_t state_dim = 0, readout_hidden = 0, iterations = 0;
  read_pod(body, state_dim, "state_dim");
  read_pod(body, readout_hidden, "readout_hidden");
  read_pod(body, iterations, "iterations");
  mc.state_dim = static_cast<std::size_t>(state_dim);
  mc.readout_hidden = static_cast<std::size_t>(readout_hidden);
  mc.iterations = static_cast<std::size_t>(iterations);
  std::uint8_t node_rule = 0, node_mean = 0, fused = 0;
  read_pod(body, node_rule, "node_rule");
  if (node_rule > 1)
    throw std::runtime_error("load_bundle: invalid node rule byte " +
                             std::to_string(node_rule));
  mc.node_rule = static_cast<core::NodeUpdateRule>(node_rule);
  read_pod(body, node_mean, "node_mean_aggregation");
  mc.node_mean_aggregation = node_mean != 0;
  // The retired fused_gru byte: read past and ignored (every GRU step is
  // fused), so files that carry either value still load.
  read_pod(body, fused, "fused_gru");
  if (version >= 2) {
    std::uint8_t scenario = 0;
    read_pod(body, scenario, "scenario_features");
    mc.scenario_features = scenario != 0;
  }
  if (version >= 3) {
    // v3 feature flags; older bundles imply both off, so v1/v2 files
    // keep loading (and serving) byte-for-byte as before.
    std::uint8_t scale_inv = 0, link_mean = 0;
    read_pod(body, scale_inv, "scale_invariant_features");
    mc.scale_invariant_features = scale_inv != 0;
    read_pod(body, link_mean, "link_mean_aggregation");
    mc.link_mean_aggregation = link_mean != 0;
  }
  std::uint8_t enc_byte = 0;  // v1-v3 bundles are always fp64
  if (version >= 4) {
    read_pod(body, enc_byte, "weight_encoding");
    if (enc_byte > static_cast<std::uint8_t>(nn::WeightEncoding::kInt8))
      throw std::runtime_error("load_bundle: invalid weight encoding byte " +
                               std::to_string(enc_byte));
  }
  out.encoding = static_cast<nn::WeightEncoding>(enc_byte);
  read_pod(body, mc.init_seed, "init_seed");

  const data::Moments traffic = read_moments(body, "traffic moments");
  const data::Moments capacity = read_moments(body, "capacity moments");
  const data::Moments queue = read_moments(body, "queue moments");
  const data::Moments log_delay = read_moments(body, "log delay moments");
  const data::Moments log_jitter = read_moments(body, "log jitter moments");
  out.scaler = data::Scaler::from_moments(traffic, capacity, queue,
                                          log_delay, log_jitter);

  out.model = core::make_model(kind, mc);
  nn::NamedParams params = out.model->named_params();
  if (out.encoding == nn::WeightEncoding::kFp64)
    nn::load_params(body, params);
  else
    nn::load_params_quantized(body, params);
  return out;
}

}  // namespace rnx::serve
