// Samples, backends and comparisons shared by the forward parity suites
// (tests/inference_forward_test.cpp, tests/train_parity_test.cpp).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "data/generator.hpp"
#include "nn/kernels.hpp"
#include "nn/tensor.hpp"
#include "topo/zoo.hpp"

namespace rnx::test {

/// One simulated sample of `t` at a small packet budget.
inline data::Sample golden_sample(const topo::Topology& t, std::uint64_t seed) {
  data::GeneratorConfig cfg;
  cfg.target_packets = 3'000;
  util::RngStream rng(seed);
  return data::generate_sample(t, cfg, rng);
}

/// One path over the line 0-1-2: a single active row at every position.
inline data::Sample single_path_sample() {
  data::Sample s;
  s.topo_name = "line3";
  s.num_nodes = 3;
  s.links = {{0, 1}, {1, 0}, {1, 2}, {2, 1}};
  s.link_capacity_bps = {1e7, 1e7, 2e7, 2e7};
  s.queue_pkts = {32, 1, 32};
  s.scenario_recorded = true;
  data::PathRecord p;
  p.src = 0;
  p.dst = 2;
  p.nodes = {0, 1, 2};
  p.links = {0, 2};
  p.traffic_bps = 3e6;
  p.mean_delay_s = 1e-3;
  p.jitter_s2 = 1e-8;
  p.delivered = 100;
  s.paths = {p};
  s.validate();
  return s;
}

/// NSFNET, GEANT2, a 24-node Barabási–Albert graph and a single path.
inline std::vector<std::pair<std::string, data::Sample>> parity_samples() {
  util::RngStream topo_rng(0xba0ull);
  return {{"nsfnet", golden_sample(topo::nsfnet(), 23)},
          {"geant2", golden_sample(topo::geant2(), 29)},
          {"ba24", golden_sample(topo::barabasi_albert(24, 2, topo_rng), 31)},
          {"single-path", single_path_sample()}};
}

/// The scalar backend, plus the SIMD one when this host has it.
inline std::vector<const nn::kernels::Backend*> host_backends() {
  std::vector<const nn::kernels::Backend*> out = {
      &nn::kernels::scalar_backend()};
  if (const auto* simd = nn::kernels::simd_backend()) out.push_back(simd);
  return out;
}

enum class Features { kBase, kScenario, kScaleInvariant };

inline bool bitwise_equal(const nn::Tensor& a, const nn::Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.size() * sizeof(double)) == 0;
}

}  // namespace rnx::test
