// The pre-arena message-passing plan: one pair of materialized index
// vectors per position, built by the seed algorithm.  Kept solely as the
// bitwise reference core::build_plan's arena is pinned against
// (tests/core_plan_test.cpp); O(paths x positions) heap blocks.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "data/sample.hpp"
#include "nn/ops.hpp"

namespace rnx::test {

struct RefSeqPosition {
  bool is_node = false;
  std::vector<nn::Index> path_rows;
  std::vector<nn::Index> elem_ids;
};

struct RefPlan {
  std::size_t num_paths = 0;
  std::size_t num_links = 0;
  std::size_t num_nodes = 0;
  std::vector<RefSeqPosition> positions;
  std::vector<nn::Index> inc_path_rows;
  std::vector<nn::Index> inc_node_ids;
};

/// The original per-position builder, byte-for-byte the seed algorithm.
[[nodiscard]] inline RefPlan build_plan_reference(const data::Sample& sample,
                                                  bool use_nodes) {
  RefPlan plan;
  plan.num_paths = sample.paths.size();
  plan.num_links = sample.num_links();
  plan.num_nodes = sample.num_nodes;

  std::size_t max_hops = 0;
  for (const auto& p : sample.paths)
    max_hops = std::max(max_hops, p.links.size());

  const std::size_t seq_len = use_nodes ? 2 * max_hops : max_hops;
  plan.positions.resize(seq_len);
  for (std::size_t pos = 0; pos < seq_len; ++pos) {
    RefSeqPosition& sp = plan.positions[pos];
    const std::size_t hop = use_nodes ? pos / 2 : pos;
    sp.is_node = use_nodes && (pos % 2 == 0);
    for (std::size_t pi = 0; pi < sample.paths.size(); ++pi) {
      const auto& path = sample.paths[pi];
      if (hop >= path.links.size()) continue;
      sp.path_rows.push_back(static_cast<nn::Index>(pi));
      sp.elem_ids.push_back(sp.is_node
                                ? static_cast<nn::Index>(path.nodes[hop])
                                : static_cast<nn::Index>(path.links[hop]));
    }
  }
  while (!plan.positions.empty() && plan.positions.back().path_rows.empty())
    plan.positions.pop_back();

  if (use_nodes) {
    for (std::size_t pi = 0; pi < sample.paths.size(); ++pi) {
      const auto& path = sample.paths[pi];
      for (std::size_t h = 0; h < path.links.size(); ++h) {
        plan.inc_path_rows.push_back(static_cast<nn::Index>(pi));
        plan.inc_node_ids.push_back(static_cast<nn::Index>(path.nodes[h]));
      }
    }
  }
  return plan;
}

}  // namespace rnx::test
