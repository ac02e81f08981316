// Tests for the message-passing plan (core/plan.hpp): the batched index
// structure must agree with a per-path reading of the paper's Fig. 1, and
// the arena layout must match the reference per-position builder bitwise.
#include <gtest/gtest.h>

#include "core/plan.hpp"
#include "data/generator.hpp"
#include "plan_reference.hpp"
#include "topo/routing.hpp"
#include "topo/zoo.hpp"

namespace {

using namespace rnx;
using core::build_plan;
using core::MpPlan;
using core::PlanPosition;
using test::build_plan_reference;

std::vector<nn::Index> to_vec(std::span<const nn::Index> s) {
  return {s.begin(), s.end()};
}

// Hand-built sample on line 0-1-2 with two paths:
//   path 0: 0 -> 2 (hops 0->1, 1->2)
//   path 1: 1 -> 2 (hop 1->2)
data::Sample tiny_sample() {
  data::Sample s;
  s.topo_name = "line3";
  s.num_nodes = 3;
  s.links = {{0, 1}, {1, 0}, {1, 2}, {2, 1}};
  s.link_capacity_bps = {1e6, 1e6, 1e6, 1e6};
  s.queue_pkts = {32, 1, 32};
  data::PathRecord p0;
  p0.src = 0;
  p0.dst = 2;
  p0.nodes = {0, 1, 2};
  p0.links = {0, 2};
  p0.traffic_bps = 1e5;
  p0.mean_delay_s = 1e-3;
  p0.delivered = 100;
  data::PathRecord p1;
  p1.src = 1;
  p1.dst = 2;
  p1.nodes = {1, 2};
  p1.links = {2};
  p1.traffic_bps = 2e5;
  p1.mean_delay_s = 5e-4;
  p1.delivered = 100;
  s.paths = {p0, p1};
  s.validate();
  return s;
}

TEST(PlanOriginal, LinkSequencePositions) {
  const MpPlan plan = build_plan(tiny_sample(), /*use_nodes=*/false);
  EXPECT_EQ(plan.num_paths, 2u);
  EXPECT_EQ(plan.num_links, 4u);
  EXPECT_EQ(plan.num_nodes, 3u);
  ASSERT_EQ(plan.num_positions(), 2u);  // max 2 hops

  // Position 0: both paths consume their first link.
  const PlanPosition p0 = plan.position(0);
  EXPECT_FALSE(p0.is_node);
  EXPECT_EQ(to_vec(p0.path_rows), (std::vector<nn::Index>{0, 1}));
  EXPECT_EQ(to_vec(p0.elem_ids), (std::vector<nn::Index>{0, 2}));

  // Position 1: only path 0 is still active.
  const PlanPosition p1 = plan.position(1);
  EXPECT_EQ(to_vec(p1.path_rows), (std::vector<nn::Index>{0}));
  EXPECT_EQ(to_vec(p1.elem_ids), (std::vector<nn::Index>{2}));

  // Original plan has no node incidences.
  EXPECT_TRUE(plan.inc_path_rows.empty());
}

TEST(PlanExtended, InterleavedNodeLinkPositions) {
  const MpPlan plan = build_plan(tiny_sample(), /*use_nodes=*/true);
  ASSERT_EQ(plan.num_positions(), 4u);  // n,l,n,l for the 2-hop path
  EXPECT_TRUE(plan.interleaved());

  // Position 0 (node): path 0 reads node 0, path 1 reads node 1.
  EXPECT_TRUE(plan.position(0).is_node);
  EXPECT_EQ(to_vec(plan.position(0).path_rows),
            (std::vector<nn::Index>{0, 1}));
  EXPECT_EQ(to_vec(plan.position(0).elem_ids),
            (std::vector<nn::Index>{0, 1}));

  // Position 1 (link): first links.
  EXPECT_FALSE(plan.position(1).is_node);
  EXPECT_EQ(to_vec(plan.position(1).elem_ids),
            (std::vector<nn::Index>{0, 2}));

  // Position 2 (node): only path 0; its second transit node is 1.
  EXPECT_TRUE(plan.position(2).is_node);
  EXPECT_EQ(to_vec(plan.position(2).path_rows), (std::vector<nn::Index>{0}));
  EXPECT_EQ(to_vec(plan.position(2).elem_ids), (std::vector<nn::Index>{1}));

  // Position 3 (link): path 0's second link.
  EXPECT_FALSE(plan.position(3).is_node);
  EXPECT_EQ(to_vec(plan.position(3).elem_ids), (std::vector<nn::Index>{2}));
}

TEST(PlanExtended, NodeIncidencesCoverTransitNodes) {
  const MpPlan plan = build_plan(tiny_sample(), /*use_nodes=*/true);
  // path 0 occupies queues at nodes 0 and 1; path 1 at node 1.
  ASSERT_EQ(plan.inc_path_rows.size(), 3u);
  EXPECT_EQ(plan.inc_path_rows, (std::vector<nn::Index>{0, 0, 1}));
  EXPECT_EQ(plan.inc_node_ids, (std::vector<nn::Index>{0, 1, 1}));
}

TEST(PlanExtended, AlternatingParityInvariant) {
  // On a real sample: every even position is a node, odd is a link, and
  // element ids are within range.
  data::GeneratorConfig cfg;
  cfg.target_packets = 3'000;
  util::RngStream rng(3);
  const data::Sample s = data::generate_sample(topo::nsfnet(), cfg, rng);
  const MpPlan plan = build_plan(s, true);
  for (std::size_t pos = 0; pos < plan.num_positions(); ++pos) {
    const PlanPosition sp = plan.position(pos);
    EXPECT_EQ(sp.is_node, pos % 2 == 0);
    ASSERT_EQ(sp.path_rows.size(), sp.elem_ids.size());
    for (std::size_t i = 0; i < sp.path_rows.size(); ++i) {
      EXPECT_LT(sp.path_rows[i], plan.num_paths);
      EXPECT_LT(sp.elem_ids[i],
                sp.is_node ? plan.num_nodes : plan.num_links);
    }
  }
}

TEST(PlanExtended, PerPathSequenceReconstructs) {
  // Collecting each path's (position, element) participation must
  // reproduce exactly its interleaved node/link sequence.
  data::GeneratorConfig cfg;
  cfg.target_packets = 3'000;
  util::RngStream rng(5);
  const data::Sample s = data::generate_sample(topo::ring(6), cfg, rng);
  const MpPlan plan = build_plan(s, true);

  for (std::size_t pi = 0; pi < s.paths.size(); ++pi) {
    std::vector<nn::Index> seq;
    for (std::size_t p = 0; p < plan.num_positions(); ++p) {
      const PlanPosition pos = plan.position(p);
      for (std::size_t i = 0; i < pos.path_rows.size(); ++i)
        if (pos.path_rows[i] == pi) seq.push_back(pos.elem_ids[i]);
    }
    const auto& path = s.paths[pi];
    ASSERT_EQ(seq.size(), 2 * path.links.size());
    for (std::size_t h = 0; h < path.links.size(); ++h) {
      EXPECT_EQ(seq[2 * h], path.nodes[h]);      // node position
      EXPECT_EQ(seq[2 * h + 1], path.links[h]);  // link position
    }
  }
}

TEST(PlanOriginal, ActivePathCountsDecrease) {
  data::GeneratorConfig cfg;
  cfg.target_packets = 3'000;
  util::RngStream rng(7);
  const data::Sample s = data::generate_sample(topo::geant2(), cfg, rng);
  const MpPlan plan = build_plan(s, false);
  for (std::size_t pos = 1; pos < plan.num_positions(); ++pos)
    EXPECT_LE(plan.position(pos).path_rows.size(),
              plan.position(pos - 1).path_rows.size());
  // First position covers every path.
  EXPECT_EQ(plan.position(0).path_rows.size(), plan.num_paths);
  // No empty trailing positions.
  EXPECT_FALSE(plan.position(plan.num_positions() - 1).path_rows.empty());
}

TEST(ValidLabelRows, FiltersThinAndZeroLabels) {
  data::Sample s = tiny_sample();
  s.paths[0].delivered = 5;     // below threshold 10
  s.paths[1].delivered = 100;
  auto rows = core::valid_label_rows(s, 10);
  EXPECT_EQ(rows, (std::vector<nn::Index>{1}));
  s.paths[1].mean_delay_s = 0.0;  // unusable label
  rows = core::valid_label_rows(s, 10);
  EXPECT_TRUE(rows.empty());
  rows = core::valid_label_rows(s, 0);
  EXPECT_EQ(rows, (std::vector<nn::Index>{0}));
}

// -- arena vs reference builder (the refactor's bitwise pin) ---------------

void expect_matches_reference(const data::Sample& s, bool use_nodes) {
  const MpPlan arena = build_plan(s, use_nodes);
  const test::RefPlan ref = build_plan_reference(s, use_nodes);
  EXPECT_EQ(arena.num_paths, ref.num_paths);
  EXPECT_EQ(arena.num_links, ref.num_links);
  EXPECT_EQ(arena.num_nodes, ref.num_nodes);
  ASSERT_EQ(arena.num_positions(), ref.positions.size());
  for (std::size_t p = 0; p < ref.positions.size(); ++p) {
    const PlanPosition pos = arena.position(p);
    EXPECT_EQ(pos.is_node, ref.positions[p].is_node) << "position " << p;
    EXPECT_EQ(to_vec(pos.path_rows), ref.positions[p].path_rows)
        << "position " << p;
    EXPECT_EQ(to_vec(pos.elem_ids), ref.positions[p].elem_ids)
        << "position " << p;
  }
  EXPECT_EQ(arena.inc_path_rows, ref.inc_path_rows);
  EXPECT_EQ(arena.inc_node_ids, ref.inc_node_ids);
}

TEST(PlanArena, BitwiseEquivalentToReferenceBuilder) {
  expect_matches_reference(tiny_sample(), false);
  expect_matches_reference(tiny_sample(), true);

  data::GeneratorConfig cfg;
  cfg.target_packets = 3'000;
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    util::RngStream rng(seed);
    util::RngStream topo_rng(seed ^ 0xbaull);
    const topo::Topology topos[] = {
        topo::geant2(), topo::nsfnet(),
        topo::barabasi_albert(20, 2, topo_rng)};
    for (const auto& t : topos) {
      const data::Sample s = data::generate_sample(t, cfg, rng);
      expect_matches_reference(s, false);
      expect_matches_reference(s, true);
    }
  }
}

// -- packed row order (the inference forward's in-place layout) -----------

void expect_packed_layout(const data::Sample& s, bool use_nodes) {
  const MpPlan plan = build_plan(s, use_nodes);
  const test::RefPlan ref = build_plan_reference(s, use_nodes);
  const std::span<const nn::Index> order = plan.packed_order();
  ASSERT_EQ(order.size(), s.paths.size());

  // A stable permutation by descending path length: lengths never grow
  // along the order, and equal lengths keep ascending sample rows.
  std::vector<char> seen(order.size(), 0);
  for (std::size_t k = 0; k < order.size(); ++k) {
    ASSERT_LT(order[k], order.size());
    EXPECT_FALSE(seen[order[k]]) << "row " << order[k] << " packed twice";
    seen[order[k]] = 1;
    if (k == 0) continue;
    const std::size_t prev = s.paths[order[k - 1]].links.size();
    const std::size_t cur = s.paths[order[k]].links.size();
    EXPECT_GE(prev, cur) << "packed row " << k;
    if (prev == cur) {
      EXPECT_LT(order[k - 1], order[k]) << "packed row " << k;
    }
  }

  // At every position the packed rows of the reference's active paths
  // are exactly the prefix [0, active): each entry's packed row maps
  // back to its sample row through the order.
  ASSERT_EQ(plan.num_positions(), ref.positions.size());
  for (std::size_t p = 0; p < ref.positions.size(); ++p) {
    const PlanPosition pos = plan.position(p);
    const auto& rows = ref.positions[p].path_rows;
    ASSERT_EQ(pos.packed_rows.size(), rows.size()) << "position " << p;
    std::vector<char> hit(rows.size(), 0);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const nn::Index k = pos.packed_rows[i];
      ASSERT_LT(k, rows.size()) << "position " << p << " leaves the prefix";
      EXPECT_FALSE(hit[k]) << "position " << p;
      hit[k] = 1;
      EXPECT_EQ(order[k], rows[i]) << "position " << p << " entry " << i;
    }
  }
}

TEST(PlanPacked, StablePermutationWithActivePrefix) {
  expect_packed_layout(tiny_sample(), false);
  expect_packed_layout(tiny_sample(), true);

  data::GeneratorConfig cfg;
  cfg.target_packets = 3'000;
  for (const std::uint64_t seed : {21ull, 22ull}) {
    util::RngStream rng(seed);
    util::RngStream topo_rng(seed ^ 0xbaull);
    const topo::Topology topos[] = {
        topo::geant2(), topo::nsfnet(),
        topo::barabasi_albert(20, 2, topo_rng)};
    for (const auto& t : topos) {
      const data::Sample s = data::generate_sample(t, cfg, rng);
      expect_packed_layout(s, false);
      expect_packed_layout(s, true);
    }
  }
}

TEST(PlanPacked, TinySampleOrder) {
  // Path 0 (2 hops) outranks path 1 (1 hop); at the second hop only
  // packed row 0 is active.
  const MpPlan plan = build_plan(tiny_sample(), /*use_nodes=*/false);
  EXPECT_EQ(to_vec(plan.packed_order()), (std::vector<nn::Index>{0, 1}));
  EXPECT_EQ(to_vec(plan.position(1).packed_rows),
            (std::vector<nn::Index>{0}));

  // Reversing the sample's path order flips the packed order, not the
  // prefix property.
  data::Sample s = tiny_sample();
  std::swap(s.paths[0], s.paths[1]);
  const MpPlan flipped = build_plan(s, /*use_nodes=*/true);
  EXPECT_EQ(to_vec(flipped.packed_order()), (std::vector<nn::Index>{1, 0}));
  EXPECT_EQ(to_vec(flipped.position(0).packed_rows),
            (std::vector<nn::Index>{1, 0}));
  EXPECT_EQ(to_vec(flipped.position(2).path_rows),
            (std::vector<nn::Index>{1}));
  EXPECT_EQ(to_vec(flipped.position(2).packed_rows),
            (std::vector<nn::Index>{0}));
}

// -- memory growth law (the compaction's point) ----------------------------

// A routing-only sample (no simulation): all-pairs hop-count paths on the
// topology, with placeholder labels — plan construction only reads the
// path structure, so this is enough to measure bytes() on large graphs.
data::Sample routing_only_sample(const topo::Topology& t) {
  data::Sample s;
  s.topo_name = t.name();
  s.num_nodes = static_cast<std::uint32_t>(t.num_nodes());
  for (const auto& l : t.graph().links()) s.links.push_back(l);
  s.link_capacity_bps.assign(t.num_links(), 1e7);
  s.queue_pkts.assign(t.num_nodes(), 32);
  const topo::RoutingScheme routing = topo::hop_count_routing(t);
  for (const auto& [src, dst] : routing.pairs()) {
    const topo::Path& p = routing.path(src, dst);
    data::PathRecord rec;
    rec.src = src;
    rec.dst = dst;
    rec.nodes = p.nodes;
    rec.links = p.links;
    rec.traffic_bps = 1e5;
    rec.mean_delay_s = 1e-3;
    rec.delivered = 100;
    s.paths.push_back(std::move(rec));
  }
  s.validate();
  return s;
}

TEST(PlanMemory, BytesGrowLinearInTotalPathLength) {
  // On Barabási–Albert graphs of increasing size, the arena footprint
  // must track the total path length (sum of hops), NOT paths x links —
  // the quadratic blowup that would sink a 300-node serve.
  for (const std::size_t n : {16u, 32u, 64u, 128u}) {
    util::RngStream rng(0xba5eull + n);
    const topo::Topology t = topo::barabasi_albert(n, 2, rng);
    const data::Sample s = routing_only_sample(t);
    std::size_t total_hops = 0;
    for (const auto& p : s.paths) total_hops += p.links.size();

    for (const bool use_nodes : {false, true}) {
      const MpPlan plan = build_plan(s, use_nodes);
      // Entry accounting is exact: one arena slot per traversed element,
      // twice that (interleaved + incidences) in the extended plan.
      EXPECT_EQ(plan.total_entries(),
                use_nodes ? 2 * total_hops : total_hops);
      // Linear law: every index buffer is a fixed multiple of total path
      // length (three words per arena entry: row, element, packed row;
      // plus two per incidence), plus the packed order (one word per
      // path, and paths <= total hops) and the offset table (one u32 per
      // position, bounded by the graph diameter, not by size x paths).
      const std::size_t per_hop = use_nodes ? 8 : 3;  // index slots / hop
      const std::size_t linear_bound =
          (per_hop * total_hops + plan.num_paths) * sizeof(nn::Index) +
          (plan.num_positions() + 1) * sizeof(std::uint32_t);
      EXPECT_EQ(plan.bytes(), linear_bound);
      // And decisively below the quadratic regime.
      EXPECT_LT(plan.bytes(),
                plan.num_paths * plan.num_links * sizeof(nn::Index));
    }
  }
}

}  // namespace
