// Tests of the benchmark's own logic: the percentile rule, self time,
// and every correctness check firing on a perturbed input.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "harness.hpp"

namespace rnxbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i)
    xs[i] = static_cast<double>(n - i);  // descending: exercises the sort
  return xs;
}

// ---- percentile rule -------------------------------------------------------

TEST(PercentileRule, NearestRank) {
  EXPECT_EQ(rank_index(1000, 99.0), 989u);
  EXPECT_EQ(rank_index(1000, 50.0), 499u);
  EXPECT_EQ(rank_index(1, 99.0), 0u);
  EXPECT_DOUBLE_EQ(percentile(ramp(1000), 99.0), 990.0);
  EXPECT_DOUBLE_EQ(median(ramp(5)), 3.0);
}

TEST(PercentileRule, P99NeedsAThousandSamples) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);
  EXPECT_TRUE(tail_percentile(ramp(1000), 99.0).valid);
  EXPECT_FALSE(tail_percentile(ramp(999), 99.0).valid);
  EXPECT_FALSE(tail_percentile({}, 50.0).valid);
}

TEST(PercentileRule, TailValidExactlyWhenTenSamplesLieBeyond) {
  // The highest valid percentile of n samples leaves exactly ten beyond:
  // 100 * (n - 10) / n.  Anything above it leaves fewer.
  for (const std::size_t n : {11u, 50u, 200u, 2000u, 12345u}) {
    const double highest =
        100.0 * static_cast<double>(n - kMinTail) / static_cast<double>(n);
    EXPECT_EQ(samples_beyond(n, highest), kMinTail) << "n=" << n;
    EXPECT_TRUE(tail_percentile(ramp(n), highest).valid) << "n=" << n;
    const double above = highest + 100.0 / static_cast<double>(n);
    EXPECT_LT(samples_beyond(n, above), kMinTail) << "n=" << n;
    EXPECT_FALSE(tail_percentile(ramp(n), above).valid) << "n=" << n;
  }
  EXPECT_FALSE(tail_percentile(ramp(10), 1.0).valid);
}

// ---- self time ------------------------------------------------------------

Span span(std::int64_t id, std::int64_t parent, double start, double end,
          const char* name = "core.x") {
  return Span{name, start, end, id, parent, 0};
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  // Root [0,100) with children [10,30) and [20,50) (overlapping: union
  // 40) and [90,120) clipped to [90,100): self = 100 - 40 - 10 = 50.
  const std::vector<Span> spans = {span(0, -1, 0, 100), span(1, 0, 10, 30),
                                   span(2, 0, 20, 50), span(3, 0, 90, 120)};
  const std::vector<double> self = self_times_us(spans);
  EXPECT_DOUBLE_EQ(self[0], 50.0);
  EXPECT_DOUBLE_EQ(self[1], 20.0);
  EXPECT_DOUBLE_EQ(self[2], 30.0);
  EXPECT_DOUBLE_EQ(self[3], 30.0);
}

TEST(SelfTime, GrandchildrenCountOnlyAgainstTheirParent) {
  const std::vector<Span> spans = {span(0, -1, 0, 100, "bench.phase"),
                                   span(1, 0, 0, 60, "serve.request"),
                                   span(2, 1, 0, 10, "serve.submit"),
                                   span(3, 0, 60, 100, "sim.run")};
  const auto by_layer = layer_self_us(spans);
  EXPECT_DOUBLE_EQ(by_layer.at("bench"), 0.0);
  EXPECT_DOUBLE_EQ(by_layer.at("serve"), 60.0);  // 50 request + 10 submit
  EXPECT_DOUBLE_EQ(by_layer.at("sim"), 40.0);
}

TEST(SelfTime, TracerRecordsParentsAndDurations) {
  Tracer tracer(true);
  {
    const ScopedSpan outer(tracer, "bench.outer");
    const ScopedSpan inner(tracer, "core.inner");
    const Clock::time_point now = Clock::now();
    tracer.record("serve.request", now, now, Tracer::current(), 7);
  }
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].parent, spans[1].id);
  EXPECT_EQ(spans[2].request, 7u);
  EXPECT_GE(spans[0].end_us, spans[1].end_us);
  EXPECT_EQ(durations_ms(spans, "core.inner").size(), 1u);
  EXPECT_EQ(layer_of("core.Model::forward.ext"), "core");

  Tracer off(false);
  { const ScopedSpan s(off, "core.inner"); }
  EXPECT_TRUE(off.spans().empty());
}

// ---- correctness checks fire on perturbed data ------------------------------

TEST(Checks, BitwiseComparisonCatchesOneUlp) {
  const std::vector<double> ref = {1.5e-3, 2.25e-3, 7.0e-4};
  std::vector<double> got = ref;
  EXPECT_TRUE(bitwise_equal(got, ref));
  got[1] = std::nextafter(got[1], 1.0);
  EXPECT_FALSE(bitwise_equal(got, ref));
  EXPECT_FALSE(
      bitwise_equal(std::vector<double>(ref.begin(), ref.end() - 1), ref));
}

TEST(Checks, ParityToleranceCatchesAPerturbedPrediction) {
  const std::vector<double> ref = {1.5e-3, 2.25e-3, 7.0e-4};
  std::vector<double> got = ref;
  got[2] *= 1.0 + 1e-12;  // within a 1e-9 bound
  EXPECT_LE(max_rel_diff(got, ref), 1e-9);
  got[0] *= 1.0 + 1e-6;  // a real divergence
  EXPECT_GT(max_rel_diff(got, ref), 1e-9);
  got[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isinf(max_rel_diff(got, ref)));
}

TEST(Checks, DigestFoldCatchesAChangedOrReorderedSample) {
  const std::vector<std::uint64_t> ds = {11, 22, 33};
  std::vector<std::uint64_t> perturbed = ds;
  perturbed[1] ^= 1;
  EXPECT_NE(fold_digests(ds), fold_digests(perturbed));
  EXPECT_NE(fold_digests(ds),
            fold_digests(std::vector<std::uint64_t>{22, 11, 33}));
  EXPECT_EQ(fold_digests(ds), fold_digests(std::vector<std::uint64_t>(ds)));
}

TEST(Checks, LossMustBeFiniteAndDecreasing) {
  EXPECT_TRUE(finite_and_decreasing(std::vector<double>{1.0, 1.2, 0.8}));
  EXPECT_FALSE(finite_and_decreasing(std::vector<double>{1.0, 0.9, 1.0}));
  EXPECT_FALSE(finite_and_decreasing(
      std::vector<double>{1.0, std::numeric_limits<double>::infinity(), 0.5}));
  EXPECT_FALSE(finite_and_decreasing(std::vector<double>{1.0}));
}

TEST(Checks, LedgerCountsFailures) {
  Ledger ledger;
  ledger.add_ok(3);
  EXPECT_TRUE(ledger.expect(true, "fine"));
  EXPECT_FALSE(ledger.expect(false, "perturbed prediction"));
  EXPECT_EQ(ledger.attempted(), 5u);
  EXPECT_EQ(ledger.failed(), 1u);
}

// ---- result line ----------------------------------------------------------

TEST(Result, LastLineHasExactlyTheContractKeys) {
  const std::string line =
      result_line(true, 3, 0, {{"latency_ms", 1.2034567890123, "ms"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"latency_ms\": {\"value\": 1.2034567890123, "
            "\"unit\": \"ms\"}}}");
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");  // all 17 digits
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
}

}  // namespace
}  // namespace rnxbench
