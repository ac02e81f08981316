// The benchmark's own logic, kept apart from the workloads so its tests
// (tests/harness_test.cpp) can pin it on exact data:
//
//  * the percentile rule — a tail percentile is reported only when at
//    least kMinTail samples lie beyond it;
//  * the span recorder — spans around each call the benchmark makes into
//    a module, with per-layer self time;
//  * the correctness checks — bitwise and tolerance comparisons of
//    predictions, digest equality, a finite and decreasing loss;
//  * the result line — one JSON object, every value with all its digits.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace rnxbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) noexcept {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- percentile rule -------------------------------------------------------

/// A tail percentile needs at least this many samples beyond it.
inline constexpr std::size_t kMinTail = 10;

/// Nearest-rank index of the q-th percentile (0 < q <= 100) among n
/// sorted samples: ceil(q/100 * n) - 1, clamped to [0, n).  n > 0.
[[nodiscard]] std::size_t rank_index(std::size_t n, double q);
/// Samples ranked strictly after the q-th percentile's sample.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);
/// Nearest-rank q-th percentile of xs (any order; xs non-empty).
[[nodiscard]] double percentile(std::vector<double> xs, double q);
[[nodiscard]] double median(std::vector<double> xs);

struct Tail {
  double value = 0.0;
  bool valid = false;  ///< at least kMinTail samples beyond the rank
};
/// The q-th percentile, marked valid only under the percentile rule.
[[nodiscard]] Tail tail_percentile(std::vector<double> xs, double q);

// ---- spans ----------------------------------------------------------------

/// One traced call.  `name` is "<layer>.<call>"; times are microseconds
/// since the tracer was created.  Spans of one serve request share
/// `request` (0 = not part of a request).
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 = root
  std::uint64_t request = 0;
};

/// The layer a span belongs to: its name up to the first '.'.
[[nodiscard]] std::string_view layer_of(std::string_view name) noexcept;
/// Per-span self time (same order as `spans`): its duration minus the
/// part of its interval covered by the union of its children.
[[nodiscard]] std::vector<double> self_times_us(const std::vector<Span>& spans);
/// Self time summed per layer.
[[nodiscard]] std::map<std::string, double> layer_self_us(
    const std::vector<Span>& spans);
/// Durations (ms) of every span with exactly this name.
[[nodiscard]] std::vector<double> durations_ms(const std::vector<Span>& spans,
                                               std::string_view name);

/// In-memory span recorder.  Disabled, every call is a branch and
/// nothing is stored.  Thread-safe; the parent of a scoped span is the
/// innermost open scoped span of the same thread.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Open a span on this thread (returns -1 when disabled).
  std::int64_t open(const char* name);
  void close(std::int64_t id);
  /// Record a finished span timed by the caller — e.g. a serve request
  /// timed from its scheduled send time on another thread.
  std::int64_t record(const char* name, Clock::time_point start,
                      Clock::time_point end, std::int64_t parent,
                      std::uint64_t request);
  /// This thread's innermost open span (-1 = none).
  [[nodiscard]] static std::int64_t current() noexcept;

  [[nodiscard]] std::vector<Span> spans() const;
  /// Write every span as a JSON array.  Returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  [[nodiscard]] double us_since_epoch(Clock::time_point t) const noexcept;

  bool enabled_;
  const Clock::time_point epoch_;
  mutable rnx::util::Mutex mu_;
  /// Indexed by span id; an open span has end_us < start_us.
  std::vector<Span> spans_ RNX_GUARDED_BY(mu_);
};

/// RAII span on the calling thread.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

// ---- correctness checks ----------------------------------------------------

/// True when both vectors hold the same doubles bit for bit.
[[nodiscard]] bool bitwise_equal(std::span<const double> a,
                                 std::span<const double> b) noexcept;
/// max_i |a_i - b_i| / max(|b_i|, tiny); +inf on a size mismatch or a
/// non-finite entry.
[[nodiscard]] double max_rel_diff(std::span<const double> a,
                                  std::span<const double> b) noexcept;
/// Every loss finite and the last strictly below the first.
[[nodiscard]] bool finite_and_decreasing(
    std::span<const double> losses) noexcept;
/// Order-sensitive fold of per-item digests into one (FNV-1a over the
/// little-endian bytes).
[[nodiscard]] std::uint64_t fold_digests(
    std::span<const std::uint64_t> ds) noexcept;

/// Operation accounting: every operation the benchmark issues or check
/// it makes is attempted; a failed check or an operation that threw is
/// failed.  Failure messages go to stderr.
class Ledger {
 public:
  /// Count one operation and return `ok`.
  bool expect(bool ok, std::string_view what);
  void add_ok(std::size_t n) noexcept { attempted_ += n; }
  [[nodiscard]] std::size_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

// ---- result ---------------------------------------------------------------

/// A number as JSON with all 17 significant digits (null if non-finite).
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(std::string_view s);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The last line of the benchmark's output: exactly the keys correct,
/// attempted, failed and metrics.
[[nodiscard]] std::string result_line(bool correct, std::size_t attempted,
                                      std::size_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace rnxbench
