#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

namespace rnxbench {

// ---- percentile rule -------------------------------------------------------

std::size_t rank_index(std::size_t n, double q) {
  // The epsilon keeps a q computed as 100 * k / n on rank k.
  const double r = std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9);
  const auto k = static_cast<std::size_t>(std::max(r, 1.0)) - 1;
  return std::min(k, n - 1);
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - 1 - rank_index(n, q);
}

double percentile(std::vector<double> xs, double q) {
  const std::size_t k = rank_index(xs.size(), q);
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(k),
                   xs.end());
  return xs[k];
}

double median(std::vector<double> xs) {
  return percentile(std::move(xs), 50.0);
}

Tail tail_percentile(std::vector<double> xs, double q) {
  Tail t;
  if (xs.empty()) return t;
  t.valid = samples_beyond(xs.size(), q) >= kMinTail;
  t.value = percentile(std::move(xs), q);
  return t;
}

// ---- spans ----------------------------------------------------------------

std::string_view layer_of(std::string_view name) noexcept {
  return name.substr(0, name.find('.'));
}

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::map<std::int64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0) children[spans[i].parent].push_back(i);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<double, double>> cover;
    if (const auto it = children.find(s.id); it != children.end())
      for (const std::size_t c : it->second) {
        const double lo = std::max(spans[c].start_us, s.start_us);
        const double hi = std::min(spans[c].end_us, s.end_us);
        if (hi > lo) cover.emplace_back(lo, hi);
      }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0, run_lo = 0.0, run_hi = 0.0;
    bool open = false;
    for (const auto& [lo, hi] : cover) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = std::max(0.0, (s.end_us - s.start_us) - covered);
  }
  return self;
}

std::map<std::string, double> layer_self_us(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_us(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[std::string(layer_of(spans[i].name))] += self[i];
  return out;
}

std::vector<double> durations_ms(const std::vector<Span>& spans,
                                 std::string_view name) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (s.name == name) out.push_back((s.end_us - s.start_us) / 1000.0);
  return out;
}

namespace {
thread_local std::vector<std::int64_t> t_open_spans;
}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

double Tracer::us_since_epoch(Clock::time_point t) const noexcept {
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

std::int64_t Tracer::open(const char* name) {
  if (!enabled_) return -1;
  const double now = us_since_epoch(Clock::now());
  const std::int64_t parent = current();
  std::int64_t id = 0;
  {
    const rnx::util::MutexLock lock(mu_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(Span{name, now, -1.0, id, parent, 0});
  }
  t_open_spans.push_back(id);
  return id;
}

void Tracer::close(std::int64_t id) {
  if (id < 0) return;
  const double now = us_since_epoch(Clock::now());
  if (!t_open_spans.empty() && t_open_spans.back() == id)
    t_open_spans.pop_back();
  const rnx::util::MutexLock lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_us = now;
}

std::int64_t Tracer::record(const char* name, Clock::time_point start,
                            Clock::time_point end, std::int64_t parent,
                            std::uint64_t request) {
  if (!enabled_) return -1;
  const rnx::util::MutexLock lock(mu_);
  const auto id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back(Span{name, us_since_epoch(start), us_since_epoch(end), id,
                        parent, request});
  return id;
}

std::int64_t Tracer::current() noexcept {
  return t_open_spans.empty() ? -1 : t_open_spans.back();
}

std::vector<Span> Tracer::spans() const {
  const rnx::util::MutexLock lock(mu_);
  return spans_;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const std::vector<Span> all = spans();
  f << "[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    f << (i ? ",\n" : "\n") << "{\"name\":" << json_string(s.name)
      << ",\"start_us\":" << json_number(s.start_us)
      << ",\"end_us\":" << json_number(s.end_us) << ",\"id\":" << s.id
      << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}";
  }
  f << "\n]\n";
  return static_cast<bool>(f);
}

// ---- correctness checks ----------------------------------------------------

bool bitwise_equal(std::span<const double> a,
                   std::span<const double> b) noexcept {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

double max_rel_diff(std::span<const double> a,
                    std::span<const double> b) noexcept {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (a.size() != b.size()) return kInf;
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!std::isfinite(a[i]) || !std::isfinite(b[i])) return kInf;
    const double scale = std::max(std::fabs(b[i]), 1e-300);
    worst = std::max(worst, std::fabs(a[i] - b[i]) / scale);
  }
  return worst;
}

bool finite_and_decreasing(std::span<const double> losses) noexcept {
  if (losses.size() < 2) return false;
  for (const double l : losses)
    if (!std::isfinite(l)) return false;
  return losses.back() < losses.front();
}

std::uint64_t fold_digests(std::span<const std::uint64_t> ds) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint64_t d : ds)
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (d >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  return h;
}

bool Ledger::expect(bool ok, std::string_view what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "rnxbench: check failed: " << what << "\n";
  }
  return ok;
}

// ---- result ---------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string result_line(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    os << (i ? ", " : "") << json_string(metrics[i].name)
       << ": {\"value\": " << json_number(metrics[i].value)
       << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  os << "}}";
  return os.str();
}

}  // namespace rnxbench
