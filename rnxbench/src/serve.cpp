// The serve phase: an open loop of Poisson arrivals at two fixed absolute
// rates drives a BatchScheduler in front of the two-bundle registry.
// Latency is timed from each request's scheduled send time, so a stall also
// charges the requests queued behind it; how late the generator itself ran
// is recorded per request.
//
// Threads: this (generator) thread, one collector, the scheduler's
// drainer and the registry pool's one worker.
#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <thread>

#include "serve/errors.hpp"
#include "serve/scheduler.hpp"
#include "util/bounded_queue.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace rnxbench {
namespace {

using namespace rnx;

enum class Outcome { kCompleted, kShed, kExpired, kFailed, kMismatch };

struct Request {
  std::size_t scenario = 0;
  bool ext = false;
  Clock::time_point due, sent, submitted, done;
  serve::Submitted sub;
  Outcome outcome = Outcome::kFailed;
};

/// Arrival times (offsets from the start, seconds) of a Poisson process
/// at `rps`, either `count` of them or every one inside `window_s`.
std::vector<double> arrivals(util::RngStream& rng, double rps,
                             std::size_t count, double window_s) {
  std::vector<double> at;
  double t = 0.0;
  while (true) {
    t += rng.exponential(1.0 / rps);
    if (count > 0 ? at.size() == count : t > window_s) break;
    at.push_back(t);
  }
  return at;
}

/// Send one open-loop stream and wait for every response.
std::vector<Request> open_loop(const Fixture& fx, const std::vector<double>& at,
                               util::RngStream& rng,
                               std::chrono::microseconds deadline,
                               Tracer& tracer, std::uint64_t& next_request_id,
                               serve::ServeStats& stats) {
  serve::SchedulerConfig cfg;
  cfg.max_queue_depth = frozen::kServeQueueDepth;
  cfg.max_batch_samples = frozen::kServeMaxBatch;
  cfg.max_linger = std::chrono::microseconds(frozen::kServeLingerUs);
  serve::BatchScheduler sched(cfg, fx.registry->pool());

  std::vector<Request> reqs(at.size());
  for (Request& r : reqs) {
    r.scenario = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(fx.serve_scenarios.size()) - 1));
    r.ext = rng.bernoulli(0.5);
  }

  const std::int64_t phase_span = Tracer::current();
  const std::uint64_t first_id = next_request_id;
  next_request_id += reqs.size();
  util::BoundedQueue<std::size_t> admitted(reqs.size() + 1);
  std::thread collector([&] {
    while (const std::optional<std::size_t> i = admitted.pop()) {
      Request& r = reqs[*i];
      r.sub.result.wait();
      r.done = Clock::now();
      try {
        const serve::PredictionSet got = r.sub.result.get();
        const auto& ref = r.ext ? fx.serve_ref_ext[r.scenario]
                                : fx.serve_ref_orig[r.scenario];
        r.outcome = got.size() == 1 && bitwise_equal(got[0], ref)
                        ? Outcome::kCompleted
                        : Outcome::kMismatch;
      } catch (const serve::DeadlineExceededError&) {
        r.outcome = Outcome::kExpired;
      } catch (const std::exception&) {
        r.outcome = Outcome::kFailed;
      }
      if (tracer.enabled()) {
        const std::uint64_t id = first_id + *i;
        const std::int64_t span = tracer.record("serve.request", r.due, r.done,
                                                phase_span, id);
        tracer.record("serve.submit", r.sent, r.submitted, span, id);
      }
    }
  });

  const auto stop_collector = [&] {
    admitted.close();
    collector.join();
  };
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  serve::SubmitOptions opts;
  opts.deadline = deadline;
  try {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      Request& r = reqs[i];
      r.due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(at[i]));
      std::this_thread::sleep_until(r.due);
      r.sent = Clock::now();
      const data::Sample& sample = fx.serve_scenarios[r.scenario];
      r.sub = sched.submit(*fx.registry, r.ext ? "ext" : "orig",
                           std::span(&sample, 1), opts);
      r.submitted = Clock::now();
      if (r.sub.admitted()) {
        admitted.push(i);
      } else {
        r.outcome = Outcome::kShed;
        r.done = r.submitted;
      }
    }
  } catch (...) {
    stop_collector();
    throw;
  }
  stop_collector();
  stats = sched.stats();
  return reqs;
}

/// Fold one stream's requests into the pass result; returns the count
/// completed within the latency limit.
std::size_t tally(const std::vector<Request>& reqs, Ledger& ledger,
                  ServeResult& out, std::vector<double>* latency_ms) {
  std::size_t good = 0;
  for (const Request& r : reqs) {
    ++out.attempted;
    out.late_ms.push_back(ms_between(r.due, r.sent));
    out.submit_us.push_back(ms_between(r.sent, r.submitted) * 1000.0);
    switch (r.outcome) {
      case Outcome::kCompleted: {
        ++out.completed;
        const double ms = ms_between(r.due, r.done);
        if (latency_ms != nullptr) latency_ms->push_back(ms);
        if (ms <= frozen::kServeLimitMs) ++good;
        ledger.add_ok(1);
        break;
      }
      case Outcome::kShed:
        ++out.shed;
        ledger.add_ok(1);
        break;
      case Outcome::kExpired:
        ++out.expired;
        ledger.add_ok(1);
        break;
      case Outcome::kFailed:
        ++out.failed;
        ledger.expect(false, "serve request failed with a forward error");
        break;
      case Outcome::kMismatch:
        ledger.expect(false,
                      "serve response differs from InferenceEngine::predict "
                      "(scenario " + std::to_string(r.scenario) + ")");
        break;
    }
  }
  return good;
}

}  // namespace

void run_serve_pass(const Fixture& fx, std::uint64_t seed, std::size_t pass,
                    std::size_t scale, Tracer& tracer, Ledger& ledger,
                    ServeResult& out) {
  const ScopedSpan phase(tracer, "bench.serve");
  util::RngStream rng = util::RngStream(seed).derive("serve", pass);
  std::uint64_t next_id = 1 + pass * 1'000'000;
  const core::PlanCache::Stats before = fx.registry->plan_cache().stats();

  serve::ServeStats st;
  {
    const ScopedSpan span(tracer, "bench.serve.moderate");
    const std::vector<Request> reqs =
        open_loop(fx,
                  arrivals(rng, frozen::kServeModerateRps,
                           scale * frozen::kServeModerateRequests, 0.0),
                  rng, std::chrono::microseconds(0), tracer, next_id, st);
    tally(reqs, ledger, out, &out.moderate_ms);
  }
  out.batches += st.batches;
  out.batch_samples += st.batch_samples;
  out.peak_queue_depth = std::max(out.peak_queue_depth, st.peak_queue_depth);

  {
    const ScopedSpan span(tracer, "bench.serve.overload");
    const auto deadline = std::chrono::microseconds(
        static_cast<long>(frozen::kServeDeadlineMs * 1000.0));
    const double window_s =
        static_cast<double>(scale) * frozen::kServeOverloadSeconds;
    const std::vector<Request> reqs =
        open_loop(fx, arrivals(rng, frozen::kServeOverloadRps, 0, window_s),
                  rng, deadline, tracer, next_id, st);
    const std::size_t good = tally(reqs, ledger, out, nullptr);
    out.goodput_rps.push_back(static_cast<double>(good) / window_s);
  }
  out.peak_queue_depth = std::max(out.peak_queue_depth, st.peak_queue_depth);

  const core::PlanCache::Stats after = fx.registry->plan_cache().stats();
  out.cache_lookups += after.lookups - before.lookups;
  out.cache_hits += after.hits - before.hits;
  out.cache_evictions += after.evictions - before.evictions;
  out.cache_peak_bytes = std::max(out.cache_peak_bytes, after.peak_bytes);
}

}  // namespace rnxbench
