// The query phase: one client in a closed loop sends delay queries through
// InferenceEngine::predict, alternating the extended and the original model,
// over a fixed set of GEANT2 scenarios whose plans are cached.
#include <string>

#include "nn/kernels.hpp"
#include "workloads.hpp"

namespace rnxbench {

using namespace rnx;

void run_query_pass(const Fixture& fx, std::size_t pairs, Tracer& tracer,
                    Ledger& ledger, QueryResult& out) {
  const ScopedSpan phase(tracer, "bench.query");
  const std::size_t n = fx.query_scenarios.size();
  for (std::size_t i = 0; i < pairs; ++i) {
    const data::Sample& s = fx.query_scenarios[i % n];
    for (const bool ext : {true, false}) {
      const serve::InferenceEngine& engine =
          ext ? *fx.query_ext : *fx.query_orig;
      std::vector<double> y;
      const Clock::time_point t0 = Clock::now();
      {
        const ScopedSpan span(tracer, ext ? "serve.predict.ext"
                                          : "serve.predict.orig");
        y = engine.predict(s);
      }
      const double ms = ms_between(t0, Clock::now());
      (ext ? out.ext_ms : out.orig_ms).push_back(ms);
      const auto& ref =
          ext ? fx.query_ref_ext[i % n] : fx.query_ref_orig[i % n];
      if (!bitwise_equal(y, ref))
        ledger.expect(false, std::string("query response differs from the "
                                         "reference prediction (") +
                                 (ext ? "ext" : "orig") + ", scenario " +
                                 std::to_string(i % n) + ")");
      else
        ledger.add_ok(1);
    }
  }
}

void check_query_parity(const Fixture& fx, Ledger& ledger) {
  const nn::kernels::ScopedBackendOverride scalar(
      nn::kernels::scalar_backend());
  for (std::size_t i = 0; i < fx.query_scenarios.size(); ++i) {
    const data::Sample& s = fx.query_scenarios[i];
    const double ext =
        max_rel_diff(fx.query_ref_ext[i], fx.query_ext->predict(s));
    const double orig =
        max_rel_diff(fx.query_ref_orig[i], fx.query_orig->predict(s));
    ledger.expect(ext <= frozen::kParityRelTol,
                  "ext prediction vs scalar reference: max rel diff " +
                      std::to_string(ext) + ", scenario " + std::to_string(i));
    ledger.expect(orig <= frozen::kParityRelTol,
                  "orig prediction vs scalar reference: max rel diff " +
                      std::to_string(orig) + ", scenario " + std::to_string(i));
  }
}

}  // namespace rnxbench
