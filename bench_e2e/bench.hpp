/// \file bench.hpp
/// \brief Shared declarations of the end-to-end served-Betti benchmark.
///
/// The benchmark drives the paper's traffic through an in-process
/// BettiServer over a Unix-domain socket and checks every response against
/// the library.  Its pieces:
///
///  * workloads.cpp — request lines generated from a seed (Table 1, the §5
///    Takens pipeline, and a one-window coalescing mix);
///  * truth.cpp     — library-side truth computed outside the timed window:
///    bit-for-bit reference estimates, exact Betti numbers, a validity check
///    of every distinct plan, the workload shape, and per-key stage timings;
///  * served.cpp    — closed-loop served passes and the direct handle pass;
///  * replay.cpp    — the single-threaded replay (protocol → resolve →
///    execute) that the traced run records spans around;
///  * main.cpp      — command line, metric assembly and the JSON report.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/telemetry.hpp"
#include "core/betti_estimator.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"

namespace qtda::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// One generated workload: the requests the program receives and how they
/// are offered to it.
struct Workload {
  std::string name;
  std::size_t clients = 1;     ///< closed-loop client threads
  double tail_quantile = 0.99;  ///< fixed per workload so runs compare
  std::vector<EstimateRequest> requests;
  double synth_ms = 0.0;  ///< data synthesis + point-cloud construction
};

/// The workload names, in the order the self-check runs them.
const std::vector<std::string>& workload_names();

/// Generates \p name from \p seed.  \p small keeps only a few requests (the
/// self-check); otherwise the full mix.  Throws on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool small);

/// A distinct compiled plan of a workload (one plan-cache key).
struct PlanTruth {
  std::string key;
  std::size_t width = 0;      ///< register qubits
  std::size_t ops = 0;        ///< compiled plan ops
  CompilerStats stats;
  double compile_ms = 0.0;    ///< compile_betti_estimate
  double setup_us = 0.0;      ///< make_simulator + prepare_basis_state
  double evolve_ms = 0.0;     ///< apply_plan
  double sample_us = 0.0;     ///< sample (the workload's shot count)
  double p0_error = 0.0;      ///< |p(0) − exact_zero_probability|
  std::string problem;        ///< why the validity check failed; "" = valid
};

/// Library-side truth of a workload, computed single-threaded before any
/// request is served.
struct Truth {
  std::vector<BettiEstimate> reference;   ///< per request
  std::vector<std::size_t> exact_betti;   ///< per request
  std::vector<int> plan_of;               ///< per request; -1 = no k-simplices
  std::vector<PlanTruth> plans;
  std::size_t invalid_plans = 0;

  // Workload shape: the traffic a later run must match to compare.
  std::size_t distinct_complexes = 0;
  std::size_t distinct_laplacians = 0;
  std::map<std::size_t, std::size_t> width_histogram;  ///< qubits → requests

  // Stage timings, once per distinct key (the misses of a fresh store).
  std::vector<double> rips_ms;
  std::vector<double> simplices;
  std::vector<double> laplacian_ms;
  std::vector<double> laplacian_nnz;
};

Truth compute_truth(const Workload& workload);

/// The validity verdict on a plan's final precision-register marginal: ""
/// when finite, normalized, and (where the eigensolve ran) p(0) equals the
/// exact zero probability; otherwise what is wrong.
std::string probability_problem(const std::vector<double>& probabilities,
                                double exact_zero_probability,
                                bool eigensolve_ran);

/// True when \p a and \p b agree bit for bit on every field the protocol
/// carries.
bool same_estimate(const BettiEstimate& a, const BettiEstimate& b);

/// Tallies of checked responses.
struct Tally {
  std::size_t attempted = 0;
  std::size_t completed = 0;  ///< ok and bit-identical
  std::size_t failed = 0;     ///< error, exception, mismatch, invalid plan
  double abs_error_sum = 0.0;  ///< Σ |β̃ − β| over completed
  std::vector<std::string> problems;  ///< the first few failure reasons

  void fail(std::string why);
  /// Checks one response of request \p index and counts it; true when it
  /// passed.
  bool check(const EstimateResponse& response, std::size_t index,
             const Truth& truth);
  void merge(const Tally& other);
};

/// One closed-loop served pass: fresh server and caches, every request once.
struct PassResult {
  double setup_s = 0.0;  ///< synthesis + server start + client connects
  double wall_s = 0.0;   ///< first request sent → last response received
  double cpu_s = 0.0;    ///< process user + sys over the timed window
  double ctx_switches = 0.0;  ///< voluntary + involuntary, timed window
  double peak_rss_mb = 0.0;   ///< resident high-water mark of this pass
  double steal_frac = 0.0;    ///< machine-wide CPU steal, timed window
  std::vector<double> latency_ms;  ///< per completed request
  Tally tally;
  std::optional<MetricsReport> scrape;  ///< `metrics` verb after the pass
};

PassResult served_pass(const std::string& name, std::uint64_t seed,
                       bool small, const Truth& truth,
                       const std::string& socket_path, bool scrape);

/// BettiServer::handle on every request of a fresh (unstarted) server, in
/// request order; returns per-request milliseconds.
std::vector<double> handle_pass(const Workload& workload, const Truth& truth,
                                Tally& tally);

/// One benchmark-side span of the traced replay.
struct BenchSpan {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t duration_ns;
  std::uint32_t depth;
};

/// Result of one single-threaded replay.
struct ReplayResult {
  double wall_ms = 0.0;
  std::vector<BenchSpan> spans;  ///< empty when untraced
  std::size_t request_bytes = 0;  ///< Σ request line sizes
  MetricsReport program;  ///< telemetry registry, reset at replay start
  // Probes run after the replay's timed loop, traced runs only.
  double resolve_hit_us = 0.0;    ///< mean resolve with every level hitting
  double batch_execute_ms = 0.0;  ///< mean estimate_betti_batch call
};

/// Replays \p workload in request order on one thread through a fresh
/// ArtifactStore: protocol, then resolve, then execute.  When \p traced,
/// records a span around each call and afterwards probes all-hit resolves
/// and estimate_betti_batch over up to \p batch requests per distinct plan.
/// Every result is checked into \p tally.
ReplayResult replay(const Workload& workload, const Truth& truth,
                    bool traced, std::size_t batch, Tally& tally);

}  // namespace qtda::e2e
