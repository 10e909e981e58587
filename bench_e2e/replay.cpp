/// \file replay.cpp
/// \brief The single-threaded replay behind the traced run.
///
/// Each request walks the same public functions a served request does —
/// format_request / parse_request, ArtifactStore::resolve, then
/// estimate_betti_with_plan, then format_response / parse_response — and,
/// when traced, the benchmark records one span around each call.  Spans
/// live in memory and are written out when the run ends.  Nothing inside
/// the program changes: the split of a resolve or execute span into
/// topology / compile / quantum / linalg time comes from the program's own
/// telemetry registry, which the replay resets before it starts.
#include <algorithm>
#include <map>

#include "bench.hpp"
#include "linalg/expm_multiply.hpp"
#include "serve/artifact_cache.hpp"

namespace qtda::e2e {

namespace {

/// In-memory span recorder; a disabled recorder reads no clocks.
class Recorder {
 public:
  Recorder(bool on, std::size_t capacity) : on_(on), origin_(Clock::now()) {
    if (on_) spans_.reserve(capacity);
  }

  class Scope {
   public:
    Scope(Recorder& recorder, const char* name)
        : recorder_(recorder), name_(name) {
      if (!recorder_.on_) return;
      depth_ = recorder_.depth_++;
      start_ = recorder_.now_ns();
    }
    ~Scope() {
      if (!recorder_.on_) return;
      const std::uint64_t end = recorder_.now_ns();
      --recorder_.depth_;
      recorder_.spans_.push_back({name_, start_, end - start_, depth_});
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder& recorder_;
    const char* name_;
    std::uint64_t start_ = 0;
    std::uint32_t depth_ = 0;
  };

  std::vector<BenchSpan> take() { return std::move(spans_); }

 private:
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             origin_)
            .count());
  }

  bool on_;
  Clock::time_point origin_;
  std::uint32_t depth_ = 0;
  std::vector<BenchSpan> spans_;
};

EstimateResponse execute(const ResolvedArtifacts& artifacts,
                         const EstimateRequest& request) {
  EstimateResponse response;
  response.id = request.id;
  response.ok = true;
  response.complex_hit = artifacts.complex_hit;
  response.laplacian_hit = artifacts.laplacian_hit;
  response.plan_hit = artifacts.plan_hit;
  if (artifacts.laplacian == nullptr) {
    // No k-simplices: the exact zero estimate, as BettiServer answers.
    response.estimate.shots = request.options.shots;
    response.estimate.precision_qubits = request.options.precision_qubits;
    return response;
  }
  MutexLock lock(artifacts.plan->exec_mutex);
  response.estimate =
      estimate_betti_with_plan(artifacts.plan->compiled, request.options);
  return response;
}

}  // namespace

ReplayResult replay(const Workload& workload, const Truth& truth,
                    bool traced, std::size_t batch, Tally& tally) {
  ReplayResult result;
  expm_coefficient_cache_clear();
  telemetry::registry().reset_values();
  ArtifactStore store;  // the server's default store
  const std::size_t n = workload.requests.size();
  Recorder recorder(traced, 7 * n);
  std::vector<EstimateResponse> responses(n);

  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const Recorder::Scope request_span(recorder, "request");
    std::string line;
    {
      const Recorder::Scope span(recorder, "protocol.format_request");
      line = format_request(workload.requests[i]);
    }
    result.request_bytes += line.size();
    EstimateRequest request;
    {
      const Recorder::Scope span(recorder, "protocol.parse_request");
      request = parse_request(line);
    }
    ResolvedArtifacts artifacts;
    {
      const Recorder::Scope span(recorder, "cache.resolve");
      const PointCloud cloud(request.points);
      artifacts =
          store.resolve(cloud, request.epsilon, request.k, request.options);
    }
    EstimateResponse response;
    {
      const Recorder::Scope span(recorder, "core.execute");
      response = execute(artifacts, request);
    }
    {
      const Recorder::Scope span(recorder, "protocol.format_response");
      line = format_response(response);
    }
    {
      const Recorder::Scope span(recorder, "protocol.parse_response");
      responses[i] = parse_response(line);
    }
  }
  result.wall_ms = 1e3 * seconds_between(start, Clock::now());
  result.program = collect_metrics(nullptr);
  result.spans = recorder.take();
  for (std::size_t i = 0; i < n; ++i) tally.check(responses[i], i, truth);
  if (!traced) return result;

  // All-hit resolves: the replay's store now holds every artifact.
  double hit_seconds = 0.0;
  std::size_t hits = 0;
  for (const EstimateRequest& request : workload.requests) {
    const PointCloud cloud(request.points);
    const Clock::time_point begin = Clock::now();
    const ResolvedArtifacts artifacts =
        store.resolve(cloud, request.epsilon, request.k, request.options);
    const double seconds = seconds_between(begin, Clock::now());
    if (artifacts.complex_hit &&
        (artifacts.laplacian == nullptr ||
         (artifacts.laplacian_hit && artifacts.plan_hit))) {
      hit_seconds += seconds;
      ++hits;
    }
  }
  result.resolve_hit_us = hits == 0 ? 0.0 : 1e6 * hit_seconds / hits;

  // estimate_betti_batch over the first `batch` requests of each plan.
  std::map<int, std::vector<std::size_t>> members;
  for (std::size_t i = 0; i < n; ++i) {
    const int plan = truth.plan_of[i];
    if (plan >= 0 && members[plan].size() < std::max<std::size_t>(batch, 1))
      members[plan].push_back(i);
  }
  double batch_seconds = 0.0;
  for (const auto& [plan, indices] : members) {
    const EstimateRequest& head = workload.requests[indices.front()];
    const ResolvedArtifacts artifacts = store.resolve(
        PointCloud(head.points), head.epsilon, head.k, head.options);
    std::vector<EstimatorOptions> options;
    for (const std::size_t i : indices)
      options.push_back(workload.requests[i].options);
    const Clock::time_point begin = Clock::now();
    std::vector<BettiEstimate> estimates;
    {
      MutexLock lock(artifacts.plan->exec_mutex);
      estimates = estimate_betti_batch(artifacts.plan->compiled, options);
    }
    batch_seconds += seconds_between(begin, Clock::now());
    for (std::size_t j = 0; j < indices.size(); ++j) {
      EstimateResponse response;
      response.ok = true;
      response.estimate = estimates[j];
      tally.check(response, indices[j], truth);
    }
  }
  result.batch_execute_ms =
      members.empty() ? 0.0 : 1e3 * batch_seconds / members.size();
  return result;
}

}  // namespace qtda::e2e
