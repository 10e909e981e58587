/// \file micro_serve.cpp
/// \brief google-benchmark microbenches for the serving layer.
///
/// The headline pairs are the serving layer's two perf claims:
///
///  * BM_ServeCold vs BM_ServeWarm — one q=10 sparse estimate (33-point
///    cloud, complete Rips graph, 528 edges padded to 1024) answered from
///    an empty ArtifactStore versus a populated one.  Cold pays Rips
///    expansion, CSR Laplacian assembly, Chebyshev-ladder circuit
///    construction, plan compilation and the diagnostic eigensolve; warm
///    pays key lookup plus the shot execution only.
///  * BM_ServeSerial vs BM_ServeBatched — the evolve-once primitive: six
///    identical-plan purification requests executed one evolution each
///    (the plan's distribution memo emptied before every request) versus
///    one evolution per batch with per-request shot sampling from the memo
///    (bit-identical by construction, see CompiledEstimate::distribution).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "core/betti_estimator.hpp"
#include "linalg/expm_multiply.hpp"
#include "serve/artifact_cache.hpp"
#include "topology/laplacian.hpp"
#include "topology/point_cloud.hpp"
#include "topology/rips.hpp"

namespace {

using namespace qtda;

PointCloud circle_cloud(std::size_t n) {
  std::vector<std::vector<double>> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double angle = 6.283185307179586 * static_cast<double>(i) /
                         static_cast<double>(n);
    points.push_back({std::cos(angle), std::sin(angle)});
  }
  return PointCloud(std::move(points));
}

/// The q=10 serving request: ε=3 exceeds the circle's diameter, so the Rips
/// graph is complete — 528 edges, padded to a 1024-dimensional (q=10)
/// system register.  Sampled-basis mixture with few shots keeps the warm
/// side dominated by plan execution rather than shot volume.
EstimatorOptions serve_request_options() {
  EstimatorOptions options;
  options.backend = EstimatorBackend::kCircuitSparse;
  options.mixed_state = MixedStateMode::kSampledBasis;
  options.precision_qubits = 2;
  options.shots = 4;
  return options;
}

/// Cold request: a fresh store per iteration (and a cleared process-wide
/// Chebyshev coefficient memo — the daemon-restart condition), so every
/// cache level misses and the full resolve-and-compile chain runs.
void BM_ServeCold(benchmark::State& state) {
  const PointCloud cloud = circle_cloud(33);
  const EstimatorOptions options = serve_request_options();
  std::size_t system_qubits = 0;
  for (auto _ : state) {
    ArtifactStore store;
    expm_coefficient_cache_clear();
    const ResolvedArtifacts resolved = store.resolve(cloud, 3.0, 1, options);
    const BettiEstimate estimate =
        estimate_betti_with_plan(resolved.plan->compiled, options);
    system_qubits = estimate.system_qubits;
    benchmark::DoNotOptimize(estimate.estimated_betti);
  }
  state.counters["q"] = static_cast<double>(system_qubits);
}
BENCHMARK(BM_ServeCold);

/// Warm request against the same store: every level hits, so the iteration
/// is key lookup plus plan execution — the sustained-throughput regime the
/// cache exists for.  Bit-identical to the cold result (asserted by
/// tests/test_serve.cpp; here we only time it).
void BM_ServeWarm(benchmark::State& state) {
  const PointCloud cloud = circle_cloud(33);
  const EstimatorOptions options = serve_request_options();
  ArtifactStore store;
  store.resolve(cloud, 3.0, 1, options);  // populate every level
  std::size_t system_qubits = 0;
  for (auto _ : state) {
    const ResolvedArtifacts resolved = store.resolve(cloud, 3.0, 1, options);
    MutexLock lock(resolved.plan->exec_mutex);
    const BettiEstimate estimate =
        estimate_betti_with_plan(resolved.plan->compiled, options);
    system_qubits = estimate.system_qubits;
    benchmark::DoNotOptimize(estimate.estimated_betti);
  }
  state.counters["q"] = static_cast<double>(system_qubits);
}
BENCHMARK(BM_ServeWarm);

/// The batcher's workload: six identical-plan purification requests
/// (distinct seeds) on a q=7 complete-graph Laplacian — a 17-qubit
/// register, so each evolution dominates its request.
struct BatchWorkload {
  CompiledEstimate compiled;
  std::vector<EstimatorOptions> requests;
};

BatchWorkload batch_workload() {
  const PointCloud cloud = circle_cloud(12);
  const SimplicialComplex complex = rips_complex(cloud, 3.0, 2);
  const SparseMatrix laplacian = sparse_combinatorial_laplacian(complex, 1);
  EstimatorOptions options;
  options.backend = EstimatorBackend::kCircuitSparse;
  options.precision_qubits = 3;
  options.shots = 256;
  BatchWorkload workload;
  workload.compiled = compile_betti_estimate(laplacian, options);
  workload.requests.assign(6, options);
  for (std::size_t i = 0; i < workload.requests.size(); ++i)
    workload.requests[i].seed = 100 + i;
  return workload;
}

/// Serial baseline: one full state evolution per request (the memo is
/// emptied first, as for six distinct plans).
void BM_ServeSerial(benchmark::State& state) {
  const BatchWorkload workload = batch_workload();
  for (auto _ : state) {
    double total = 0.0;
    for (const EstimatorOptions& request : workload.requests) {
      workload.compiled.distribution.reset();
      total += estimate_betti_with_plan(workload.compiled, request)
                   .estimated_betti;
    }
    benchmark::DoNotOptimize(total);
  }
  state.counters["requests"] =
      static_cast<double>(workload.requests.size());
  state.counters["total_qubits"] =
      static_cast<double>(workload.compiled.total_qubits);
}
BENCHMARK(BM_ServeSerial);

/// Batched: one evolution, per-request shot sampling — what the server's
/// admission queue coalesces identical-plan requests into.  The memo is
/// emptied per batch so every iteration pays its one evolution.
void BM_ServeBatched(benchmark::State& state) {
  const BatchWorkload workload = batch_workload();
  for (auto _ : state) {
    workload.compiled.distribution.reset();
    double total = 0.0;
    for (const BettiEstimate& estimate :
         estimate_betti_batch(workload.compiled, workload.requests))
      total += estimate.estimated_betti;
    benchmark::DoNotOptimize(total);
  }
  state.counters["requests"] =
      static_cast<double>(workload.requests.size());
  state.counters["total_qubits"] =
      static_cast<double>(workload.compiled.total_qubits);
}
BENCHMARK(BM_ServeBatched);

}  // namespace
