/// \file micro_sharded_statevector.cpp
/// \brief google-benchmark microbenches for the statevector engine's
/// chunked sweeps.
///
/// The acceptance workload pairs BM_GateSweepDense/q against
/// BM_GateSweepSharded/q/chunks (and likewise for the operator oracle):
/// identical circuits on the serial backend and on the same backend with
/// its gate sweeps split into `chunks` shared-pool tasks, so the recorded
/// BENCH_micro.json exposes the speedup directly.  The operator gate keeps
/// its own shared-pool batching at every chunk count, so its /chunks
/// entries time the same path as the serial one.  Each entry ends by
/// checking that the state is still finite, normal and of unit norm.
#include <benchmark/benchmark.h>

#include <memory>

#include "linalg/expm_multiply.hpp"
#include "linalg/sparse_matrix.hpp"
#include "quantum/backend.hpp"
#include "quantum/circuit.hpp"
#include "unit_output_check.hpp"

namespace {

using namespace qtda;

/// A gate sweep shaped like one QPE fragment: an H wall, an entangling CNOT
/// chain, and a rotation layer.
Circuit sweep_circuit(std::size_t q) {
  Circuit circuit(q);
  for (std::size_t w = 0; w < q; ++w) circuit.h(w);
  for (std::size_t w = 1; w < q; ++w) circuit.cnot(w - 1, w);
  for (std::size_t w = 0; w < q; ++w)
    circuit.rz(w, 0.1 * static_cast<double>(w + 1));
  return circuit;
}

/// Tridiagonal symmetric CSR Hamiltonian of dimension 2^m.
SparseMatrix tridiagonal_hamiltonian(std::size_t m) {
  const std::size_t dim = std::size_t{1} << m;
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i < dim; ++i) {
    triplets.push_back({i, i, 2.0});
    if (i + 1 < dim) {
      triplets.push_back({i, i + 1, -1.0});
      triplets.push_back({i + 1, i, -1.0});
    }
  }
  return SparseMatrix::from_triplets(dim, dim, std::move(triplets));
}

void BM_GateSweepDense(benchmark::State& state) {
  const auto q = static_cast<std::size_t>(state.range(0));
  StatevectorBackend backend(q);
  const Circuit circuit = sweep_circuit(q);
  for (auto _ : state) {
    backend.apply_circuit(circuit);
    benchmark::DoNotOptimize(backend.state().amplitudes().data());
  }
  if (!check_unit_output(state, backend.state().amplitudes())) return;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(circuit.gate_count()) *
                          static_cast<std::int64_t>(1ULL << q));
}
BENCHMARK(BM_GateSweepDense)->DenseRange(12, 16, 2);

void BM_GateSweepSharded(benchmark::State& state) {
  const auto q = static_cast<std::size_t>(state.range(0));
  const auto chunks = static_cast<std::size_t>(state.range(1));
  StatevectorBackend backend(q, chunks);
  const Circuit circuit = sweep_circuit(q);
  for (auto _ : state) {
    backend.apply_circuit(circuit);
    benchmark::DoNotOptimize(backend.state().amplitudes().data());
  }
  if (!check_unit_output(state, backend.state().amplitudes())) return;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(circuit.gate_count()) *
                          static_cast<std::int64_t>(1ULL << q));
}
BENCHMARK(BM_GateSweepSharded)
    ->Args({12, 1})
    ->Args({12, 4})
    ->Args({14, 1})
    ->Args({14, 2})
    ->Args({14, 4})
    ->Args({14, 8})
    ->Args({16, 4});

void BM_OperatorOracleDense(benchmark::State& state) {
  const auto q = static_cast<std::size_t>(state.range(0));
  const std::size_t m = q - 2;  // system register below 2 precision wires
  StatevectorBackend backend(q);
  const SparseExpOperator op(tridiagonal_hamiltonian(m), 1.0, 0.0, 4.0);
  std::vector<std::size_t> targets;
  for (std::size_t w = 2; w < q; ++w) targets.push_back(w);
  for (auto _ : state) {
    backend.apply_operator(op, targets, {0});
    benchmark::DoNotOptimize(backend.state().amplitudes().data());
  }
  check_unit_output(state, backend.state().amplitudes());
}
BENCHMARK(BM_OperatorOracleDense)->DenseRange(12, 14, 2);

void BM_OperatorOracleSharded(benchmark::State& state) {
  const auto q = static_cast<std::size_t>(state.range(0));
  const auto chunks = static_cast<std::size_t>(state.range(1));
  const std::size_t m = q - 2;
  StatevectorBackend backend(q, chunks);
  const SparseExpOperator op(tridiagonal_hamiltonian(m), 1.0, 0.0, 4.0);
  std::vector<std::size_t> targets;
  for (std::size_t w = 2; w < q; ++w) targets.push_back(w);
  for (auto _ : state) {
    backend.apply_operator(op, targets, {0});
    benchmark::DoNotOptimize(backend.state().amplitudes().data());
  }
  check_unit_output(state, backend.state().amplitudes());
}
BENCHMARK(BM_OperatorOracleSharded)
    ->Args({12, 4})
    ->Args({14, 1})
    ->Args({14, 4})
    ->Args({14, 8});

void BM_ShardedMarginals(benchmark::State& state) {
  const auto q = static_cast<std::size_t>(state.range(0));
  const auto chunks = static_cast<std::size_t>(state.range(1));
  StatevectorBackend backend(q, chunks);
  backend.apply_circuit(sweep_circuit(q));
  const std::vector<std::size_t> measured{0, 1, 2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend.marginal_probabilities(measured));
  }
  check_unit_output(state, backend.state().amplitudes());
}
BENCHMARK(BM_ShardedMarginals)->Args({14, 1})->Args({14, 4});

}  // namespace
