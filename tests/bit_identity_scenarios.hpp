/// \file bit_identity_scenarios.hpp
/// \brief Deterministic simulation scenarios hashed for the bit-identity
/// guarantee.
///
/// Each scenario runs a fixed circuit/plan/operator workload through one of
/// the engines and fingerprints the resulting amplitudes (FNV-1a over the
/// raw IEEE-754 bytes).  The committed expectations in test_bit_identity.cpp
/// were captured from the tree *before* the SIMD/precision refactor, so the
/// scalar (`QTDA_SIMD=0`) double-precision paths are pinned, bit for bit, to
/// the historical arithmetic — the contract the CI scalar leg asserts.
///
/// Scenarios only use public engine APIs and avoid every source of
/// nondeterminism except seeded Rng streams.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "linalg/expm_multiply.hpp"
#include "linalg/sparse_matrix.hpp"
#include "quantum/backend.hpp"
#include "quantum/compiler.hpp"
#include "quantum/density_matrix.hpp"
#include "quantum/noise.hpp"
#include "quantum/statevector.hpp"

namespace qtda {
namespace testing {

/// 64-bit FNV-1a over a byte range.
inline void fnv1a_bytes(const void* data, std::size_t size,
                        std::uint64_t& hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
}

inline std::uint64_t fingerprint_amplitudes(
    const std::vector<Amplitude>& amplitudes) {
  std::uint64_t hash = 1469598103934665603ULL;
  fnv1a_bytes(amplitudes.data(), amplitudes.size() * sizeof(Amplitude), hash);
  return hash;
}

inline std::uint64_t fingerprint_doubles(const std::vector<double>& values) {
  std::uint64_t hash = 1469598103934665603ULL;
  fnv1a_bytes(values.data(), values.size() * sizeof(double), hash);
  return hash;
}

/// A mixed workload: Hadamard wall, entanglers, rotations, and the
/// controlled-phase ladder that the compiler fuses into wide diagonals.
inline Circuit bit_identity_circuit(std::size_t n) {
  Circuit c(n);
  for (std::size_t q = 0; q < n; ++q) c.h(q);
  c.cnot(0, 1);
  c.cz(1, 2);
  c.t(2);
  c.s(3 % n);
  c.ry(2, 0.7);
  c.rx(n - 2, -1.1);
  c.rz(4 % n, 0.3);
  for (std::size_t j = 0; j + 1 < n; ++j)
    c.controlled_phase(j, n - 1, kPi / static_cast<double>(2 + j));
  c.cnot(n - 2, n - 1);
  c.phase(0, 0.25);
  c.swap(1, n - 2);
  return c;
}

/// Path-graph Laplacian of dimension \p dim (symmetric, spectrum in [0, 4]).
inline SparseMatrix bit_identity_laplacian(std::size_t dim) {
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

struct BitIdentityFingerprint {
  std::string name;
  std::uint64_t hash;
};

/// Runs every scenario and returns (name, fingerprint) pairs in a fixed
/// order.
inline std::vector<BitIdentityFingerprint> bit_identity_fingerprints() {
  std::vector<BitIdentityFingerprint> out;
  const Circuit c10 = bit_identity_circuit(10);

  {  // Dense engine, gate-by-gate walk.
    Statevector psi(10);
    psi.set_basis_state(3);
    psi.apply_circuit(c10);
    out.push_back({"dense_circuit", fingerprint_amplitudes(psi.amplitudes())});
    out.push_back(
        {"dense_marginal",
         fingerprint_doubles(psi.marginal_probabilities({0, 3, 5, 9}))});
  }
  {  // Dense engine, fused plan (default compiler options).
    Statevector psi(10);
    psi.set_basis_state(3);
    const ExecutionPlan plan = compile_circuit(c10, CompilerOptions{});
    psi.apply_plan(plan);
    out.push_back(
        {"dense_plan_fused", fingerprint_amplitudes(psi.amplitudes())});
  }
  {  // Dense engine, unfused plan (must equal the gate-by-gate walk).
    Statevector psi(10);
    psi.set_basis_state(3);
    CompilerOptions options;
    options.fuse = false;
    psi.apply_plan(compile_circuit(c10, options));
    out.push_back(
        {"dense_plan_unfused", fingerprint_amplitudes(psi.amplitudes())});
  }
  {  // Statevector sweeps in 3 shards, gate-by-gate walk.
    Statevector psi(10, 3);
    psi.set_basis_state(3);
    psi.apply_circuit(c10);
    out.push_back(
        {"sharded_circuit", fingerprint_amplitudes(psi.amplitudes())});
    out.push_back(
        {"sharded_marginal",
         fingerprint_doubles(psi.marginal_probabilities({0, 3, 5, 9}))});
  }
  {  // Statevector backend sweeping in 3 shards, fused plan.
    StatevectorBackend backend(10, 3);
    backend.prepare_basis_state(3);
    backend.apply_plan(compile_circuit(c10, CompilerOptions{}));
    out.push_back(
        {"sharded_plan_fused",
         fingerprint_amplitudes(backend.state().amplitudes())});
  }
  {  // Exact density-matrix channel evolution.
    DensityMatrix rho(5);
    rho.apply_circuit_with_noise(bit_identity_circuit(5),
                                 NoiseModel{0.05, 0.08});
    std::vector<Amplitude> elements;
    elements.reserve(32 * 32);
    for (std::uint64_t r = 0; r < 32; ++r)
      for (std::uint64_t col = 0; col < 32; ++col)
        elements.push_back(rho.element(r, col));
    out.push_back({"density_noisy", fingerprint_amplitudes(elements)});
  }
  {  // One stochastic trajectory (seeded): single-qubit Pauli kernels.
    Rng rng(42);
    const Statevector psi =
        run_noisy_trajectory(bit_identity_circuit(8), NoiseModel{0.1, 0.2},
                             rng);
    out.push_back(
        {"trajectory_seed42", fingerprint_amplitudes(psi.amplitudes())});
  }
  {  // Matrix-free Chebyshev oracle: CSR matvec + expm recurrence, both the
     // direct path and controlled through the block gather/scatter.
    Statevector psi(8);
    psi.set_basis_state(1);
    psi.apply_circuit(bit_identity_circuit(8));
    const SparseExpOperator op(bit_identity_laplacian(32), 0.9, 0.0, 4.0);
    psi.apply_operator(op, {3, 4, 5, 6, 7});
    psi.apply_operator(op, {2, 3, 5, 6, 7}, {0});
    out.push_back(
        {"dense_operator", fingerprint_amplitudes(psi.amplitudes())});
  }
  {  // Large state (2^18 amplitudes): crosses the parallel-threshold branch
     // of the dense kernels.
    Statevector psi(18);
    Circuit c(18);
    for (std::size_t q = 0; q < 18; ++q) c.h(q);
    for (std::size_t q = 0; q + 1 < 18; q += 2) c.cnot(q, q + 1);
    c.rz(17, 0.61);
    c.controlled_phase(0, 17, 0.413);
    c.ry(9, -0.2);
    psi.apply_circuit(c);
    out.push_back({"dense_large", fingerprint_amplitudes(psi.amplitudes())});
    out.push_back({"dense_large_marginal",
                   fingerprint_doubles(psi.marginal_probabilities(
                       {0, 1, 2, 8, 16, 17}))});
  }
  return out;
}

}  // namespace testing
}  // namespace qtda
