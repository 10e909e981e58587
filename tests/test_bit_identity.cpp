/// \file test_bit_identity.cpp
/// \brief Pins the scalar double-precision arithmetic to the historical
/// (pre-SIMD-refactor) results, bit for bit.
///
/// The expectations below were captured from the tree before the vector
/// kernels and the precision template landed, with the engines running their
/// plain scalar loops.  Under `QTDA_SIMD=0` every engine must still produce
/// exactly these bytes — the refactor's core promise, asserted by the CI
/// scalar leg.  With SIMD active the suite skips: the vector kernels are
/// bit-identical for the sweeps by construction (same products, same
/// rounding), but the CSR matvec deliberately lane-splits its dot products,
/// so whole-workload fingerprints are only pinned for the scalar paths.
/// The purified block-diagonal QPE scenario at the end is pinned at both
/// levels, to bytes captured from the whole-matrix Chebyshev recurrence.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "bit_identity_scenarios.hpp"
#include "common/cpu_features.hpp"
#include "takens_fixture.hpp"

namespace qtda {
namespace {

using testing::bit_identity_fingerprints;
using testing::BitIdentityFingerprint;

// Captured before the SIMD/precision refactor (scalar double arithmetic).
const std::map<std::string, std::uint64_t>& golden_fingerprints() {
  static const std::map<std::string, std::uint64_t> golden = {
      {"dense_circuit", 0x2b45dc7ffcab148cULL},
      {"dense_marginal", 0x14f273652935766fULL},
      {"dense_plan_fused", 0x8aaf3a8094c26c63ULL},
      {"dense_plan_unfused", 0x2b45dc7ffcab148cULL},
      {"sharded_circuit", 0x2b45dc7ffcab148cULL},
      {"sharded_marginal", 0x14f273652935766fULL},
      {"sharded_plan_fused", 0x8aaf3a8094c26c63ULL},
      {"density_noisy", 0x8a395d560f45e781ULL},
      {"trajectory_seed42", 0x5fe0a203105a2182ULL},
      {"dense_operator", 0xa82f3991137a8210ULL},
      {"dense_large", 0x07de12e830060383ULL},
      {"dense_large_marginal", 0x5e9c457708de6583ULL},
  };
  return golden;
}

TEST(BitIdentity, ScalarDoubleResultsMatchHistoricalFingerprints) {
  if (active_simd_level() != SimdLevel::kScalar) {
    GTEST_SKIP() << "fingerprints pin the scalar paths; run with QTDA_SIMD=0";
  }
  const std::vector<BitIdentityFingerprint> actual =
      bit_identity_fingerprints();
  ASSERT_EQ(actual.size(), golden_fingerprints().size());
  for (const BitIdentityFingerprint& fp : actual) {
    const auto it = golden_fingerprints().find(fp.name);
    ASSERT_NE(it, golden_fingerprints().end())
        << "scenario \"" << fp.name << "\" has no committed expectation";
    EXPECT_EQ(fp.hash, it->second)
        << "scenario \"" << fp.name
        << "\" no longer reproduces the historical bytes";
  }
}

// The dense/sharded/unfused coincidences (three fingerprints sharing one
// value) are part of the contract: the unfused plan and the sweeps split
// into shards replay exactly the serial gate-by-gate arithmetic.  Assert the
// coincidence itself at every SIMD level — it must hold for the vector
// kernels too.
TEST(BitIdentity, EnginesAgreeByteForByteAtEverySimdLevel) {
  const std::vector<BitIdentityFingerprint> actual =
      bit_identity_fingerprints();
  std::map<std::string, std::uint64_t> by_name;
  for (const BitIdentityFingerprint& fp : actual) by_name[fp.name] = fp.hash;
  EXPECT_EQ(by_name.at("dense_circuit"), by_name.at("dense_plan_unfused"));
  EXPECT_EQ(by_name.at("dense_circuit"), by_name.at("sharded_circuit"));
  EXPECT_EQ(by_name.at("dense_marginal"), by_name.at("sharded_marginal"));
  EXPECT_EQ(by_name.at("dense_plan_fused"), by_name.at("sharded_plan_fused"));
}

// The §5 purified register on a block-diagonal Hamiltonian: Takens window
// 0's padded Δ_0 (15 qubits at t = 3), where the sparse oracle runs per
// connected block and skips the all-zero (block, component) slices.  The
// expected bytes were captured before either existed, from the
// whole-matrix recurrence, at both fusion cost models (the scalar level
// fuses differently from the vector levels); signed zeros are hashed too.
TEST(BitIdentity, PurifiedBlockDiagonalQpeKeepsWholeMatrixBytes) {
  const auto clouds = testing::takens_windows();
  EstimatorOptions options;
  options.backend = EstimatorBackend::kCircuitSparse;
  options.precision_qubits = 3;
  const Circuit circuit =
      build_qtda_circuit(testing::takens_laplacian(clouds, 0, 0), options);
  const ExecutionPlan plan = compile_circuit(circuit, CompilerOptions{});
  ASSERT_EQ(plan.num_qubits(), 15u);
  Statevector psi(plan.num_qubits());
  psi.apply_plan(plan);
  const std::uint64_t expected = active_simd_level() == SimdLevel::kScalar
                                     ? 0xf89e11822d2c94b3ULL
                                     : 0xbc979e66654eefc0ULL;
  EXPECT_EQ(testing::fingerprint_amplitudes(psi.amplitudes()), expected)
      << "simd=" << simd_level_name(active_simd_level());
}

}  // namespace
}  // namespace qtda
