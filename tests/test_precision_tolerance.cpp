/// \file test_precision_tolerance.cpp
/// \brief Bounds the complex64 engines' QPE phase-readout error against the
/// complex128 reference, per backend, and checks the factory's precision
/// dispatch and fast-fail env validation.
///
/// The workload is the estimator's core primitive: a t-bit QPE readout of a
/// non-representable eigenphase, so every outcome has nonzero probability
/// (Fejér kernel) and the whole interference cascade — H wall, controlled
/// powers, inverse QFT — runs through the engine under test.  float32
/// amplitudes carry ~1e-7 relative error; after ~100 gates of a 5-qubit QPE
/// the probability-level error stays below 1e-5, which is the headroom the
/// bounds below encode (measured ~2e-6 max across engines on x86-64).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "engine_params.hpp"
#include "linalg/dense_matrix.hpp"
#include "quantum/backend.hpp"
#include "quantum/qpe.hpp"
#include "scoped_env.hpp"

namespace qtda {
namespace {

using testing::ScopedSimulatorEnv;

constexpr double kTheta = 0.3;  // not representable in t bits: spread readout

// diag(1, e^{2πiθp}) — |1⟩ is the eigenstate with phase θ·p.
ComplexMatrix phase_unitary(double theta, std::uint64_t power) {
  ComplexMatrix u(2, 2);
  u(0, 0) = 1.0;
  const double phi = 2.0 * kPi * theta * static_cast<double>(power);
  u(1, 1) = Amplitude{std::cos(phi), std::sin(phi)};
  return u;
}

Circuit readout_circuit(const QpeLayout& layout) {
  Circuit circuit(layout.total());
  circuit.x(layout.system_wires()[0]);
  circuit.append_circuit(build_qpe_circuit_dense(
      layout, [&](std::uint64_t power) { return phase_unitary(kTheta, power); }));
  return circuit;
}

using testing::EngineUnderTest;

std::vector<double> readout(EngineUnderTest engine, Precision precision,
                            const QpeLayout& layout, const Circuit& circuit) {
  const std::unique_ptr<SimulatorBackend> backend =
      make_simulator(testing::engine_kind(engine), layout.total(),
                     testing::engine_shards(engine), precision);
  EXPECT_EQ(backend->precision(), precision);
  backend->apply_circuit(circuit);
  return backend->marginal_probabilities(layout.precision_wires());
}

class PrecisionReadout : public ::testing::TestWithParam<EngineUnderTest> {};

TEST_P(PrecisionReadout, Complex64ReadoutErrorIsBounded) {
  ScopedSimulatorEnv guard;
  ScopedSimulatorEnv::clear();
  // This test measures float32 *against* float64, so the process-wide
  // precision override must not collapse the two runs onto one engine.
  // The guard restores the incoming value afterwards.
  unsetenv("QTDA_PRECISION");

  const QpeLayout layout{4, 1, 0};
  const Circuit circuit = readout_circuit(layout);
  const std::vector<double> p64 =
      readout(GetParam(), Precision::kFloat64, layout, circuit);
  const std::vector<double> p32 =
      readout(GetParam(), Precision::kFloat32, layout, circuit);
  ASSERT_EQ(p64.size(), p32.size());

  // The double engine reproduces the analytic Fejér-kernel distribution.
  for (std::uint64_t m = 0; m < p64.size(); ++m) {
    EXPECT_NEAR(p64[m], qpe_outcome_probability(kTheta, m, 4), 1e-12)
        << "outcome " << m;
  }

  // The float engine agrees with the reference to well under any QPE
  // decision margin, and both agree on the most likely outcome.
  double max_diff = 0.0;
  std::uint64_t peak64 = 0, peak32 = 0;
  for (std::uint64_t m = 0; m < p64.size(); ++m) {
    max_diff = std::max(max_diff, std::abs(p64[m] - p32[m]));
    if (p64[m] > p64[peak64]) peak64 = m;
    if (p32[m] > p32[peak32]) peak32 = m;
  }
  EXPECT_LT(max_diff, 1e-5);
  EXPECT_EQ(peak64, peak32);

  // Probabilities stay a distribution at float32.
  double total = 0.0;
  for (double p : p32) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, PrecisionReadout,
    ::testing::ValuesIn(testing::kAllEngines), testing::engine_param_name);

TEST(PrecisionDispatch, FactoryHonorsTheRequestedPrecision) {
  ScopedSimulatorEnv guard;
  ScopedSimulatorEnv::clear();
  unsetenv("QTDA_PRECISION");
  for (EngineUnderTest engine : testing::kAllEngines) {
    const SimulatorKind kind = testing::engine_kind(engine);
    const std::size_t shards = testing::engine_shards(engine);
    EXPECT_EQ(make_simulator(kind, 4, shards)->precision(),
              Precision::kFloat64);
    EXPECT_EQ(make_simulator(kind, 4, shards, Precision::kFloat32)->precision(),
              Precision::kFloat32);
  }
}

TEST(PrecisionDispatch, EnvOverrideWinsOverTheRequestedPrecision) {
  ScopedSimulatorEnv guard;
  ScopedSimulatorEnv::clear();
  setenv("QTDA_PRECISION", "float32", 1);
  EXPECT_EQ(make_simulator(SimulatorKind::kStatevector, 3)->precision(),
            Precision::kFloat32);
  setenv("QTDA_PRECISION", "float64", 1);
  EXPECT_EQ(make_simulator(SimulatorKind::kStatevector, 3, 0,
                           Precision::kFloat32)
                ->precision(),
            Precision::kFloat64);
}

TEST(PrecisionDispatch, MalformedEnvValuesFailFastNamingTheVariable) {
  ScopedSimulatorEnv guard;
  ScopedSimulatorEnv::clear();
  setenv("QTDA_PRECISION", "fp16", 1);
  try {
    (void)make_simulator(SimulatorKind::kStatevector, 3);
    FAIL() << "expected make_simulator to reject QTDA_PRECISION=fp16";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("QTDA_PRECISION"),
              std::string::npos);
  }
  unsetenv("QTDA_PRECISION");
  setenv("QTDA_SIMD", "turbo", 1);
  try {
    (void)make_simulator(SimulatorKind::kStatevector, 3);
    FAIL() << "expected make_simulator to reject QTDA_SIMD=turbo";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("QTDA_SIMD"), std::string::npos);
  }
}

// A compact conformance pass at float32: the invariants the full backend
// contract asserts for double must survive the narrow engines (the float32
// CI leg additionally routes the *entire* suite through QTDA_PRECISION).
TEST(PrecisionDispatch, Float32EnginesKeepTheBackendInvariants) {
  ScopedSimulatorEnv guard;
  ScopedSimulatorEnv::clear();
  unsetenv("QTDA_PRECISION");
  for (EngineUnderTest engine : testing::kAllEngines) {
    const std::unique_ptr<SimulatorBackend> backend =
        make_simulator(testing::engine_kind(engine), 3,
                       testing::engine_shards(engine), Precision::kFloat32);
    Circuit circuit(3);
    circuit.h(0);
    circuit.cnot(0, 1);
    circuit.t(1);
    circuit.h(2);
    circuit.h(2);  // H² = I: wire 2 returns to |0⟩
    backend->apply_circuit(circuit);
    const std::vector<double> marginal =
        backend->marginal_probabilities({0, 1, 2});
    double total = 0.0;
    for (double p : marginal) total += p;
    EXPECT_NEAR(total, 1.0, 1e-6) << backend->name();
    // Bell pair on wires 0–1: only |00x⟩ and |11x⟩ populated, wire 2 zero.
    EXPECT_NEAR(marginal[0], 0.5, 1e-6) << backend->name();
    EXPECT_NEAR(marginal[6], 0.5, 1e-6) << backend->name();
    EXPECT_NEAR(marginal[1] + marginal[7], 0.0, 1e-9) << backend->name();
    // Sampling agrees with the marginal on the dominant outcomes.
    Rng rng(11);
    const std::vector<std::uint64_t> counts =
        backend->sample({0, 1, 2}, 4000, rng);
    EXPECT_NEAR(static_cast<double>(counts[0]) / 4000.0, 0.5, 0.05);
    EXPECT_NEAR(static_cast<double>(counts[6]) / 4000.0, 0.5, 0.05);
  }
}

}  // namespace
}  // namespace qtda
