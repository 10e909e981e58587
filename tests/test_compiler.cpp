/// \file test_compiler.cpp
/// \brief Circuit compiler tests: fusion equivalence across every simulator
/// backend, the QTDA_FUSE=0 bit-identity guarantee, noise-slot preservation
/// (error placement and RNG draw order unchanged by compilation), compiler
/// statistics, and the environment overrides.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "core/betti_estimator.hpp"
#include "engine_params.hpp"
#include "linalg/expm_multiply.hpp"
#include "linalg/matrix_exp.hpp"
#include "quantum/backend.hpp"
#include "quantum/compiler.hpp"
#include "quantum/noise.hpp"
#include "quantum/qpe.hpp"
#include "quantum/statevector.hpp"
#include "scoped_env.hpp"
#include "takens_fixture.hpp"
#include "topology/laplacian.hpp"
#include "topology/random_complex.hpp"

namespace {

using namespace qtda;

/// A random 2^m×2^m unitary: e^{iH} of a random symmetric H.
ComplexMatrix random_unitary(std::size_t m, Rng& rng) {
  const std::size_t dim = std::size_t{1} << m;
  RealMatrix h(dim, dim);
  for (std::size_t i = 0; i < dim; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      h(i, j) = h(j, i) = rng.uniform(-1.0, 1.0);
  return HamiltonianExponential(h).unitary();
}

/// A random circuit mixing every IR gate kind: named single-qubit gates and
/// rotations, controlled gates, swaps, dense two-qubit unitaries, and
/// matrix-free operator gates over non-trailing targets.
Circuit random_circuit(std::size_t num_qubits, std::size_t num_gates,
                       Rng& rng) {
  Circuit circuit(num_qubits);
  for (std::size_t g = 0; g < num_gates; ++g) {
    const std::size_t q = rng.uniform_index(num_qubits);
    std::size_t p = rng.uniform_index(num_qubits);
    while (p == q) p = rng.uniform_index(num_qubits);
    switch (rng.uniform_index(10)) {
      case 0: circuit.h(q); break;
      case 1: circuit.x(q); break;
      case 2: circuit.t(q); break;
      case 3: circuit.rz(q, rng.uniform(-2.0, 2.0)); break;
      case 4: circuit.ry(q, rng.uniform(-2.0, 2.0)); break;
      case 5: circuit.cnot(p, q); break;
      case 6: circuit.controlled_phase(p, q, rng.uniform(-2.0, 2.0)); break;
      case 7: circuit.swap(p, q); break;
      case 8: {
        circuit.unitary(random_unitary(2, rng),
                        {std::min(p, q), std::max(p, q)});
        break;
      }
      default: {
        const auto op = std::make_shared<DenseOperator>(random_unitary(2, rng));
        circuit.operator_gate(op, {std::min(p, q), std::max(p, q)});
        break;
      }
    }
  }
  circuit.add_global_phase(0.3);
  return circuit;
}

std::vector<Amplitude> backend_amplitudes(const SimulatorBackend& backend) {
  return dynamic_cast<const StatevectorBackend&>(backend).state().amplitudes();
}

using qtda::testing::EngineUnderTest;

/// Direct backend construction (not make_simulator): these tests pin the
/// per-engine behavior, so a QTDA_SIMULATOR override must not redirect them.
std::unique_ptr<SimulatorBackend> build_backend(EngineUnderTest engine,
                                                std::size_t num_qubits) {
  if (engine == EngineUnderTest::kDensityMatrix)
    return std::make_unique<DensityMatrixBackend>(num_qubits);
  return std::make_unique<StatevectorBackend>(
      num_qubits, qtda::testing::engine_shards(engine));
}

class FusionEquivalence : public ::testing::TestWithParam<EngineUnderTest> {};

TEST_P(FusionEquivalence, RandomCircuitsAgreeTo1e12) {
  const EngineUnderTest kind = GetParam();
  constexpr std::size_t kQubits = 5;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const Circuit circuit = random_circuit(kQubits, 24, rng);

    CompilerOptions fused;
    fused.fuse = true;
    fused.fuse_width = 1 + seed % 4;  // widths 2..5 across seeds
    const ExecutionPlan plan = compile_circuit(circuit, fused);

    const auto reference = build_backend(kind, kQubits);
    reference->prepare_basis_state(1);
    reference->apply_circuit(circuit);
    const auto compiled = build_backend(kind, kQubits);
    compiled->prepare_basis_state(1);
    compiled->apply_plan(plan);

    if (kind == EngineUnderTest::kDensityMatrix) {
      // Amplitudes are not addressable through ρ; compare the full joint
      // distribution plus purity instead.
      std::vector<std::size_t> all(kQubits);
      for (std::size_t q = 0; q < kQubits; ++q) all[q] = q;
      const auto pr = reference->marginal_probabilities(all);
      const auto pc = compiled->marginal_probabilities(all);
      for (std::size_t i = 0; i < pr.size(); ++i)
        EXPECT_NEAR(pr[i], pc[i], 1e-12) << "seed " << seed << " outcome " << i;
      const auto* dr = dynamic_cast<const DensityMatrixBackend*>(&*reference);
      const auto* dc = dynamic_cast<const DensityMatrixBackend*>(&*compiled);
      EXPECT_NEAR(dr->state().purity(), dc->state().purity(), 1e-12);
    } else {
      const auto ar = backend_amplitudes(*reference);
      const auto ac = backend_amplitudes(*compiled);
      for (std::size_t i = 0; i < ar.size(); ++i)
        EXPECT_NEAR(std::abs(ar[i] - ac[i]), 0.0, 1e-12)
            << "seed " << seed << " amplitude " << i;
    }
  }
}

TEST_P(FusionEquivalence, UnfusedPlanIsBitIdentical) {
  const EngineUnderTest kind = GetParam();
  if (kind == EngineUnderTest::kDensityMatrix) GTEST_SKIP()
      << "amplitudes not addressable through the density matrix";
  constexpr std::size_t kQubits = 5;
  Rng rng(77);
  const Circuit circuit = random_circuit(kQubits, 30, rng);

  CompilerOptions unfused;
  unfused.fuse = false;  // the QTDA_FUSE=0 path
  const ExecutionPlan plan = compile_circuit(circuit, unfused);
  EXPECT_EQ(plan.ops().size(), circuit.gate_count());

  const auto reference = build_backend(kind, kQubits);
  reference->prepare_basis_state(3);
  reference->apply_circuit(circuit);
  const auto compiled = build_backend(kind, kQubits);
  compiled->prepare_basis_state(3);
  compiled->apply_plan(plan);

  const auto ar = backend_amplitudes(*reference);
  const auto ac = backend_amplitudes(*compiled);
  for (std::size_t i = 0; i < ar.size(); ++i) {
    EXPECT_EQ(ar[i].real(), ac[i].real()) << "amplitude " << i;
    EXPECT_EQ(ar[i].imag(), ac[i].imag()) << "amplitude " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, FusionEquivalence,
                         ::testing::ValuesIn(qtda::testing::kAllEngines),
                         qtda::testing::engine_param_name);

TEST(Compiler, NoisePlanKeepsErrorPlacementAndRngOrder) {
  // The draw-sequence guarantee: a plan compiled for noisy execution walks
  // gate by gate, so the stochastic error positions and every RNG draw
  // match run_noisy_trajectory on the raw IR *bit for bit* — even though
  // the caller asked for fusion.
  Rng circuit_rng(11);
  const Circuit circuit = random_circuit(5, 30, circuit_rng);
  const NoiseModel noise{0.05, 0.1};

  CompilerOptions options;  // fusion on...
  options.preserve_noise_slots = true;  // ...but noise slots pin the walk
  const ExecutionPlan plan = compile_circuit(circuit, options);
  EXPECT_TRUE(plan.preserves_noise_slots());
  EXPECT_EQ(plan.ops().size(), circuit.gate_count());

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng raw_rng(seed);
    Rng plan_rng(seed);
    const Statevector raw = run_noisy_trajectory(circuit, noise, raw_rng);
    const Statevector compiled = run_noisy_trajectory(plan, noise, plan_rng);
    for (std::uint64_t i = 0; i < raw.dimension(); ++i) {
      ASSERT_EQ(raw.amplitude(i).real(), compiled.amplitude(i).real())
          << "seed " << seed << " amplitude " << i;
      ASSERT_EQ(raw.amplitude(i).imag(), compiled.amplitude(i).imag())
          << "seed " << seed << " amplitude " << i;
    }
    // Identical draw counts: the generators are in the same state after.
    EXPECT_EQ(raw_rng.uniform(), plan_rng.uniform()) << "seed " << seed;
  }
}

TEST(Compiler, BackendNoisyPlanMatchesCircuitWalk) {
  Rng circuit_rng(13);
  const Circuit circuit = random_circuit(4, 20, circuit_rng);
  const NoiseModel noise{0.08, 0.15};
  CompilerOptions options;
  options.preserve_noise_slots = true;
  const ExecutionPlan plan = compile_circuit(circuit, options);

  for (EngineUnderTest kind : qtda::testing::kAllEngines) {
    const auto reference = build_backend(kind, 4);
    const auto compiled = build_backend(kind, 4);
    Rng ref_rng(21);
    Rng plan_rng(21);
    reference->prepare_basis_state(0);
    reference->apply_circuit_with_noise(circuit, noise, ref_rng);
    compiled->prepare_basis_state(0);
    compiled->apply_plan_with_noise(plan, noise, plan_rng);
    const auto pr = reference->marginal_probabilities({0, 1, 2, 3});
    const auto pc = compiled->marginal_probabilities({0, 1, 2, 3});
    for (std::size_t i = 0; i < pr.size(); ++i)
      EXPECT_EQ(pr[i], pc[i]) << reference->name() << " outcome " << i;
    EXPECT_EQ(ref_rng.uniform(), plan_rng.uniform()) << reference->name();
  }
}

TEST(Compiler, NoisyExecutionRejectsFusedPlan) {
  Circuit circuit(2);
  circuit.h(0);
  circuit.cnot(0, 1);
  CompilerOptions options;  // no noise slots
  const ExecutionPlan plan = compile_circuit(circuit, options);
  StatevectorBackend backend(2);
  Rng rng(5);
  EXPECT_THROW(
      backend.apply_plan_with_noise(plan, NoiseModel{0.1, 0.1}, rng), Error);
}

TEST(Compiler, ExecutionLeavesPlanMemoryBytesUnchanged) {
  // The serving layer charges a cached plan its memory_bytes() at insertion.
  // Execution scratch belongs to the engine, so running a plan — fused or
  // noise-slot, at either precision — must not grow what the plan holds.
  Rng circuit_rng(19);
  Circuit circuit = random_circuit(5, 30, circuit_rng);
  // A controlled 3-wire block and a wide operator gate: the ops whose
  // execution needs gather/scatter and batch buffers.
  circuit.unitary(random_unitary(3, circuit_rng), {0, 2, 4}, {1});
  circuit.operator_gate(
      std::make_shared<DenseOperator>(random_unitary(3, circuit_rng)),
      {1, 3, 4}, {0});
  CompilerOptions noisy;
  noisy.preserve_noise_slots = true;
  const ExecutionPlan fused = compile_circuit(circuit, CompilerOptions{});
  const ExecutionPlan noise_slots = compile_circuit(circuit, noisy);
  const auto has_wide_op = [](const ExecutionPlan& plan,
                              CompiledOp::Kind kind) {
    for (const CompiledOp& op : plan.ops())
      if (op.kind == kind && op.offsets.size() > 4) return true;
    return false;
  };
  for (const ExecutionPlan* plan : {&fused, &noise_slots}) {
    ASSERT_TRUE(has_wide_op(*plan, CompiledOp::Kind::kBlock));
    ASSERT_TRUE(has_wide_op(*plan, CompiledOp::Kind::kOperator));
  }

  const std::size_t fused_bytes = fused.memory_bytes();
  const std::size_t noise_bytes = noise_slots.memory_bytes();
  const NoiseModel noise{0.05, 0.1};
  Rng rng(3);
  for (int run = 0; run < 3; ++run) {
    Statevector f64(5);
    f64.apply_plan(fused);
    EXPECT_EQ(fused.memory_bytes(), fused_bytes) << "float64 run " << run;
    StatevectorF32 f32(5);
    f32.apply_plan(fused);
    EXPECT_EQ(fused.memory_bytes(), fused_bytes) << "float32 run " << run;

    StatevectorBackend backend(5);
    backend.apply_plan_with_noise(noise_slots, noise, rng);
    StatevectorBackendF32 backend_f32(5);
    backend_f32.apply_plan_with_noise(noise_slots, noise, rng);
    run_noisy_trajectory(noise_slots, noise, rng);
    EXPECT_EQ(noise_slots.memory_bytes(), noise_bytes) << "noisy run " << run;
  }
}

TEST(Compiler, TakensPlanChargesItsSharedCsrOnce) {
  // A §5 Takens window's sparse QPE ladder: its t = 3 controlled powers
  // share one regrouped CSR of H, and the plan charges that CSR exactly
  // once.  The same ladder with a private copy per power charges exactly
  // t − 1 more copies.
  const auto clouds = qtda::testing::takens_windows();
  const SparseScaledHamiltonian scaled =
      rescale_laplacian_sparse(pad_laplacian_sparse(
          qtda::testing::takens_laplacian(clouds, 0, 1),
          EstimatorOptions{}.padding));
  const auto shared = std::make_shared<const ComponentCsr>(scaled.matrix);
  const QpeLayout layout{3, scaled.num_qubits, 0};
  const auto ladder_bytes = [&](bool share) {
    const Circuit circuit = build_qpe_circuit_sparse(
        layout,
        [&](std::uint64_t power) -> std::shared_ptr<const LinearOperator> {
          return std::make_shared<SparseExpOperator>(
              share ? shared
                    : std::make_shared<const ComponentCsr>(scaled.matrix),
              static_cast<double>(power), scaled.spectrum_min(),
              scaled.spectrum_max());
        });
    return compile_circuit(circuit, CompilerOptions{}).memory_bytes();
  };
  const std::size_t shared_bytes = ladder_bytes(true);
  const std::size_t private_bytes = ladder_bytes(false);
  ASSERT_GT(shared->memory_bytes(), sizeof(ComponentCsr));
  EXPECT_GT(shared_bytes, shared->memory_bytes());
  EXPECT_EQ(private_bytes - shared_bytes, 2 * shared->memory_bytes());
}

TEST(Compiler, ControlledPhaseLadderFusesIntoOneDiagonal) {
  // The QFT/QPE workhorse: every pair rung is diagonal, so the whole
  // ladder collapses into a single table-lookup pass.
  Circuit circuit(6);
  for (std::size_t a = 0; a < 6; ++a)
    for (std::size_t b = a + 1; b < 6; ++b)
      circuit.controlled_phase(a, b, 0.1 * static_cast<double>(a + b));
  const ExecutionPlan plan = compile_circuit(circuit, CompilerOptions{});
  ASSERT_EQ(plan.ops().size(), 1u);
  EXPECT_EQ(plan.stats().gates_before, 15u);
  EXPECT_EQ(plan.stats().gates_after, 1u);
  EXPECT_EQ(plan.stats().fused_blocks, 1u);
  EXPECT_EQ(plan.stats().diagonal_blocks, 1u);
  ASSERT_GT(plan.stats().block_width_histogram.size(), 6u);
  EXPECT_EQ(plan.stats().block_width_histogram[6], 1u);
  const CompiledOp& op = plan.ops()[0];
  EXPECT_EQ(op.kind, CompiledOp::Kind::kDiagonal);
  EXPECT_EQ(op.fused_gates, 15u);
  EXPECT_EQ(op.diagonal.size(), 64u);
}

TEST(Compiler, HWallStaysVerbatimUnderTheCostModel) {
  // A wall of H's has no profitable fusion single-threaded: a 2^m dense
  // block costs more multiplies than the m sweeps it would replace, so the
  // cost model keeps the gates verbatim rather than pessimize.
  Circuit circuit(8);
  for (std::size_t q = 0; q < 8; ++q) circuit.h(q);
  const ExecutionPlan plan = compile_circuit(circuit, CompilerOptions{});
  EXPECT_EQ(plan.ops().size(), 8u);
  EXPECT_EQ(plan.stats().fused_blocks, 0u);
  for (const CompiledOp& op : plan.ops())
    EXPECT_EQ(op.kind, CompiledOp::Kind::kSingleQubit);
}

TEST(Compiler, SameWireChainFusesIntoOneSingleQubitOp) {
  Circuit circuit(3);
  for (int r = 0; r < 4; ++r) {
    circuit.h(1);
    circuit.t(1);
  }
  const ExecutionPlan plan = compile_circuit(circuit, CompilerOptions{});
  ASSERT_EQ(plan.ops().size(), 1u);
  EXPECT_EQ(plan.ops()[0].kind, CompiledOp::Kind::kSingleQubit);
  EXPECT_EQ(plan.ops()[0].fused_gates, 8u);
}

TEST(Compiler, FusionReachesAcrossWireDisjointGates) {
  // H(0), Op(1,2), H(0): the trailing H commutes past the operator gate and
  // merges with the leading one.
  Circuit circuit(3);
  circuit.h(0);
  Rng rng(3);
  circuit.operator_gate(std::make_shared<DenseOperator>(random_unitary(2, rng)),
                        {1, 2});
  circuit.h(0);
  const ExecutionPlan plan = compile_circuit(circuit, CompilerOptions{});
  ASSERT_EQ(plan.ops().size(), 2u);
  EXPECT_EQ(plan.stats().operator_gates, 1u);
  // The merged H·H block comes first (cluster creation order).
  EXPECT_EQ(plan.ops()[0].fused_gates, 2u);
  EXPECT_EQ(plan.ops()[1].kind, CompiledOp::Kind::kOperator);
}

TEST(Compiler, OperatorGatesPrecomputeLayout) {
  Circuit circuit(4);
  Rng rng(9);
  const auto op = std::make_shared<DenseOperator>(random_unitary(2, rng));
  circuit.operator_gate(op, {2, 3}, {0});  // trailing targets, one control
  const ExecutionPlan plan = compile_circuit(circuit, CompilerOptions{});
  ASSERT_EQ(plan.ops().size(), 1u);
  const CompiledOp& compiled = plan.ops()[0];
  EXPECT_EQ(compiled.kind, CompiledOp::Kind::kOperator);
  EXPECT_TRUE(compiled.contiguous);
  // Control bit fixed to 1, one free qubit → 2 block bases.
  EXPECT_EQ(compiled.bases.size(), 2u);
}

/// Minimal engine exercising the generic SimulatorBackend defaults —
/// apply_plan is deliberately NOT overridden, so this pins the fallback
/// path unknown future engines would rely on.
class GenericBackend final : public SimulatorBackend {
 public:
  explicit GenericBackend(std::size_t num_qubits) : state_(num_qubits) {}
  std::string name() const override { return "generic"; }
  Precision precision() const override { return Precision::kFloat64; }
  std::size_t num_qubits() const override { return state_.num_qubits(); }
  void prepare_basis_state(std::uint64_t index) override {
    state_.set_basis_state(index);
  }
  void apply_gate(const Gate& gate) override { state_.apply_gate(gate); }
  void apply_circuit(const Circuit& circuit) override {
    state_.apply_circuit(circuit);
  }
  void apply_global_phase(double phi) override {
    state_.apply_global_phase(phi);
  }
  void apply_operator(const LinearOperator& op,
                      const std::vector<std::size_t>& targets,
                      const std::vector<std::size_t>& controls) override {
    state_.apply_operator(op, targets, controls);
  }
  void apply_depolarizing(std::size_t qubit, double probability,
                          Rng& rng) override {
    maybe_apply_depolarizing(state_, qubit, probability, rng);
  }
  std::vector<double> marginal_probabilities(
      const std::vector<std::size_t>& qubits) const override {
    return state_.marginal_probabilities(qubits);
  }
  std::vector<std::uint64_t> sample(const std::vector<std::size_t>& qubits,
                                    std::size_t shots,
                                    Rng& rng) const override {
    return state_.sample_counts(qubits, shots, rng);
  }
  const Statevector& state() const { return state_; }

 private:
  Statevector state_;
};

TEST(Compiler, GenericBackendExecutesWideDiagonals) {
  // A full controlled-phase ladder over 10 wires fuses into one diagonal
  // wider than the 256-entry densification bound; the non-overridden
  // apply_plan must still execute it (controlled sub-diagonal split).
  constexpr std::size_t kQubits = 10;
  Circuit circuit(kQubits);
  circuit.h(3);  // non-diagonal neighbours on both sides of the ladder
  for (std::size_t a = 0; a < kQubits; ++a)
    for (std::size_t b = a + 1; b < kQubits; ++b)
      circuit.controlled_phase(a, b, 0.05 * static_cast<double>(a + 2 * b));
  circuit.h(7);
  const ExecutionPlan plan = compile_circuit(circuit, CompilerOptions{});
  bool has_wide_diagonal = false;
  for (const CompiledOp& op : plan.ops())
    has_wide_diagonal = has_wide_diagonal ||
                        (op.kind == CompiledOp::Kind::kDiagonal &&
                         op.diagonal.size() > 256);
  ASSERT_TRUE(has_wide_diagonal);

  GenericBackend reference(kQubits);
  reference.prepare_basis_state(5);
  reference.apply_circuit(circuit);
  GenericBackend compiled(kQubits);
  compiled.prepare_basis_state(5);
  compiled.apply_plan(plan);
  for (std::uint64_t i = 0; i < (std::uint64_t{1} << kQubits); ++i)
    ASSERT_NEAR(std::abs(reference.state().amplitude(i) -
                         compiled.state().amplitude(i)),
                0.0, 1e-12)
        << "amplitude " << i;
}

TEST(Compiler, EnvOverridesParseAndValidate) {
  qtda::testing::ScopedSimulatorEnv guard;
  setenv("QTDA_FUSE", "0", 1);
  unsetenv("QTDA_FUSE_WIDTH");
  EXPECT_FALSE(compiler_options_from_env().fuse);
  setenv("QTDA_FUSE", "1", 1);
  setenv("QTDA_FUSE_WIDTH", "6", 1);
  CompilerOptions options = compiler_options_from_env();
  EXPECT_TRUE(options.fuse);
  EXPECT_EQ(options.fuse_width, 6u);
  // The width override bounds the diagonal tables too.
  EXPECT_EQ(options.diagonal_width, 6u);
  setenv("QTDA_FUSE", "yes", 1);
  EXPECT_THROW(compiler_options_from_env(), Error);
  setenv("QTDA_FUSE", "1", 1);
  setenv("QTDA_FUSE_WIDTH", "0", 1);
  EXPECT_THROW(compiler_options_from_env(), Error);
}

TEST(Compiler, EstimatorFusedMatchesUnfused) {
  // End-to-end plumbing: the estimator's compiled path (default) against
  // the escape hatch, same seed.  The amplitudes agree to ~1e-12, so the
  // multinomial draws land identically except on ~1e-12-wide boundary
  // slivers — equality of counts is the expected outcome.
  Rng rng(31);
  RandomComplexOptions complex_options;
  complex_options.num_vertices = 7;
  complex_options.max_dimension = 2;
  auto complex = random_flag_complex(complex_options, rng);
  while (complex.count(1) == 0)
    complex = random_flag_complex(complex_options, rng);

  EstimatorOptions options;
  options.backend = EstimatorBackend::kCircuitSparse;
  options.precision_qubits = 3;
  options.shots = 4000;

  qtda::testing::ScopedSimulatorEnv guard;
  unsetenv("QTDA_FUSE");
  unsetenv("QTDA_FUSE_WIDTH");
  const auto fused = estimate_betti(complex, 1, options);
  setenv("QTDA_FUSE", "0", 1);
  const auto unfused = estimate_betti(complex, 1, options);
  EXPECT_EQ(fused.zero_counts, unfused.zero_counts);
  EXPECT_EQ(fused.rounded_betti, unfused.rounded_betti);
}

}  // namespace
