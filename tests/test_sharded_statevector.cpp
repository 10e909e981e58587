// The sharded engine's contract: ShardedStatevector and
// ShardedStatevectorBackend must be *bit-identical* to the dense engine —
// same amplitudes after randomized circuits, same marginals, same samples —
// for every shard count, including counts that do not divide the dimension.
#include "quantum/sharded_statevector.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "common/random.hpp"
#include "scoped_env.hpp"
#include "core/betti_estimator.hpp"
#include "linalg/expm_multiply.hpp"
#include "linalg/matrix_exp.hpp"
#include "quantum/backend.hpp"
#include "quantum/statevector.hpp"
#include "topology/laplacian.hpp"
#include "topology/random_complex.hpp"

namespace qtda {
namespace {

const std::size_t kShardCounts[] = {1, 2, 3, 8};  // non-power-of-two included

ComplexMatrix random_unitary(std::size_t m, Rng& rng) {
  const std::size_t dim = std::size_t{1} << m;
  RealMatrix h(dim, dim);
  for (std::size_t i = 0; i < dim; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      h(i, j) = h(j, i) = rng.uniform() * 2.0 - 1.0;
  return unitary_exp(h);
}

std::vector<std::size_t> distinct_qubits(std::size_t count, std::size_t q,
                                         Rng& rng) {
  std::vector<std::size_t> all = rng.permutation(q);
  all.resize(count);
  return all;
}

/// A circuit mixing every gate family the IR knows: named single-qubit
/// gates, rotations, controlled named gates, dense two-qubit unitaries
/// (controlled and not), and matrix-free operator gates (both the strided
/// gather path and, for q ≥ 3, the contiguous trailing-target fast path via
/// a Chebyshev exponential).
Circuit random_circuit(std::size_t q, Rng& rng) {
  Circuit circuit(q);
  const std::size_t gates = 24 + 3 * q;
  for (std::size_t g = 0; g < gates; ++g) {
    switch (rng.uniform_index(q >= 2 ? 10 : 5)) {
      case 0: circuit.h(rng.uniform_index(q)); break;
      case 1: circuit.rx(rng.uniform_index(q), rng.uniform(-3.0, 3.0)); break;
      case 2: circuit.ry(rng.uniform_index(q), rng.uniform(-3.0, 3.0)); break;
      case 3: circuit.rz(rng.uniform_index(q), rng.uniform(-3.0, 3.0)); break;
      case 4: circuit.phase(rng.uniform_index(q), rng.uniform(-3.0, 3.0)); break;
      case 5: {
        const auto w = distinct_qubits(2, q, rng);
        circuit.cnot(w[0], w[1]);
        break;
      }
      case 6: {
        const auto w = distinct_qubits(2, q, rng);
        circuit.controlled_phase(w[0], w[1], rng.uniform(-3.0, 3.0));
        break;
      }
      case 7: {
        const auto w = distinct_qubits(2, q, rng);
        circuit.swap(w[0], w[1]);
        break;
      }
      case 8: {
        const auto w = distinct_qubits(q >= 3 ? 3 : 2, q, rng);
        const ComplexMatrix u = random_unitary(2, rng);
        if (w.size() == 3) {
          circuit.unitary(u, {w[0], w[1]}, {w[2]});
        } else {
          circuit.unitary(u, {w[0], w[1]});
        }
        break;
      }
      default: {
        const auto w = distinct_qubits(2, q, rng);
        circuit.operator_gate(
            std::make_shared<DenseOperator>(random_unitary(2, rng)),
            {w[0], w[1]});
        break;
      }
    }
  }
  if (q >= 3) {
    // Trailing contiguous targets: the segmented-memcpy gather path, with a
    // control so the block-column enumeration is exercised too.
    std::vector<Triplet> triplets;
    for (std::size_t i = 0; i < 4; ++i) {
      triplets.push_back({i, i, rng.uniform(0.0, 2.0)});
      if (i + 1 < 4) {
        const double v = rng.uniform(-1.0, 1.0);
        triplets.push_back({i, i + 1, v});
        triplets.push_back({i + 1, i, v});
      }
    }
    const SparseMatrix h =
        SparseMatrix::from_triplets(4, 4, std::move(triplets));
    circuit.operator_gate(
        std::make_shared<SparseExpOperator>(h, 1.0, -4.0, 6.0),
        {q - 2, q - 1}, {0});
  }
  circuit.add_global_phase(rng.uniform(-1.0, 1.0));
  return circuit;
}

std::vector<Amplitude> random_state(std::size_t q, Rng& rng) {
  std::vector<Amplitude> amps(std::size_t{1} << q);
  for (auto& a : amps)
    a = {rng.uniform() * 2.0 - 1.0, rng.uniform() * 2.0 - 1.0};
  Statevector normalizer(q);
  normalizer.set_amplitudes(amps);
  normalizer.normalize();
  return normalizer.amplitudes();
}

std::size_t count_mismatches(const std::vector<Amplitude>& a,
                             const std::vector<Amplitude>& b) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) ++mismatches;
  return mismatches;
}

class ShardedEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardedEquivalence, RandomCircuitIsBitIdenticalForEveryShardCount) {
  const std::size_t q = GetParam();
  Rng rng(1000 + q);
  const Circuit circuit = random_circuit(q, rng);
  const std::vector<Amplitude> initial = random_state(q, rng);

  Statevector dense(q);
  dense.set_amplitudes(initial);
  dense.apply_circuit(circuit);

  for (std::size_t shards : kShardCounts) {
    ShardedStatevector sharded(q, shards);
    sharded.set_amplitudes(initial);
    sharded.apply_circuit(circuit);
    EXPECT_EQ(count_mismatches(sharded.amplitudes(), dense.amplitudes()), 0u)
        << "q=" << q << " shards=" << shards;

    // Marginals over a mixed qubit subset are the same doubles, so samples
    // from identically seeded generators are the same counts.
    std::vector<std::size_t> measured{0};
    if (q >= 3) measured.push_back(q - 2);
    if (q >= 2) measured.push_back(q - 1);
    EXPECT_EQ(sharded.marginal_probabilities(measured),
              dense.marginal_probabilities(measured))
        << "q=" << q << " shards=" << shards;
    Rng rng_a(7), rng_b(7);
    EXPECT_EQ(sharded.sample_counts(measured, 2000, rng_a),
              dense.sample_counts(measured, 2000, rng_b))
        << "q=" << q << " shards=" << shards;
    EXPECT_DOUBLE_EQ(sharded.norm_squared(), dense.norm_squared());
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ShardedEquivalence,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(ShardedStatevector, LayoutClampsAndPartitionsBalanced) {
  ShardedStatevector state(3, 3);  // dim 8 over 3 slabs: 2/3/3 split
  EXPECT_EQ(state.num_shards(), 3u);
  EXPECT_EQ(state.slab_begin(0), 0u);
  EXPECT_EQ(state.slab_begin(3), 8u);
  for (std::size_t s = 0; s < 3; ++s)
    EXPECT_LT(state.slab_begin(s), state.slab_begin(s + 1));
  EXPECT_EQ(state.amplitude(0), (Amplitude{1.0, 0.0}));

  // More shards than amplitudes clamps to one amplitude per slab.
  ShardedStatevector tiny(1, 64);
  EXPECT_EQ(tiny.num_shards(), 2u);
  EXPECT_THROW(ShardedStatevector(3, 0), Error);
}

TEST(ShardedStatevector, BasisStatePreparationAndGlobalPhase) {
  ShardedStatevector state(4, 3);
  state.set_basis_state(11);
  EXPECT_EQ(state.amplitude(11), (Amplitude{1.0, 0.0}));
  EXPECT_EQ(state.amplitude(0), (Amplitude{0.0, 0.0}));

  Statevector dense(4);
  dense.set_basis_state(11);
  dense.apply_global_phase(0.77);
  state.apply_global_phase(0.77);
  EXPECT_EQ(count_mismatches(state.amplitudes(), dense.amplitudes()), 0u);
}

TEST(ShardedStatevector, MarginalValidatesAllQubitsBeforeBuildingMasks) {
  // An out-of-range wire anywhere in the list must throw — on both engines —
  // before any mask shift is computed (the shift itself would be UB).
  ShardedStatevector sharded(3, 2);
  Statevector dense(3);
  EXPECT_THROW(sharded.marginal_probabilities({0, 99}), Error);
  EXPECT_THROW(dense.marginal_probabilities({0, 99}), Error);
  EXPECT_THROW(sharded.marginal_probabilities({99, 0}), Error);
  EXPECT_THROW(dense.marginal_probabilities({99, 0}), Error);
}

TEST(ShardedStatevector, SamplingIsDeterministicForFixedSeed) {
  Rng rng(42);
  const Circuit circuit = random_circuit(6, rng);
  ShardedStatevector a(6, 3), b(6, 3);
  a.apply_circuit(circuit);
  b.apply_circuit(circuit);
  Rng rng_a(123), rng_b(123);
  EXPECT_EQ(a.sample_counts({0, 1, 2}, 5000, rng_a),
            b.sample_counts({0, 1, 2}, 5000, rng_b));
}

TEST(ShardedBackend, FactoryNameAndParserRoundTrip) {
  const auto backend =
      make_simulator(SimulatorKind::kShardedStatevector, 3, 2);
  EXPECT_EQ(backend->name(), "sharded-statevector");
  EXPECT_EQ(backend->num_qubits(), 3u);
  EXPECT_EQ(simulator_kind_name(SimulatorKind::kShardedStatevector),
            "sharded-statevector");
  for (SimulatorKind kind : {SimulatorKind::kStatevector,
                             SimulatorKind::kShardedStatevector}) {
    EXPECT_EQ(simulator_kind_from_name(simulator_kind_name(kind)), kind);
  }
  try {
    simulator_kind_from_name("qpu");
    FAIL() << "expected an Error for an unknown simulator name";
  } catch (const Error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("statevector"), std::string::npos);
    EXPECT_NE(message.find("sharded-statevector"), std::string::npos);
  }
}

TEST(ShardedBackend, EnvironmentOverrideForcesEngine) {
  const testing::ScopedSimulatorEnv restore_after;
  ASSERT_EQ(setenv("QTDA_SIMULATOR", "sharded-statevector", 1), 0);
  ASSERT_EQ(setenv("QTDA_SHARDS", "2", 1), 0);
  const auto forced = make_simulator(SimulatorKind::kStatevector, 3);
  EXPECT_EQ(forced->name(), "sharded-statevector");
  testing::ScopedSimulatorEnv::clear();
  const auto unforced = make_simulator(SimulatorKind::kStatevector, 3);
  EXPECT_EQ(unforced->name(), "statevector");
}

TEST(ShardedBackend, DepolarizingMatchesDenseBackendDrawForDraw) {
  Rng circuit_rng(5);
  const Circuit circuit = random_circuit(5, circuit_rng);
  StatevectorBackend dense(5);
  ShardedStatevectorBackend sharded(5, 3);
  dense.apply_circuit(circuit);
  sharded.apply_circuit(circuit);
  Rng rng_a(9), rng_b(9);
  for (std::size_t round = 0; round < 8; ++round) {
    dense.apply_depolarizing(round % 5, 0.6, rng_a);
    sharded.apply_depolarizing(round % 5, 0.6, rng_b);
  }
  EXPECT_EQ(count_mismatches(sharded.state().amplitudes(),
                             dense.state().amplitudes()),
            0u);
}

SimplicialComplex sample_complex(std::uint64_t seed, std::size_t vertices) {
  Rng rng(seed * 6151 + 11);
  RandomComplexOptions options;
  options.num_vertices = vertices;
  options.max_dimension = 2;
  for (;;) {
    const auto complex = random_flag_complex(options, rng);
    if (complex.count(1) > 0) return complex;
  }
}

TEST(ShardedBackend, SparseBettiEstimateIsBitIdenticalToDenseEngine) {
  const auto complex = sample_complex(17, 8);
  const SparseMatrix laplacian = sparse_combinatorial_laplacian(complex, 1);

  EstimatorOptions dense_options;
  dense_options.backend = EstimatorBackend::kCircuitSparse;
  dense_options.precision_qubits = 4;
  dense_options.shots = 20000;

  for (auto mode :
       {MixedStateMode::kPurification, MixedStateMode::kSampledBasis}) {
    dense_options.mixed_state = mode;
    const BettiEstimate reference =
        estimate_betti_from_sparse_laplacian(laplacian, dense_options);
    for (std::size_t shards : kShardCounts) {
      EstimatorOptions sharded_options = dense_options;
      sharded_options.simulator = SimulatorKind::kShardedStatevector;
      sharded_options.simulator_shards = shards;
      const BettiEstimate estimate =
          estimate_betti_from_sparse_laplacian(laplacian, sharded_options);
      EXPECT_EQ(estimate.zero_counts, reference.zero_counts)
          << "shards=" << shards;
      EXPECT_DOUBLE_EQ(estimate.zero_probability, reference.zero_probability);
      EXPECT_DOUBLE_EQ(estimate.estimated_betti, reference.estimated_betti);
      EXPECT_EQ(estimate.rounded_betti, reference.rounded_betti);
      EXPECT_EQ(estimate.total_qubits, reference.total_qubits);
    }
  }
}

TEST(ShardedBackend, NoisyTrajectoryEstimateMatchesDenseEngine) {
  const auto complex = sample_complex(23, 6);
  EstimatorOptions options;
  options.backend = EstimatorBackend::kCircuitSparse;
  options.precision_qubits = 3;
  options.shots = 200;
  options.noise.single_qubit_error = 0.02;
  options.noise.two_qubit_error = 0.05;
  const BettiEstimate reference = estimate_betti(complex, 1, options);
  options.simulator = SimulatorKind::kShardedStatevector;
  options.simulator_shards = 3;
  const BettiEstimate estimate = estimate_betti(complex, 1, options);
  EXPECT_EQ(estimate.zero_counts, reference.zero_counts);
  EXPECT_DOUBLE_EQ(estimate.estimated_betti, reference.estimated_betti);
}

}  // namespace
}  // namespace qtda
