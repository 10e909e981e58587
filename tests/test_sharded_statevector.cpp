// The shard contract of the statevector engine: a Statevector whose gate
// sweeps are split into shards (contiguous anchor chunks on the shared pool)
// must be *bit-identical* to the serial sweeps — same amplitudes after
// randomized circuits and plans, same marginals, same samples — for every
// shard count, including counts that do not divide the anchor count and
// counts above the pool size.
#include "quantum/statevector.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>

#include "common/parallel.hpp"
#include "common/random.hpp"
#include "scoped_env.hpp"
#include "core/betti_estimator.hpp"
#include "linalg/expm_multiply.hpp"
#include "linalg/matrix_exp.hpp"
#include "quantum/backend.hpp"
#include "quantum/compiler.hpp"
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
    Statevector sharded(q, shards);
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

/// Every sweep kind on one state, serial and in \p shards chunks: a top-wire
/// and a bottom-wire gate, controls above and below the target, dense
/// blocks over two and three wires, strided and contiguous operator gates,
/// a compiled plan with fused two-qubit blocks and a fused diagonal, and a
/// global phase.  Returns whether the two states end byte-identical.
template <typename Real>
bool chunking_keeps_bytes(std::size_t q, std::size_t shards) {
  Rng rng(4000 + q);
  std::vector<std::complex<Real>> initial(std::size_t{1} << q);
  for (auto& a : initial)
    a = {static_cast<Real>(rng.uniform() - 0.5),
         static_cast<Real>(rng.uniform() - 0.5)};
  const ComplexMatrix u2 = random_unitary(1, rng);
  const ComplexMatrix u4 = random_unitary(2, rng);
  const ComplexMatrix u8 = random_unitary(3, rng);
  const auto strided = std::make_shared<DenseOperator>(random_unitary(2, rng));
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i < 8; ++i) {
    triplets.push_back({i, i, rng.uniform(0.0, 2.0)});
    if (i + 1 < 8) {
      const double v = rng.uniform(-1.0, 1.0);
      triplets.push_back({i, i + 1, v});
      triplets.push_back({i + 1, i, v});
    }
  }
  const SparseExpOperator trailing(
      SparseMatrix::from_triplets(8, 8, std::move(triplets)), 1.0, -4.0, 6.0);

  Circuit fused_source(q);
  for (std::size_t w = 0; w + 1 < q; ++w) {
    fused_source.h(w);
    fused_source.unitary(u4, {w, w + 1});
    fused_source.rz(w + 1, 0.3 * static_cast<double>(w + 1));
  }
  fused_source.unitary(u4, {q - 1, 0});
  for (std::size_t w = 1; w < q; ++w)
    fused_source.controlled_phase(0, w, 0.2 * static_cast<double>(w));
  CompilerOptions pairs;
  pairs.fuse_width = 2;
  const ExecutionPlan plan = compile_circuit(fused_source, pairs);
  bool has_pair_block = false, has_diagonal = false;
  for (const CompiledOp& op : plan.ops()) {
    has_pair_block |= op.kind == CompiledOp::Kind::kBlock &&
                      op.offsets.size() == 4 && op.cmask == 0;
    has_diagonal |= op.kind == CompiledOp::Kind::kDiagonal;
  }
  EXPECT_TRUE(has_pair_block && has_diagonal);

  const auto evolve = [&](BasicStatevector<Real>& state) {
    state.set_amplitudes(initial);
    state.apply_single_qubit(u2, 0);
    state.apply_single_qubit(u2, q - 1);
    state.apply_single_qubit(u2, q - 1, {0});
    state.apply_single_qubit(u2, 1, {q - 1});
    state.apply_unitary(u4, {q - 1, 0});
    state.apply_unitary(u8, {0, q - 1, 2}, {1});
    state.apply_operator(*strided, {q - 1, 1});
    state.apply_operator(trailing, {q - 3, q - 2, q - 1}, {0});
    state.apply_plan(plan);
    state.apply_global_phase(0.4);
  };
  BasicStatevector<Real> serial(q);
  BasicStatevector<Real> chunked(q, shards);
  EXPECT_EQ(chunked.chunks(), shards);
  evolve(serial);
  evolve(chunked);
  return std::memcmp(serial.amplitudes().data(), chunked.amplitudes().data(),
                     serial.amplitudes().size() *
                         sizeof(std::complex<Real>)) == 0;
}

class ShardCountBytes
    : public ::testing::TestWithParam<std::tuple<std::size_t, Precision>> {};

TEST_P(ShardCountBytes, EverySweepKindMatchesSerialBytes) {
  const auto [shards, precision] = GetParam();
  // 2^5 amplitudes run the chunks on the calling thread, 2^11 on the pool.
  for (std::size_t q : {5, 11}) {
    EXPECT_TRUE(precision == Precision::kFloat64
                    ? chunking_keeps_bytes<double>(q, shards)
                    : chunking_keeps_bytes<float>(q, shards))
        << "q=" << q << " shards=" << shards;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Counts, ShardCountBytes,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(Precision::kFloat64,
                                         Precision::kFloat32)),
    [](const auto& param_info) {
      return "shards" + std::to_string(std::get<0>(param_info.param)) + "_" +
             precision_name(std::get<1>(param_info.param));
    });

TEST(ShardCounts, MoreShardsThanPoolWorkersOrAnchors) {
  // Chunks queue on the pool past its size; past the anchor count they
  // clamp to one anchor each.  Neither changes a byte.
  const std::size_t past_pool = 2 * ThreadPool::shared().size() + 1;
  EXPECT_TRUE(chunking_keeps_bytes<double>(11, past_pool));
  EXPECT_TRUE(chunking_keeps_bytes<double>(11, 5000));
  EXPECT_TRUE(chunking_keeps_bytes<float>(5, 5000));
}

TEST(ShardedStatevector, BasisStatePreparationAndGlobalPhase) {
  Statevector state(4, 3);
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
  // An out-of-range wire anywhere in the list must throw — at every shard
  // count — before any mask shift is computed (the shift itself would be UB).
  Statevector sharded(3, 2);
  Statevector dense(3);
  EXPECT_THROW(sharded.marginal_probabilities({0, 99}), Error);
  EXPECT_THROW(dense.marginal_probabilities({0, 99}), Error);
  EXPECT_THROW(sharded.marginal_probabilities({99, 0}), Error);
  EXPECT_THROW(dense.marginal_probabilities({99, 0}), Error);
}

TEST(ShardedStatevector, SamplingIsDeterministicForFixedSeed) {
  Rng rng(42);
  const Circuit circuit = random_circuit(6, rng);
  Statevector a(6, 3), b(6, 3);
  a.apply_circuit(circuit);
  b.apply_circuit(circuit);
  Rng rng_a(123), rng_b(123);
  EXPECT_EQ(a.sample_counts({0, 1, 2}, 5000, rng_a),
            b.sample_counts({0, 1, 2}, 5000, rng_b));
}

/// Sweep chunk count of a factory-built statevector backend (either
/// precision: the float32 leg forces complex64 engines).
std::size_t backend_chunks(const SimulatorBackend& backend) {
  if (const auto* f64 = dynamic_cast<const StatevectorBackend*>(&backend))
    return f64->state().chunks();
  return dynamic_cast<const StatevectorBackendF32&>(backend).state().chunks();
}

TEST(ShardedBackend, FactoryNameAndParserRoundTrip) {
  const testing::ScopedSimulatorEnv restore_after;
  testing::ScopedSimulatorEnv::clear();
  const auto backend = make_simulator(SimulatorKind::kStatevector, 3, 2);
  EXPECT_EQ(backend->name(), "statevector");
  EXPECT_EQ(backend->num_qubits(), 3u);
  EXPECT_EQ(backend_chunks(*backend), 2u);
  for (SimulatorKind kind :
       {SimulatorKind::kStatevector, SimulatorKind::kDensityMatrix}) {
    EXPECT_EQ(simulator_kind_from_name(simulator_kind_name(kind)), kind);
  }
  // Shards are a count on the statevector engine, not an engine of their
  // own: the old engine name is unknown and the error lists the valid ones.
  for (const char* name : {"qpu", "sharded-statevector"}) {
    try {
      simulator_kind_from_name(name);
      FAIL() << "expected an Error for the simulator name " << name;
    } catch (const Error& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("statevector, density-matrix"),
                std::string::npos)
          << message;
    }
  }
}

TEST(ShardedBackend, EnvironmentOverrideForcesEngine) {
  const testing::ScopedSimulatorEnv restore_after;
  testing::ScopedSimulatorEnv::clear();
  ASSERT_EQ(setenv("QTDA_SHARDS", "2", 1), 0);
  const auto forced = make_simulator(SimulatorKind::kStatevector, 3);
  EXPECT_EQ(forced->name(), "statevector");
  EXPECT_EQ(backend_chunks(*forced), 2u);
  testing::ScopedSimulatorEnv::clear();
  const auto unforced = make_simulator(SimulatorKind::kStatevector, 3);
  EXPECT_EQ(backend_chunks(*unforced), 1u);
  ASSERT_EQ(setenv("QTDA_SIMULATOR", "sharded-statevector", 1), 0);
  try {
    make_simulator(SimulatorKind::kStatevector, 3);
    FAIL() << "expected QTDA_SIMULATOR=sharded-statevector to throw";
  } catch (const Error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("QTDA_SIMULATOR"), std::string::npos) << message;
    EXPECT_NE(message.find("statevector, density-matrix"), std::string::npos)
        << message;
  }
}

TEST(ShardedBackend, DepolarizingMatchesDenseBackendDrawForDraw) {
  Rng circuit_rng(5);
  const Circuit circuit = random_circuit(5, circuit_rng);
  StatevectorBackend dense(5);
  StatevectorBackend sharded(5, 3);
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
  options.simulator_shards = 3;
  const BettiEstimate estimate = estimate_betti(complex, 1, options);
  EXPECT_EQ(estimate.zero_counts, reference.zero_counts);
  EXPECT_DOUBLE_EQ(estimate.estimated_betti, reference.estimated_betti);
}

}  // namespace
}  // namespace qtda
