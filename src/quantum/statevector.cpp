#include "quantum/statevector.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "quantum/executor.hpp"
#include "quantum/register_layout.hpp"
#include "quantum/simd_kernels.hpp"

namespace qtda {

namespace {

/// Below this state size the measurement reductions stay serial.
constexpr std::uint64_t kParallelThreshold = std::uint64_t{1} << 17;

/// Below this state size a chunked sweep runs its chunks in order on the
/// calling thread: the pool handoff would cost more than the gate.  The
/// chunk split is the same either way.
constexpr std::uint64_t kSerialSweepThreshold = std::uint64_t{1} << 9;

/// Contiguous runs shorter than this stay on the scalar pair/four-point
/// sweeps: a sub-vector-width run per dispatch call costs more than it
/// saves.  Safe to mix freely with the vector paths — they are bitwise
/// identical by construction.
constexpr std::uint64_t kMinSimdRun = 4;

/// Row-major matrix entries at the engine's precision: the double engine
/// reads the ComplexMatrix storage directly (no copy — and no change to the
/// historical arithmetic); the float engine narrows into a reusable scratch.
template <typename Real>
const std::complex<Real>* cast_matrix(const ComplexMatrix& u,
                                      std::vector<std::complex<Real>>& scratch);

template <>
const Amplitude* cast_matrix<double>(const ComplexMatrix& u,
                                     std::vector<Amplitude>&) {
  return u.data();
}

template <>
const std::complex<float>* cast_matrix<float>(
    const ComplexMatrix& u, std::vector<std::complex<float>>& scratch) {
  const std::size_t n = u.rows() * u.cols();
  scratch.resize(n);
  const Amplitude* src = u.data();
  for (std::size_t i = 0; i < n; ++i)
    scratch[i] = std::complex<float>(static_cast<float>(src[i].real()),
                                     static_cast<float>(src[i].imag()));
  return scratch.data();
}

/// Batch apply at the engine's precision (LinearOperator's native rail for
/// double, its complex64 rail for float).
inline void operator_apply_batch(const LinearOperator& op, const Amplitude* in,
                                 Amplitude* out, std::size_t count) {
  op.apply_batch(in, out, count);
}
inline void operator_apply_batch(const LinearOperator& op,
                                 const std::complex<float>* in,
                                 std::complex<float>* out, std::size_t count) {
  op.apply_batch_f32(in, out, count);
}

/// The index of anchor \p a: the a-th basis index, in ascending order,
/// whose \p zero_bits are clear and \p one_bits set.
std::uint64_t anchor_index(std::uint64_t a, std::uint64_t zero_bits,
                           std::uint64_t one_bits) {
  for (std::uint64_t rest = zero_bits | one_bits; rest != 0;
       rest &= rest - 1) {
    const std::uint64_t below = (rest & (~rest + 1)) - 1;
    a = ((a & ~below) << 1) | (a & below);
  }
  return a | one_bits;
}

}  // namespace

template <typename Real>
BasicStatevector<Real>::BasicStatevector(std::size_t num_qubits,
                                         std::size_t chunks)
    : num_qubits_(num_qubits), chunks_(std::max<std::size_t>(1, chunks)) {
  QTDA_REQUIRE(num_qubits > 0 && num_qubits <= 30,
               "statevector width " << num_qubits << " unsupported");
  amplitudes_.assign(std::uint64_t{1} << num_qubits, C{});
  amplitudes_[0] = C{Real{1}, Real{0}};
}

template <typename Real>
std::size_t BasicStatevector<Real>::active_chunks(
    std::uint64_t fixed_bits) const {
  const std::uint64_t anchors =
      dimension() >> __builtin_popcountll(fixed_bits);
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(chunks_, anchors));
}

template <typename Real>
template <typename Sweep>
void BasicStatevector<Real>::sweep_chunks(std::uint64_t zero_bits,
                                          std::uint64_t one_bits,
                                          const Sweep& sweep) {
  const std::uint64_t dim = dimension();
  const std::size_t chunks = active_chunks(zero_bits | one_bits);
  if (chunks <= 1) {
    sweep(0, dim, 0);
    return;
  }
  // Chunk c starts at its first anchor, so every pair or block belongs to
  // the chunk holding its anchor and no two chunks write the same amplitude.
  const std::uint64_t anchors =
      dim >> __builtin_popcountll(zero_bits | one_bits);
  const auto bound = [&](std::size_t c) {
    return c == chunks
               ? dim
               : anchor_index(anchors * c / chunks, zero_bits, one_bits);
  };
  const auto chunk = [&](std::size_t c) { sweep(bound(c), bound(c + 1), c); };
  if (dim < kSerialSweepThreshold) {
    for (std::size_t c = 0; c < chunks; ++c) chunk(c);
  } else {
    ThreadPool::shared().run_batch(chunks, chunk);
  }
}

template <typename Real>
typename BasicStatevector<Real>::C BasicStatevector<Real>::amplitude(
    std::uint64_t index) const {
  QTDA_REQUIRE(index < dimension(), "basis index out of range");
  return amplitudes_[index];
}

template <typename Real>
void BasicStatevector<Real>::set_basis_state(std::uint64_t index) {
  QTDA_REQUIRE(index < dimension(), "basis index out of range");
  std::fill(amplitudes_.begin(), amplitudes_.end(), C{});
  amplitudes_[index] = C{Real{1}, Real{0}};
}

template <typename Real>
void BasicStatevector<Real>::set_amplitudes(std::vector<C> amplitudes) {
  QTDA_REQUIRE(amplitudes.size() == dimension(),
               "amplitude vector length mismatch");
  amplitudes_ = std::move(amplitudes);
}

template <typename Real>
void BasicStatevector<Real>::apply_gate(const Gate& gate) {
  if (gate.kind == GateKind::kUnitary) {
    apply_unitary(gate.matrix, gate.targets, gate.controls);
  } else if (gate.kind == GateKind::kOperator) {
    apply_operator(*gate.op, gate.targets, gate.controls);
  } else {
    apply_single_qubit(gate.single_qubit_matrix(), gate.targets.at(0),
                       gate.controls);
  }
}

template <typename Real>
void BasicStatevector<Real>::apply_circuit(const Circuit& circuit) {
  QTDA_REQUIRE(circuit.num_qubits() == num_qubits_,
               "circuit width " << circuit.num_qubits()
                                << " does not match state width "
                                << num_qubits_);
  for (const Gate& gate : circuit.gates()) apply_gate(gate);
  if (circuit.global_phase() != 0.0) apply_global_phase(circuit.global_phase());
}

template <typename Real>
void BasicStatevector<Real>::apply_single_qubit(
    const ComplexMatrix& u, std::size_t target,
    const std::vector<std::size_t>& controls) {
  QTDA_REQUIRE(u.rows() == 2 && u.cols() == 2, "expected a 2x2 matrix");
  QTDA_REQUIRE(target < num_qubits_, "target out of range");
  const std::uint64_t mask = qubit_mask(target, num_qubits_);
  std::uint64_t cmask = 0;
  for (std::size_t c : controls) {
    QTDA_REQUIRE(c < num_qubits_ && c != target, "bad control qubit");
    cmask |= qubit_mask(c, num_qubits_);
  }
  single_qubit_kernel(static_cast<C>(u(0, 0)), static_cast<C>(u(0, 1)),
                      static_cast<C>(u(1, 0)), static_cast<C>(u(1, 1)), mask,
                      cmask);
}

template <typename Real>
void BasicStatevector<Real>::single_qubit_kernel(C u00, C u01, C u10, C u11,
                                                 std::uint64_t mask,
                                                 std::uint64_t cmask) {
  C* amp = amplitudes_.data();
  // The indices below the lowest target or control bit form contiguous
  // runs that share their target and control bits, so every run whose
  // controls are set is one pair sweep — the top hot loop, dispatched to
  // the vector kernels when the runs are long enough (bitwise identical to
  // the scalar expressions; see simd_kernels.hpp).
  const std::uint64_t bits = mask | cmask;
  const std::uint64_t run = bits & (~bits + 1);
  const SimdLevel level =
      run >= kMinSimdRun ? active_simd_level() : SimdLevel::kScalar;
  const C u[4] = {u00, u01, u10, u11};
  sweep_chunks(mask, cmask, [&](std::uint64_t lo, std::uint64_t hi,
                                std::size_t) {
    for (std::uint64_t i0 = lo & ~(run - 1); i0 < hi; i0 += run) {
      if ((i0 & mask) != 0 || (i0 & cmask) != cmask) continue;
      const std::uint64_t first = std::max(i0, lo);
      simd::pair_sweep(level, amp + first, amp + (first | mask),
                       std::min(i0 + run, hi) - first, u);
    }
  });
}

template <typename Real>
void BasicStatevector<Real>::apply_unitary(
    const ComplexMatrix& u, const std::vector<std::size_t>& targets,
    const std::vector<std::size_t>& controls) {
  if (targets.size() == 1) {
    apply_single_qubit(u, targets[0], controls);
    return;
  }
  const std::size_t m = targets.size();
  QTDA_REQUIRE(m <= 20, "dense unitary over too many targets");
  const std::uint64_t block = std::uint64_t{1} << m;
  QTDA_REQUIRE(u.rows() == block && u.cols() == block,
               "unitary shape does not match target count");
  const TargetLayout layout =
      build_target_layout(targets, controls, num_qubits_);
  block_kernel(cast_matrix<Real>(u, matrix_scratch_), layout.tmask,
               layout.cmask, block_offsets(layout.local_bit_mask));
}

template <typename Real>
void BasicStatevector<Real>::block_kernel(
    const C* u, std::uint64_t tmask, std::uint64_t cmask,
    const std::vector<std::uint64_t>& offset) {
  const std::uint64_t block = offset.size();
  C* amp = amplitudes_.data();
  block_scratch_.resize(2 * block * active_chunks(tmask | cmask));
  // Gather, row-wise matvec into the out rows, scatter.  Per-row
  // accumulation order matches the scalar row-dot exactly at every SIMD
  // level (see simd_kernels.hpp), so mixing paths cannot change results.
  const SimdLevel level = active_simd_level();
  sweep_chunks(tmask, cmask, [&](std::uint64_t lo, std::uint64_t hi,
                                 std::size_t chunk) {
    C* in = block_scratch_.data() + 2 * block * chunk;
    C* out = in + block;
    for (std::uint64_t i = lo; i < hi; ++i) {
      if ((i & tmask) != 0 || (i & cmask) != cmask) continue;
      for (std::uint64_t l = 0; l < block; ++l) in[l] = amp[i | offset[l]];
      simd::block_matvec(level, u, in, out, block);
      for (std::uint64_t r = 0; r < block; ++r) amp[i | offset[r]] = out[r];
    }
  });
}

template <typename Real>
void BasicStatevector<Real>::apply_operator(
    const LinearOperator& op, const std::vector<std::size_t>& targets,
    const std::vector<std::size_t>& controls) {
  const std::size_t m = targets.size();
  QTDA_REQUIRE(m >= 1 && m <= num_qubits_, "bad operator target count");
  const std::uint64_t block = std::uint64_t{1} << m;
  QTDA_REQUIRE(op.dimension() == block,
               "operator dimension " << op.dimension() << " does not match "
                                     << m << " targets");
  const TargetLayout layout =
      build_target_layout(targets, controls, num_qubits_);

  // Blocks are contiguous slices exactly when the targets are the trailing
  // wires in order (the sampled-basis QPE layout) — then gather/scatter is
  // a memcpy.
  const bool contiguous = targets_are_trailing(targets, num_qubits_);
  std::vector<std::uint64_t> offset;
  if (!contiguous) offset = block_offsets(layout.local_bit_mask);

  const std::vector<std::uint64_t> bases =
      enumerate_block_bases(dimension(), layout.tmask, layout.cmask);
  operator_kernel(op, contiguous, offset, bases);
}

template <typename Real>
void BasicStatevector<Real>::operator_kernel(
    const LinearOperator& op, bool contiguous,
    const std::vector<std::uint64_t>& offset,
    const std::vector<std::uint64_t>& bases) {
  const std::uint64_t block = op.dimension();
  // Batch blocks through packed buffers so the operator can amortize setup
  // and parallelize across blocks; the batch cap bounds the extra memory at
  // ~2×64 MB regardless of register width.
  constexpr std::uint64_t kBatchAmplitudeCap = std::uint64_t{1} << 22;
  const std::size_t blocks_per_batch = static_cast<std::size_t>(
      std::max<std::uint64_t>(1, kBatchAmplitudeCap / block));
  C* amp = amplitudes_.data();
  for (std::size_t first = 0; first < bases.size();
       first += blocks_per_batch) {
    const std::size_t count =
        std::min(blocks_per_batch, bases.size() - first);
    packed_in_.resize(count * block);
    packed_out_.resize(count * block);
    for (std::size_t b = 0; b < count; ++b) {
      const std::uint64_t base = bases[first + b];
      if (contiguous) {
        std::memcpy(packed_in_.data() + b * block, amp + base,
                    block * sizeof(C));
      } else {
        for (std::uint64_t l = 0; l < block; ++l)
          packed_in_[b * block + l] = amp[base | offset[l]];
      }
    }
    operator_apply_batch(op, packed_in_.data(), packed_out_.data(), count);
    for (std::size_t b = 0; b < count; ++b) {
      const std::uint64_t base = bases[first + b];
      if (contiguous) {
        std::memcpy(amp + base, packed_out_.data() + b * block,
                    block * sizeof(C));
      } else {
        for (std::uint64_t l = 0; l < block; ++l)
          amp[base | offset[l]] = packed_out_[b * block + l];
      }
    }
  }
}

template <typename Real>
void BasicStatevector<Real>::two_qubit_kernel(const C* u,
                                              std::uint64_t mask_high,
                                              std::uint64_t mask_low) {
  // mask_high carries local bit 1 (targets[0]), mask_low local bit 0
  // (targets[1]) — the gather order of block_kernel, so results match the
  // generic path bit for bit.
  const std::uint64_t m_small = std::min(mask_high, mask_low);
  const std::uint64_t m_big = std::max(mask_high, mask_low);
  C* amp = amplitudes_.data();

  // The innermost run [b, b+m_small) gives four contiguous streams at
  // constant offsets — the four-point sweep, vectorized when the runs are
  // long enough (bitwise identical to the scalar accumulation chains).
  // Nested strided loops keep that run contiguous, which is what lets the
  // compiler pipeline the complex arithmetic — a flat compressed-index loop
  // ran ~2× slower.
  const SimdLevel level =
      m_small >= kMinSimdRun ? active_simd_level() : SimdLevel::kScalar;
  sweep_chunks(m_big | m_small, 0, [&](std::uint64_t lo, std::uint64_t hi,
                                       std::size_t) {
    for (std::uint64_t a = lo & ~(2 * m_big - 1); a < hi; a += 2 * m_big) {
      const std::uint64_t end = std::min(a + m_big, hi);
      for (std::uint64_t b = std::max(a, lo & ~(2 * m_small - 1)); b < end;
           b += 2 * m_small) {
        const std::uint64_t i = std::max(b, lo);
        simd::four_point_sweep(level, amp + i, amp + (i | mask_low),
                               amp + (i | mask_high),
                               amp + (i | mask_high | mask_low),
                               std::min(b + m_small, hi) - i, u);
      }
    }
  });
}

template <typename Real>
void BasicStatevector<Real>::diagonal_kernel(const C* table,
                                             const DiagonalExtract& extract) {
  // One multiply per amplitude, however many gates the diagonal absorbed:
  // the big fusion win of the controlled-phase-dominated QPE networks.
  const SimdLevel level = active_simd_level();
  C* amp = amplitudes_.data();
  sweep_chunks(0, 0, [&](std::uint64_t lo, std::uint64_t hi, std::size_t) {
    simd::diagonal_pass(level, amp + lo, lo, hi - lo, extract, table);
  });
}

template <typename Real>
void BasicStatevector<Real>::apply_plan(const ExecutionPlan& plan) {
  QTDA_REQUIRE(plan.num_qubits() == num_qubits_,
               "plan width " << plan.num_qubits()
                             << " does not match state width " << num_qubits_);
  for_each_plan_op_accounted(plan,
                             [&](const CompiledOp& op) { apply_plan_op(op); });
  if (plan.global_phase() != 0.0) apply_global_phase(plan.global_phase());
}

template <typename Real>
void BasicStatevector<Real>::apply_plan_op(const CompiledOp& op) {
  switch (op.kind) {
    case CompiledOp::Kind::kSingleQubit:
      single_qubit_kernel(static_cast<C>(op.u00), static_cast<C>(op.u01),
                          static_cast<C>(op.u10), static_cast<C>(op.u11),
                          op.tmask, op.cmask);
      break;
    case CompiledOp::Kind::kBlock:
      if (op.offsets.size() == 4 && op.cmask == 0) {
        two_qubit_kernel(compiled_matrix_data<Real>(op), op.offsets[2],
                         op.offsets[1]);
      } else {
        block_kernel(compiled_matrix_data<Real>(op), op.tmask, op.cmask,
                     op.offsets);
      }
      break;
    case CompiledOp::Kind::kDiagonal:
      diagonal_kernel(compiled_diagonal<Real>(op), op.diag_extract);
      break;
    case CompiledOp::Kind::kOperator:
      operator_kernel(*op.gate.op, op.contiguous, op.offsets, op.bases);
      break;
  }
}

template <typename Real>
void BasicStatevector<Real>::apply_global_phase(double phi) {
  // cos/sin evaluate in double at every precision; only the stored factor
  // narrows.
  const C factor{static_cast<Real>(std::cos(phi)),
                 static_cast<Real>(std::sin(phi))};
  C* amp = amplitudes_.data();
  sweep_chunks(0, 0, [&](std::uint64_t lo, std::uint64_t hi, std::size_t) {
    for (std::uint64_t i = lo; i < hi; ++i) amp[i] *= factor;
  });
}

template <typename Real>
double BasicStatevector<Real>::probability(std::uint64_t index) const {
  QTDA_REQUIRE(index < dimension(), "basis index out of range");
  return norm_sq_as_double(amplitudes_[index]);
}

template <typename Real>
std::vector<double> BasicStatevector<Real>::probabilities() const {
  std::vector<double> p(amplitudes_.size());
  parallel_for_chunked(
      0, amplitudes_.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
          p[i] = norm_sq_as_double(amplitudes_[i]);
      },
      kParallelThreshold);
  return p;
}

template <typename Real>
std::vector<double> BasicStatevector<Real>::marginal_probabilities(
    const std::vector<std::size_t>& qubits) const {
  const std::vector<std::uint64_t> bit_mask =
      marginal_bit_masks(qubits, num_qubits_);
  const std::size_t m = qubits.size();
  const std::uint64_t out_dim = std::uint64_t{1} << m;
  // Chunk-local histograms merged in index order: the sampling cumulative
  // sums downstream need run-to-run reproducible totals.
  std::vector<double> marginal(out_dim, 0.0);
  parallel_reduce_ordered(
      0, static_cast<std::size_t>(dimension()), marginal,
      std::vector<double>(out_dim, 0.0),
      [&](std::size_t i, std::vector<double>& into) {
        const double p = norm_sq_as_double(amplitudes_[i]);
        if (p == 0.0) return;
        std::uint64_t outcome = 0;
        for (std::size_t j = 0; j < m; ++j)
          if (i & bit_mask[j]) outcome |= std::uint64_t{1} << j;
        into[outcome] += p;
      },
      [out_dim](std::vector<double>& total, const std::vector<double>& part) {
        for (std::uint64_t o = 0; o < out_dim; ++o) total[o] += part[o];
      },
      kParallelThreshold);
  return marginal;
}

template <typename Real>
std::vector<std::uint64_t> BasicStatevector<Real>::sample_counts(
    const std::vector<std::size_t>& qubits, std::size_t shots,
    Rng& rng) const {
  return multinomial_sample(marginal_probabilities(qubits), shots, rng);
}

template <typename Real>
double BasicStatevector<Real>::norm_squared() const {
  double s = 0.0;
  parallel_reduce_ordered(
      0, static_cast<std::size_t>(dimension()), s, 0.0,
      [&](std::size_t i, double& acc) {
        acc += norm_sq_as_double(amplitudes_[i]);
      },
      [](double& total, double part) { total += part; }, kParallelThreshold);
  return s;
}

template <typename Real>
void BasicStatevector<Real>::normalize() {
  const double n2 = norm_squared();
  QTDA_REQUIRE(n2 > 0.0, "cannot normalize the zero vector");
  const double inv = 1.0 / std::sqrt(n2);
  const Real scale = static_cast<Real>(inv);
  for (C& a : amplitudes_) a *= scale;
}

template <typename Real>
Amplitude BasicStatevector<Real>::inner_product(
    const BasicStatevector& other) const {
  QTDA_REQUIRE(other.num_qubits() == num_qubits_,
               "inner product width mismatch");
  Amplitude acc{};
  for (std::uint64_t i = 0; i < dimension(); ++i)
    acc += std::conj(widen(amplitudes_[i])) * widen(other.amplitudes_[i]);
  return acc;
}

template class BasicStatevector<double>;
template class BasicStatevector<float>;

std::vector<std::uint64_t> multinomial_sample(
    const std::vector<double>& distribution, std::size_t shots, Rng& rng) {
  QTDA_REQUIRE(!distribution.empty(), "empty distribution");
  std::vector<double> cumulative(distribution.size());
  double total = 0.0;
  for (std::size_t i = 0; i < distribution.size(); ++i) {
    QTDA_REQUIRE(distribution[i] >= -1e-12,
                 "negative probability " << distribution[i]);
    total += std::max(distribution[i], 0.0);
    cumulative[i] = total;
  }
  QTDA_REQUIRE(total > 0.0, "distribution sums to zero");
  std::vector<std::uint64_t> counts(distribution.size(), 0);
  for (std::size_t s = 0; s < shots; ++s) {
    const double u = rng.uniform() * total;
    const auto it =
        std::upper_bound(cumulative.begin(), cumulative.end(), u);
    const std::size_t idx =
        std::min<std::size_t>(std::distance(cumulative.begin(), it),
                              distribution.size() - 1);
    ++counts[idx];
  }
  return counts;
}

}  // namespace qtda
