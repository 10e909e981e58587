/// \file statevector.hpp
/// \brief Dense state-vector simulator, templated over the amplitude scalar.
///
/// Amplitudes are stored for all 2^n basis states, in one flat array, under
/// the MSB-first qubit convention of types.hpp.  Gate kernels are
/// cache-friendly strided sweeps.  With a chunk count above one, each sweep
/// splits its *anchors* (the lower index of an amplitude pair, the base
/// index of a block) into that many contiguous chunks and runs them on the
/// shared pool; every pair or block belongs to exactly one chunk and the
/// per-amplitude arithmetic is the serial sweep's, so the chunk count never
/// changes a bit of the result.  Measurement reductions split over the
/// shared pool above a size threshold (the state for the paper's circuits
/// ranges from 2^3 to 2^20 amplitudes).
///
/// The engine is `BasicStatevector<Real>` with `Real` ∈ {double, float}
/// (explicitly instantiated in statevector.cpp): complex128 is the default
/// and the reference arithmetic, complex64 halves the memory traffic of
/// every sweep.  The *boundary* of the engine stays double regardless of
/// Real — gate matrices arrive as ComplexMatrix and are cast at kernel
/// entry, probabilities/marginals accumulate in double — so only the state
/// itself and the per-amplitude arithmetic change width.  Hot loops route
/// through quantum/simd_kernels.hpp (runtime AVX2/AVX-512 dispatch); at
/// QTDA_SIMD=0 they run the historical scalar expressions unchanged.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "common/random.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/linear_operator.hpp"
#include "quantum/circuit.hpp"
#include "quantum/compiler.hpp"
#include "quantum/types.hpp"

namespace qtda {

/// Widens an amplitude to the double boundary type (identity for double —
/// the double engine's reductions are source-identical to the historical
/// ones; the float engine widens per element and accumulates in double).
/// These overloads ARE the precision boundary.  qtda-lint: allow(complex-scalar)
inline Amplitude widen(const std::complex<double>& a) { return a; }
inline Amplitude widen(const std::complex<float>& a) {
  return Amplitude{static_cast<double>(a.real()),
                   static_cast<double>(a.imag())};
}

/// |a|² accumulated at the double boundary: std::norm for double (the
/// historical expression), widen-then-square for float so probabilities
/// lose no precision beyond what the float amplitudes already lost.
/// Boundary overload, not a pinned scalar.  qtda-lint: allow(complex-scalar)
inline double norm_sq_as_double(const std::complex<double>& a) {
  return std::norm(a);
}
inline double norm_sq_as_double(const std::complex<float>& a) {
  const double re = a.real();
  const double im = a.imag();
  return re * re + im * im;
}

/// A pure n-qubit state over std::complex<Real> amplitudes.
template <typename Real>
class BasicStatevector {
 public:
  using C = std::complex<Real>;

  /// |0…0⟩ on \p num_qubits qubits.  \p chunks splits every gate sweep
  /// into that many contiguous anchor ranges on the shared pool; 0 and 1
  /// run the sweeps serially on the calling thread.  Any count gives the
  /// same bytes.
  explicit BasicStatevector(std::size_t num_qubits, std::size_t chunks = 1);

  std::size_t num_qubits() const { return num_qubits_; }
  /// The requested sweep chunk count (at least 1).
  std::size_t chunks() const { return chunks_; }
  std::uint64_t dimension() const { return std::uint64_t{1} << num_qubits_; }
  const std::vector<C>& amplitudes() const { return amplitudes_; }
  /// Mutable view of the 2^n amplitudes (length dimension()) for in-place
  /// channel kernels — the exact depolarizing channel rewrites vec(ρ)
  /// directly instead of copying the full vector out and back in.  Callers
  /// own normalization, exactly as with set_amplitudes().
  C* mutable_amplitudes() { return amplitudes_.data(); }
  C amplitude(std::uint64_t index) const;

  /// Resets to the computational basis state |index⟩.
  void set_basis_state(std::uint64_t index);

  /// Sets arbitrary amplitudes (must have length 2^n; normalized by caller
  /// or via normalize()).
  void set_amplitudes(std::vector<C> amplitudes);

  // -- gate application -------------------------------------------------------
  /// Applies a named or dense gate (with controls) from the circuit IR.
  void apply_gate(const Gate& gate);
  /// Applies every gate of a circuit, then its global phase.
  void apply_circuit(const Circuit& circuit);
  /// 2×2 matrix on \p target, conditioned on all \p controls being 1.
  void apply_single_qubit(const ComplexMatrix& u, std::size_t target,
                          const std::vector<std::size_t>& controls = {});
  /// Dense 2^m×2^m matrix over ordered targets (first = most significant
  /// local bit), conditioned on controls.
  void apply_unitary(const ComplexMatrix& u,
                     const std::vector<std::size_t>& targets,
                     const std::vector<std::size_t>& controls = {});
  /// Matrix-free operator over ordered targets (same wire convention as
  /// apply_unitary), conditioned on controls.  Sub-register blocks are
  /// gathered into packed buffers and handed to the operator in batches, so
  /// nothing quadratic in the block dimension is allocated — this is the
  /// execution path of the sparse QPE oracle.  The operator must be unitary
  /// for the state to stay normalized.
  void apply_operator(const LinearOperator& op,
                      const std::vector<std::size_t>& targets,
                      const std::vector<std::size_t>& controls = {});
  /// Executes a compiled plan (quantum/compiler.hpp), including its global
  /// phase: the fast path of the estimator — precomputed masks/offsets, no
  /// per-gate setup, scratch from this engine's buffers.  With fusion disabled
  /// the result is bit-identical to apply_circuit on the source circuit;
  /// with fusion it agrees to ~1e-12 (dense blocks reassociate the
  /// floating-point order).
  void apply_plan(const ExecutionPlan& plan);
  /// Executes one compiled op — the building block apply_plan and the noisy
  /// per-op walks share.
  void apply_plan_op(const CompiledOp& op);
  /// Multiplies the whole state by e^{iφ}.
  void apply_global_phase(double phi);

  // -- measurement ------------------------------------------------------------
  /// |amplitude|² of one basis state.
  double probability(std::uint64_t index) const;
  /// Full probability vector (length 2^n).
  std::vector<double> probabilities() const;
  /// Marginal distribution over an ordered qubit subset (MSB-first: the
  /// first listed qubit is the most significant bit of the outcome).
  std::vector<double> marginal_probabilities(
      const std::vector<std::size_t>& qubits) const;
  /// Draws \p shots outcomes over the given qubits; returns counts indexed
  /// by outcome.  Sampling is exact multinomial from the marginal.
  std::vector<std::uint64_t> sample_counts(
      const std::vector<std::size_t>& qubits, std::size_t shots,
      Rng& rng) const;

  /// Σ|amp|² (double accumulation at every precision); 1 for a normalized
  /// state.
  double norm_squared() const;
  /// Rescales to unit norm (throws on the zero vector).
  void normalize();
  /// ⟨this|other⟩, accumulated in double.
  Amplitude inner_product(const BasicStatevector& other) const;

 private:
  /// Runs sweep(lo, hi, chunk) over index ranges that split the anchors —
  /// the indices whose \p zero_bits are clear and \p one_bits set — into
  /// contiguous, equal shares: one call over [0, 2^n) for a single chunk,
  /// one shared-pool task per chunk otherwise.
  template <typename Sweep>
  void sweep_chunks(std::uint64_t zero_bits, std::uint64_t one_bits,
                    const Sweep& sweep);
  /// How many chunks sweep_chunks makes over these fixed bits.
  std::size_t active_chunks(std::uint64_t fixed_bits) const;

  /// Shared kernels: the legacy per-gate entry points and the compiled-plan
  /// path both land here, so their arithmetic cannot drift (the root of the
  /// QTDA_FUSE=0 bit-identity guarantee).  Matrices arrive pre-cast to the
  /// amplitude scalar (row-major pointers) so one kernel body serves both
  /// precisions.
  void single_qubit_kernel(C u00, C u01, C u10, C u11, std::uint64_t mask,
                           std::uint64_t cmask);
  /// Uncontrolled 4×4 block over two wires — the fused-pair workhorse: same
  /// arithmetic as block_kernel but with mask-expansion enumeration instead
  /// of the offset-table gather.  \p u is the row-major 4×4 matrix.
  void two_qubit_kernel(const C* u, std::uint64_t mask_high,
                        std::uint64_t mask_low);
  void block_kernel(const C* u, std::uint64_t tmask, std::uint64_t cmask,
                    const std::vector<std::uint64_t>& offsets);
  void diagonal_kernel(const C* table, const DiagonalExtract& extract);
  void operator_kernel(const LinearOperator& op, bool contiguous,
                       const std::vector<std::uint64_t>& offsets,
                       const std::vector<std::uint64_t>& bases);

  std::size_t num_qubits_;
  std::size_t chunks_;
  std::vector<C> amplitudes_;
  // Execution scratch, grown on first use and freed with the engine: one
  // block gather buffer and output rows per chunk, the operator batch
  // buffers, and the float engine's narrowed matrix.  The engine owns it so
  // that a plan holds no mutable buffers and an estimate's backend reuses
  // them across every trajectory it evolves.
  std::vector<C> block_scratch_;
  std::vector<C> packed_in_;
  std::vector<C> packed_out_;
  std::vector<C> matrix_scratch_;
};

/// The historical (and default) double-precision engine.
using Statevector = BasicStatevector<double>;
/// The complex64 engine: same kernels, half the bandwidth.
using StatevectorF32 = BasicStatevector<float>;

extern template class BasicStatevector<double>;
extern template class BasicStatevector<float>;

/// Multinomial sampling helper shared with the analytic backend: draws
/// \p shots outcomes from \p distribution (need not be perfectly normalized;
/// it is renormalized internally) and returns per-outcome counts.
std::vector<std::uint64_t> multinomial_sample(
    const std::vector<double>& distribution, std::size_t shots, Rng& rng);

}  // namespace qtda
