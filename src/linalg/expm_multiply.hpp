/// \file expm_multiply.hpp
/// \brief Matrix-free action of exp(iθA) on a vector (Chebyshev expansion).
///
/// The sparse QPE oracle needs y = e^{iθΔ̃}·x for the scaled Laplacian Δ̃
/// without forming the 2^q×2^q unitary.  With the spectrum of A inside
/// [λmin, λmax], substitute A = c·I + h·B (c the center, h the half-width,
/// so spec(B) ⊆ [−1, 1]) and use the Jacobi–Anger expansion
///
///   e^{iθA} = e^{iθc} · Σ_k (2 − δ_{k0}) i^k J_k(θh) T_k(B),
///
/// where J_k are Bessel functions of the first kind and T_k Chebyshev
/// polynomials.  |J_k(z)| decays superexponentially for k > |z|, so ~|θh| +
/// O(|θh|^{1/3}) sparse matvecs give full double precision — unlike a
/// truncated Taylor series, whose huge alternating terms cancel
/// catastrophically at the θ ≈ 2^t·λmax values QPE needs.  The three-term
/// Chebyshev recurrence T_{k+1} = 2B·T_k − T_{k−1} costs one matvec per
/// term and three vectors of workspace; nothing quadratic in the dimension
/// is ever allocated.
///
/// **Per component.**  Padded Laplacians are block-diagonal up to a
/// permutation, and e^{iθA} never mixes the connected components of A's
/// sparsity graph.  The operator regroups A's CSR by component once
/// (ComponentCsr) and runs the recurrence on each (block, component) slice
/// of its input separately, so a matvec row only streams its own
/// component.  A slice whose input is all exactly zero is not run at all:
/// in the full recurrence every row dot of such a slice is +0, so T_k = +0
/// for k ≥ 1 and each output element is a fixed function of its input's
/// two sign bits, read from a 4-entry table built with the recurrence's own
/// operations.  In the purified QPE register the slab of ancilla value a
/// starts as e_a and stays on a's component, so most slices are skipped.
/// Either way every output byte equals the whole-matrix recurrence's, for
/// any finite input.  A connected A is one component.
#pragma once

#include <array>
#include <complex>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "linalg/linear_operator.hpp"
#include "linalg/sparse_matrix.hpp"

namespace qtda {

/// Tuning knobs of the Chebyshev expansion.
struct ExpmOptions {
  /// Coefficients below this magnitude are truncated; 1e-13 keeps the
  /// oracle bit-comparable to the dense eigendecomposition path.
  double tolerance = 1e-13;
};

/// Bessel functions J_0..J_n at z ≥ 0 via Miller's downward recurrence
/// (self-contained: libc++ lacks std::cyl_bessel_j).  Exposed for tests.
std::vector<double> bessel_j_sequence(std::size_t n, double z);

/// Counters of the process-wide Chebyshev/Bessel coefficient memo shared by
/// every SparseExpOperator.  The memo is LRU-bounded (a long-running daemon
/// must not leak one entry per distinct θ it ever served), and these
/// counters are how the serving layer's stats surface reports its health.
struct ExpmCoefficientCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t entries = 0;  ///< currently resident coefficient vectors
};

/// Snapshot of the memo counters (thread-safe).
ExpmCoefficientCacheStats expm_coefficient_cache_stats();

/// Empties the memo and zeroes the counters (tests and cold-cache benches;
/// outstanding shared_ptr holders keep their coefficient vectors alive).
void expm_coefficient_cache_clear();

/// One-shot y = exp(i·theta·A)·x for symmetric A with spectrum inside
/// [lambda_min, lambda_max] (bounds need not be tight — Gershgorin is fine).
ComplexVector expm_multiply(const SparseMatrix& a, double theta,
                            const ComplexVector& x, double lambda_min,
                            double lambda_max, const ExpmOptions& options = {});

/// A square matrix's CSR regrouped by the connected components of its
/// sparsity graph (sparsity_components).  Component c owns the regrouped
/// rows [begin[c], begin[c + 1]), which are the original rows members[i] in
/// ascending order; their entries keep their original order and address
/// component-local columns.  Entries between components can only be stored
/// zeros, and are dropped.  One layout serves every controlled power of a
/// QPE ladder.
struct ComponentCsr {
  explicit ComponentCsr(const SparseMatrix& a);

  std::size_t dimension() const { return members.size(); }
  std::size_t components() const { return begin.size() - 1; }
  /// Bytes of the layout and its entries.
  std::size_t memory_bytes() const;

  std::vector<std::size_t> members;  ///< original row of regrouped row i
  std::vector<std::size_t> begin;    ///< component c: rows [begin[c], begin[c+1])
  std::vector<std::size_t> offsets;  ///< row i: entries [offsets[i], offsets[i+1])
  std::vector<std::size_t> cols;     ///< component-local column of each entry
  std::vector<double> values;
};

/// The exp(i·theta·A) action packaged as a reusable LinearOperator: the
/// Chebyshev coefficients and A's component layout are computed once at
/// construction, then every apply() costs at most num_terms() sparse
/// matvecs.  This is the matrix-free QPE oracle U^p = exp(i·p·H) (construct
/// with theta = p).
class SparseExpOperator final : public LinearOperator {
 public:
  /// \p a must be symmetric with spectrum inside [lambda_min, lambda_max].
  SparseExpOperator(const SparseMatrix& a, double theta, double lambda_min,
                    double lambda_max, const ExpmOptions& options = {});

  /// Shared-layout overload: the t controlled powers of one QPE circuit all
  /// exponentiate the same Hamiltonian, so they share one regrouped CSR
  /// instead of duplicating it per power (the matrix dominates memory at
  /// large q).
  SparseExpOperator(std::shared_ptr<const ComponentCsr> a, double theta,
                    double lambda_min, double lambda_max,
                    const ExpmOptions& options = {});

  std::size_t dimension() const override { return a_->dimension(); }
  std::string name() const override { return "chebyshev-exp"; }
  /// Own bytes plus, once per \p counted, the shared CSR and coefficient
  /// vector.  The float mirrors count as if already built, so the charge
  /// does not change when a float engine first runs the operator.
  std::size_t memory_bytes(
      std::unordered_set<const void*>& counted) const override;

  void apply(const std::complex<double>* x,
             std::complex<double>* y) const override;

  /// Runs each connected component of A over the blocks separately: a
  /// (block, component) slice whose input is all exactly zero gets its
  /// output from the zero-slice table; the rest are gathered, component by
  /// component, into tiles of about 2^10 amplitudes (block index innermost)
  /// that advance through one fused Chebyshev recurrence.  Small batches
  /// run on the calling thread; larger ones spread (component, block range)
  /// units over the shared pool, and a single large component of a single
  /// block splits its rows.  Every element gets the scalar whole-matrix
  /// single-block arithmetic in its order, so the output bytes are
  /// independent of the components, the skipping, the batching and the
  /// SIMD level (for finite input).
  void apply_batch(const std::complex<double>* x, std::complex<double>* y,
                   std::size_t count) const override;

  /// Native complex64 rail: the whole recurrence — CSR values, Chebyshev
  /// coefficients, workspace — runs in float, halving the memory traffic of
  /// every matvec instead of widening around the default rail.  The float
  /// mirrors of the values and coefficients are narrowed once, lazily.
  void apply_batch_f32(const std::complex<float>* x, std::complex<float>* y,
                       std::size_t count) const override;

  /// Number of retained expansion terms (matvecs per application).
  std::size_t num_terms() const { return coefficients_->size(); }

  double theta() const { return theta_; }

  /// The shared coefficient vector — exposed so tests can assert that equal
  /// setups (the 2^j ladder rebuilt across shots/trajectories/estimates)
  /// share one computation instead of rederiving Bessel sequences.
  std::shared_ptr<const std::vector<std::complex<double>>> coefficients()
      const {
    return coefficients_;
  }

 private:
  /// Builds values_f32_, coefficients_f32_ and zero_outputs_f32_ on first
  /// float application.
  void ensure_f32() const;

  std::shared_ptr<const ComponentCsr> a_;
  double theta_ = 0.0;
  double center_ = 0.0;      ///< spectral center c
  double half_width_ = 0.0;  ///< spectral half-width h (0 ⇒ A = c·I)
  /// a_k = (2 − δ_{k0}) i^k J_k(θh) · e^{iθc}, truncated at tolerance.
  /// Shared through a process-wide memo: the coefficients depend only on
  /// (z = θh, φ = θc, tolerance), so every controlled power of the QPE
  /// ladder — and every rebuild of the same ladder — reuses one setup.
  std::shared_ptr<const std::vector<std::complex<double>>> coefficients_;
  /// Output of one element of an all-zero slice, indexed by its input's
  /// sign bits (2·signbit(re) + signbit(im)).
  std::array<std::complex<double>, 4> zero_outputs_{};
  /// Narrowed mirrors for the float rail (values in a_'s order).  Built
  /// under call_once: apply_batch_f32 must stay safe for concurrent callers.
  mutable std::once_flag f32_once_;
  mutable std::vector<float> values_f32_;
  mutable std::vector<std::complex<float>> coefficients_f32_;
  mutable std::array<std::complex<float>, 4> zero_outputs_f32_{};
};

}  // namespace qtda
