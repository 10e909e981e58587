/// \file linear_operator.hpp
/// \brief Matrix-free complex linear operators.
///
/// The sparse QPE oracle applies exp(iθΔ̃) to system sub-registers without
/// ever materializing the 2^q×2^q unitary.  This interface is the contract
/// between such operators and the simulator backends: an operator knows its
/// dimension and how to map an input block of amplitudes to an output block.
/// Batched application exists so an implementation can amortize shared setup
/// (e.g. Chebyshev coefficients) and parallelize across blocks itself,
/// avoiding nested use of the shared thread pool.
#pragma once

#include <complex>
#include <cstddef>
#include <string>
#include <unordered_set>
#include <vector>

#include "linalg/dense_matrix.hpp"

namespace qtda {

/// A linear map C^d → C^d applied out-of-place to amplitude blocks.
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  /// Block dimension d (a power of two when used as a sub-register oracle).
  virtual std::size_t dimension() const = 0;

  /// Short diagnostic name ("dense", "chebyshev-exp", …).
  virtual std::string name() const = 0;

  /// Bytes this operator holds, for byte-budgeted caches.  Storage that
  /// several operators share is charged only by the one that first enters
  /// its address into \p counted, so the t powers of a QPE ladder charge
  /// their common matrix once.  The default holds nothing.
  virtual std::size_t memory_bytes(
      std::unordered_set<const void*>& counted) const {
    (void)counted;
    return 0;
  }

  /// y = Op·x.  \p x and \p y are length-dimension() buffers that do not
  /// alias.  Must be safe to call concurrently from several threads.
  virtual void apply(const std::complex<double>* x,
                     std::complex<double>* y) const = 0;

  /// Applies the operator to \p count consecutive blocks (x and y hold
  /// count·dimension() scalars).  The default loops over apply(); heavy
  /// operators override this to share setup and parallelize across blocks.
  virtual void apply_batch(const std::complex<double>* x,
                           std::complex<double>* y, std::size_t count) const {
    const std::size_t d = dimension();
    for (std::size_t b = 0; b < count; ++b)
      apply(x + b * d, y + b * d);
  }

  /// complex64 batch rail for the float-precision engines.  The default
  /// widens to double, runs apply_batch, and narrows back — correct for any
  /// operator at the cost of a transient double buffer (the accuracy is set
  /// by the float endpoints either way).  Operators with a profitable native
  /// float path (the Chebyshev oracle) override this.
  virtual void apply_batch_f32(const std::complex<float>* x,
                               std::complex<float>* y,
                               std::size_t count) const {
    const std::size_t total = count * dimension();
    std::vector<std::complex<double>> wide_x(total);
    std::vector<std::complex<double>> wide_y(total);
    for (std::size_t i = 0; i < total; ++i)
      wide_x[i] = std::complex<double>(x[i].real(), x[i].imag());
    apply_batch(wide_x.data(), wide_y.data(), count);
    for (std::size_t i = 0; i < total; ++i)
      y[i] = std::complex<float>(static_cast<float>(wide_y[i].real()),
                                 static_cast<float>(wide_y[i].imag()));
  }
};

/// Adapter presenting a dense matrix as a LinearOperator (reference
/// implementation used by tests to validate matrix-free paths).
class DenseOperator final : public LinearOperator {
 public:
  explicit DenseOperator(ComplexMatrix matrix) : matrix_(std::move(matrix)) {
    QTDA_REQUIRE(matrix_.is_square() && matrix_.rows() > 0,
                 "DenseOperator needs a non-empty square matrix");
  }

  std::size_t dimension() const override { return matrix_.rows(); }
  std::string name() const override { return "dense"; }
  std::size_t memory_bytes(
      std::unordered_set<const void*>& /*counted*/) const override {
    return sizeof(*this) +
           matrix_.rows() * matrix_.cols() * sizeof(std::complex<double>);
  }

  void apply(const std::complex<double>* x,
             std::complex<double>* y) const override {
    const std::size_t n = matrix_.rows();
    for (std::size_t r = 0; r < n; ++r) {
      std::complex<double> acc{};
      const std::complex<double>* row = matrix_.row(r);
      for (std::size_t c = 0; c < n; ++c) acc += row[c] * x[c];
      y[r] = acc;
    }
  }

 private:
  ComplexMatrix matrix_;
};

/// Adapter applying the entrywise complex conjugate of a wrapped operator:
/// y = conj(Op · conj(x)), i.e. the action of the matrix conj(Op).
///
/// This is the column-register half of vectorized density-matrix evolution:
/// vec(UρU†) = (U ⊗ conj(U))·vec(ρ), so an exact-channel engine can run any
/// matrix-free oracle on the column wires by wrapping it here — the inner
/// operator is applied verbatim with its input and output conjugated, no
/// matrix is ever formed.
class ConjugatedOperator final : public LinearOperator {
 public:
  /// Non-owning borrow for call-scoped wrapping: \p inner must outlive this
  /// adapter (the density-matrix engine builds one per application).
  explicit ConjugatedOperator(const LinearOperator& inner) : inner_(&inner) {}

  std::size_t dimension() const override { return inner_->dimension(); }
  std::string name() const override { return "conj(" + inner_->name() + ")"; }

  void apply(const std::complex<double>* x,
             std::complex<double>* y) const override {
    // Local scratch keeps apply() safe for concurrent callers, matching the
    // thread-safety contract of the wrapped operator.
    std::vector<std::complex<double>> conj_x(dimension());
    for (std::size_t i = 0; i < conj_x.size(); ++i) conj_x[i] = std::conj(x[i]);
    inner_->apply(conj_x.data(), y);
    for (std::size_t i = 0; i < conj_x.size(); ++i) y[i] = std::conj(y[i]);
  }

  void apply_batch(const std::complex<double>* x, std::complex<double>* y,
                   std::size_t count) const override {
    // Conjugate the whole batch so the inner operator keeps its cross-block
    // amortization (shared coefficients, block-level parallelism).
    const std::size_t total = count * dimension();
    std::vector<std::complex<double>> conj_x(total);
    for (std::size_t i = 0; i < total; ++i) conj_x[i] = std::conj(x[i]);
    inner_->apply_batch(conj_x.data(), y, count);
    for (std::size_t i = 0; i < total; ++i) y[i] = std::conj(y[i]);
  }

  /// Conjugation commutes with precision: conjugate the float batch and hand
  /// it to the inner operator's float rail (keeping a native inner float
  /// path native instead of widening around it).
  void apply_batch_f32(const std::complex<float>* x, std::complex<float>* y,
                       std::size_t count) const override {
    const std::size_t total = count * dimension();
    std::vector<std::complex<float>> conj_x(total);
    for (std::size_t i = 0; i < total; ++i) conj_x[i] = std::conj(x[i]);
    inner_->apply_batch_f32(conj_x.data(), y, count);
    for (std::size_t i = 0; i < total; ++i) y[i] = std::conj(y[i]);
  }

  const LinearOperator& inner() const { return *inner_; }

 private:
  const LinearOperator* inner_;
};

}  // namespace qtda
