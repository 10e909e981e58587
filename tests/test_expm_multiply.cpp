// Tests for linalg/expm_multiply.hpp: the Chebyshev exp(iθA)·x action
// against the dense eigendecomposition reference.
#include "linalg/expm_multiply.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/random.hpp"
#include "linalg/gershgorin.hpp"
#include "linalg/matrix_exp.hpp"

namespace qtda {
namespace {

/// Random sparse symmetric PSD matrix BᵀB from a sparse random B.
SparseMatrix random_sparse_psd(std::size_t n, Rng& rng) {
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i < n; ++i)
    for (int e = 0; e < 3; ++e)
      triplets.push_back(
          {i, static_cast<std::size_t>(rng.uniform_index(n)),
           rng.uniform() * 2.0 - 1.0});
  return SparseMatrix::from_triplets(n, n, std::move(triplets)).gram_sparse();
}

ComplexVector random_state(std::size_t n, Rng& rng) {
  ComplexVector x(n);
  for (auto& v : x)
    v = {rng.uniform() * 2.0 - 1.0, rng.uniform() * 2.0 - 1.0};
  return x;
}

/// Dense reference y = e^{iθA}·x via the eigendecomposition oracle.
ComplexVector dense_exp_apply(const RealMatrix& a, double theta,
                              const ComplexVector& x) {
  const ComplexMatrix u = unitary_exp(a, theta);
  ComplexVector y(x.size());
  for (std::size_t r = 0; r < x.size(); ++r) {
    std::complex<double> acc{};
    for (std::size_t c = 0; c < x.size(); ++c) acc += u(r, c) * x[c];
    y[r] = acc;
  }
  return y;
}

double max_abs_diff(const ComplexVector& a, const ComplexVector& b) {
  double err = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    err = std::max(err, std::abs(a[i] - b[i]));
  return err;
}

TEST(BesselSequence, MatchesKnownValues) {
  // Abramowitz & Stegun reference values at z = 1 and z = 5.
  const auto j1 = bessel_j_sequence(2, 1.0);
  EXPECT_NEAR(j1[0], 0.7651976865579666, 1e-12);
  EXPECT_NEAR(j1[1], 0.4400505857449335, 1e-12);
  EXPECT_NEAR(j1[2], 0.1149034849319005, 1e-12);
  const auto j5 = bessel_j_sequence(3, 5.0);
  EXPECT_NEAR(j5[0], -0.1775967713143383, 1e-12);
  EXPECT_NEAR(j5[1], -0.3275791375914652, 1e-12);
  EXPECT_NEAR(j5[3], 0.3648312306136620, 1e-12);
}

TEST(BesselSequence, ZeroArgumentIsKroneckerDelta) {
  const auto j = bessel_j_sequence(4, 0.0);
  EXPECT_DOUBLE_EQ(j[0], 1.0);
  for (std::size_t k = 1; k <= 4; ++k) EXPECT_DOUBLE_EQ(j[k], 0.0);
}

TEST(ExpmMultiply, MatchesDenseExponentialOnRandomMatrices) {
  Rng rng(31);
  for (std::size_t n : {8u, 21u, 64u}) {
    const SparseMatrix a = random_sparse_psd(n, rng);
    const RealMatrix ad = a.to_dense();
    const double lmax = gershgorin_max(a);
    const double lmin = gershgorin_min(a);
    const ComplexVector x = random_state(n, rng);
    for (double theta : {0.3, 1.0, 7.5}) {
      const ComplexVector y = expm_multiply(a, theta, x, lmin, lmax);
      EXPECT_LT(max_abs_diff(y, dense_exp_apply(ad, theta, x)), 1e-9)
          << "n=" << n << " theta=" << theta;
    }
  }
}

TEST(ExpmMultiply, AccurateAtLargeQpePowers) {
  // QPE needs θ = 2^{t−1}; a truncated Taylor series would have lost all
  // precision here, the Chebyshev expansion must not.
  Rng rng(47);
  const SparseMatrix a = random_sparse_psd(32, rng);
  const RealMatrix ad = a.to_dense();
  const double lmax = gershgorin_max(a);
  const double lmin = gershgorin_min(a);
  const ComplexVector x = random_state(32, rng);
  for (double theta : {32.0, 128.0}) {
    const ComplexVector y = expm_multiply(a, theta, x, lmin, lmax);
    EXPECT_LT(max_abs_diff(y, dense_exp_apply(ad, theta, x)), 1e-8)
        << "theta=" << theta;
  }
}

TEST(ExpmMultiply, NegativeThetaIsInverse) {
  Rng rng(53);
  const SparseMatrix a = random_sparse_psd(16, rng);
  const double lmax = gershgorin_max(a);
  const double lmin = gershgorin_min(a);
  const ComplexVector x = random_state(16, rng);
  const ComplexVector fwd = expm_multiply(a, 2.0, x, lmin, lmax);
  const ComplexVector back = expm_multiply(a, -2.0, fwd, lmin, lmax);
  EXPECT_LT(max_abs_diff(back, x), 1e-10);
}

TEST(SparseExpOperator, PreservesNormAndBatches) {
  Rng rng(61);
  const SparseMatrix a = random_sparse_psd(16, rng);
  const SparseExpOperator op(a, 4.0, gershgorin_min(a), gershgorin_max(a));
  EXPECT_EQ(op.dimension(), 16u);
  EXPECT_GT(op.num_terms(), 1u);

  // Unitarity: ‖e^{iθA}x‖ = ‖x‖.
  const ComplexVector x = random_state(16, rng);
  ComplexVector y(16);
  op.apply(x.data(), y.data());
  double nx = 0.0, ny = 0.0;
  for (std::size_t i = 0; i < 16; ++i) {
    nx += std::norm(x[i]);
    ny += std::norm(y[i]);
  }
  EXPECT_NEAR(nx, ny, 1e-10);

  // apply_batch over packed blocks equals per-block apply.
  const std::size_t count = 7;
  ComplexVector packed(16 * count), batch_out(16 * count), one(16);
  for (auto& v : packed)
    v = {rng.uniform() * 2.0 - 1.0, rng.uniform() * 2.0 - 1.0};
  op.apply_batch(packed.data(), batch_out.data(), count);
  for (std::size_t b = 0; b < count; ++b) {
    op.apply(packed.data() + b * 16, one.data());
    for (std::size_t i = 0; i < 16; ++i)
      EXPECT_NEAR(std::abs(one[i] - batch_out[b * 16 + i]), 0.0, 1e-12);
  }
}

TEST(SparseExpOperator, LadderSharesCoefficientSetup) {
  // The QPE ladder's coefficient vectors are a pure function of
  // (θ·half-width, θ·center, tolerance): rebuilding an operator with the
  // same setup — as every shot batch, trajectory and estimate does — must
  // reuse the cached derivation, not rerun the Bessel recurrence.
  const SparseMatrix h = SparseMatrix::from_triplets(
      4, 4, {{0, 0, 1.0}, {1, 1, 2.0}, {2, 2, 3.0}, {3, 3, 1.5}});
  const SparseExpOperator first(h, 4.0, 0.0, 6.0);
  const SparseExpOperator rebuilt(h, 4.0, 0.0, 6.0);
  EXPECT_EQ(first.coefficients(), rebuilt.coefficients());  // same object

  // Distinct powers of the ladder have distinct coefficient vectors...
  const SparseExpOperator other_power(h, 8.0, 0.0, 6.0);
  EXPECT_NE(first.coefficients(), other_power.coefficients());
  // ...but an equivalent setup reached through different (θ, bounds) with
  // equal θh and θc shares: exp(i·2θ·A) over [0, λ] ≡ exp(i·θ·A') over
  // [0, 2λ].
  const SparseExpOperator equivalent(h, 2.0, 0.0, 12.0);
  EXPECT_EQ(first.coefficients(), equivalent.coefficients());
}

// ------------------------------------------------ tiled kernel bit-exactness

/// The single-block Chebyshev recurrence in plain std::complex arithmetic:
/// scalar CSR row dots from zero, T_1 = (A·x − c·x)/h, then
/// T_k = 2(A·T_{k−1} − c·T_{k−1})/h − T_{k−2} with y += a_k·T_k.  apply_batch
/// must reproduce it bit for bit on every block, whatever the batch size,
/// tiling, pool split or SIMD level.  The float rail narrows the values, the
/// coefficients, c and h first, as the operator does.
template <typename Real>
std::vector<std::complex<Real>> reference_blocks(
    const SparseMatrix& a, const SparseExpOperator& op, double lambda_min,
    double lambda_max, const std::vector<std::complex<Real>>& x) {
  using C = std::complex<Real>;
  const std::size_t n = a.rows();
  const std::vector<Real> vals(a.values().begin(), a.values().end());
  std::vector<C> coeff;
  for (const std::complex<double>& c : *op.coefficients())
    coeff.emplace_back(static_cast<Real>(c.real()),
                       static_cast<Real>(c.imag()));
  const Real center = static_cast<Real>(0.5 * (lambda_max + lambda_min));
  const Real inv_h =
      Real{1} / static_cast<Real>(0.5 * (lambda_max - lambda_min));
  const auto matvec = [&](const C* in, C* out) {
    for (std::size_t r = 0; r < n; ++r) {
      C acc{};
      for (std::size_t k = a.row_offsets()[r]; k < a.row_offsets()[r + 1];
           ++k)
        acc += vals[k] * in[a.col_indices()[k]];
      out[r] = acc;
    }
  };
  std::vector<C> y(x.size());
  for (std::size_t b = 0; b < x.size() / n; ++b) {
    const C* xb = x.data() + b * n;
    C* yb = y.data() + b * n;
    for (std::size_t i = 0; i < n; ++i) yb[i] = coeff[0] * xb[i];
    if (coeff.size() == 1) continue;
    std::vector<C> t_prev(xb, xb + n), t_cur(n), scratch(n);
    matvec(xb, t_cur.data());
    for (std::size_t i = 0; i < n; ++i)
      t_cur[i] = (t_cur[i] - center * xb[i]) * inv_h;
    for (std::size_t i = 0; i < n; ++i) yb[i] += coeff[1] * t_cur[i];
    for (std::size_t k = 2; k < coeff.size(); ++k) {
      matvec(t_cur.data(), scratch.data());
      for (std::size_t i = 0; i < n; ++i) {
        const C next =
            Real{2} * (scratch[i] - center * t_cur[i]) * inv_h - t_prev[i];
        t_prev[i] = next;
        yb[i] += coeff[k] * next;
      }
      t_prev.swap(t_cur);
    }
  }
  return y;
}

std::uint64_t raw_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

std::uint32_t raw_bits(float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

void run_batch(const SparseExpOperator& op,
               const std::vector<std::complex<double>>& x,
               std::vector<std::complex<double>>& y, std::size_t count) {
  op.apply_batch(x.data(), y.data(), count);
}

void run_batch(const SparseExpOperator& op,
               const std::vector<std::complex<float>>& x,
               std::vector<std::complex<float>>& y, std::size_t count) {
  op.apply_batch_f32(x.data(), y.data(), count);
}

/// apply_batch over the blocks of \p x equals reference_blocks in every bit
/// of every amplitude, signed zeros included.
template <typename Real>
void expect_matches_reference(const SparseMatrix& a, double theta,
                              double lambda_min, double lambda_max,
                              const std::vector<std::complex<Real>>& x) {
  const SparseExpOperator op(a, theta, lambda_min, lambda_max);
  const std::size_t count = x.size() / a.rows();
  std::vector<std::complex<Real>> y(x.size());
  run_batch(op, x, y, count);
  const std::vector<std::complex<Real>> expected =
      reference_blocks(a, op, lambda_min, lambda_max, x);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < y.size(); ++i)
    if (raw_bits(y[i].real()) != raw_bits(expected[i].real()) ||
        raw_bits(y[i].imag()) != raw_bits(expected[i].imag()))
      ++mismatches;
  EXPECT_EQ(mismatches, 0u)
      << "d=" << a.rows() << " count=" << count << " terms=" << op.num_terms()
      << " simd=" << simd_level_name(active_simd_level());
}

/// expect_matches_reference on `count` random blocks.
template <typename Real>
void expect_batch_bit_exact(const SparseMatrix& a, double theta,
                            double lambda_min, double lambda_max,
                            std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::complex<Real>> x(a.rows() * count);
  for (auto& v : x)
    v = {static_cast<Real>(rng.uniform() * 2.0 - 1.0),
         static_cast<Real>(rng.uniform() * 2.0 - 1.0)};
  expect_matches_reference(a, theta, lambda_min, lambda_max, x);
}

template <typename Real>
void expect_batch_shapes_bit_exact() {
  Rng rng(71);
  for (std::size_t d : {1u, 4u, 8u, 128u}) {
    const SparseMatrix a = d == 1
                               ? SparseMatrix::from_triplets(1, 1, {{0, 0, 0.7}})
                               : random_sparse_psd(d, rng);
    const double lmin = d == 1 ? 0.0 : gershgorin_min(a);
    const double lmax = gershgorin_max(a);
    // One tile holds 2^10 amplitudes: straddle it on both sides.
    const std::size_t tile = 1024 / d;
    for (std::size_t count : {std::size_t{2}, tile - 1, tile + 1})
      expect_batch_bit_exact<Real>(a, 3.0, lmin, lmax, count, d + count);
  }
}

TEST(SparseExpKernel, BatchShapesMatchScalarRecurrenceBitForBit) {
  expect_batch_shapes_bit_exact<double>();
}

TEST(SparseExpKernel, FloatRailMatchesScalarRecurrenceBitForBit) {
  expect_batch_shapes_bit_exact<float>();
}

TEST(SparseExpKernel, PoolSplitBatchMatchesScalarRecurrenceBitForBit) {
  // d = 8 at θ = 16 over 512 blocks is far above the serial-work gate, so
  // the tiles spread over the shared pool.
  Rng rng(73);
  const SparseMatrix a = random_sparse_psd(8, rng);
  expect_batch_bit_exact<double>(a, 16.0, gershgorin_min(a), gershgorin_max(a),
                                 512, 5);
  expect_batch_bit_exact<float>(a, 16.0, gershgorin_min(a), gershgorin_max(a),
                                512, 6);
}

TEST(SparseExpKernel, OneTermOperatorIsAPhase) {
  // λmin = λmax ⇒ h = 0 ⇒ e^{iθA} = e^{iθc}·I, a single coefficient.
  Rng rng(79);
  const SparseMatrix a = random_sparse_psd(8, rng);
  const SparseExpOperator op(a, 2.0, 1.5, 1.5);
  EXPECT_EQ(op.num_terms(), 1u);
  expect_batch_bit_exact<double>(a, 2.0, 1.5, 1.5, 1, 9);
  expect_batch_bit_exact<double>(a, 2.0, 1.5, 1.5, 33, 10);
  expect_batch_bit_exact<float>(a, 2.0, 1.5, 1.5, 33, 11);
}

TEST(SparseExpKernel, SingleLargeBlockRowSplitMatchesSerialRecurrence) {
  // count = 1 with d above the 4096-row split threshold: each term's rows
  // run across the shared pool and must still equal the serial recurrence.
  Rng rng(83);
  const SparseMatrix a = random_sparse_psd(5000, rng);
  expect_batch_bit_exact<double>(a, 2.0, gershgorin_min(a), gershgorin_max(a),
                                 1, 12);
  expect_batch_bit_exact<float>(a, 2.0, gershgorin_min(a), gershgorin_max(a),
                                1, 13);
}

/// A PSD matrix that is block-diagonal up to a permutation: random blocks
/// of the given sizes with their rows dealt over the whole index range, and
/// one stored zero between the first two blocks (an entry that underflows
/// when the matrix is scaled down and back up).
SparseMatrix scattered_blocks(const std::vector<std::size_t>& sizes,
                              Rng& rng) {
  std::size_t n = 0;
  for (const std::size_t size : sizes) n += size;
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n - 1; i > 0; --i)
    std::swap(order[i], order[rng.uniform_index(i + 1)]);
  std::vector<Triplet> triplets;
  std::size_t first = 0;
  for (const std::size_t size : sizes) {
    const SparseMatrix block =
        size == 1 ? SparseMatrix::from_triplets(1, 1, {{0, 0, 0.5}})
                  : random_sparse_psd(size, rng);
    for (std::size_t r = 0; r < size; ++r)
      for (std::size_t k = block.row_offsets()[r];
           k < block.row_offsets()[r + 1]; ++k)
        triplets.push_back({order[first + r],
                            order[first + block.col_indices()[k]],
                            block.values()[k]});
    first += size;
  }
  triplets.push_back({order[0], order[sizes[0]], 1e-200});
  triplets.push_back({order[sizes[0]], order[0], 1e-200});
  return SparseMatrix::from_triplets(n, n, std::move(triplets))
      .scaled(1e-200)
      .scaled(1e200);
}

/// `count` blocks of dimension n whose support is mixed: each block is
/// live on some components and exactly zero, of random sign, on the rest.
/// Block 0 is zero everywhere and block 1 live everywhere.  One live
/// element in five is a signed zero too, so a live slice may start with
/// zeros.
template <typename Real>
std::vector<std::complex<Real>> mixed_support_blocks(
    const ConnectedComponents& components, std::size_t count, Rng& rng) {
  const std::size_t n = components.vertices();
  std::vector<std::complex<Real>> x(n * count);
  for (std::size_t b = 0; b < count; ++b) {
    std::vector<bool> live(components.components());
    for (std::size_t c = 0; c < live.size(); ++c)
      live[c] = b == 1 || (b != 0 && rng.uniform() < 0.3);
    for (std::size_t i = 0; i < n; ++i) {
      const auto part = [&] {
        if (live[components.component_of[i]] && rng.uniform() >= 0.2)
          return static_cast<Real>(rng.uniform() * 2.0 - 1.0);
        return rng.uniform() < 0.5 ? -Real{0} : Real{0};
      };
      const Real re = part();
      x[b * n + i] = {re, part()};
    }
  }
  return x;
}

template <typename Real>
void expect_block_diagonal_bit_exact() {
  Rng rng(89);
  const SparseMatrix a = scattered_blocks({1, 3, 12, 40, 72}, rng);
  const ConnectedComponents components = sparsity_components(a);
  ASSERT_GE(components.components(), 5u);
  std::size_t stored_zeros = 0;
  for (const double v : a.values()) stored_zeros += v == 0.0 ? 1 : 0;
  ASSERT_EQ(stored_zeros, 2u);
  const double lmin = gershgorin_min(a);
  const double lmax = gershgorin_max(a);
  // 3 blocks run serially; 300 cross the tile and the serial-work gate.
  for (const std::size_t count : {std::size_t{3}, std::size_t{300}}) {
    expect_matches_reference(
        a, 16.0, lmin, lmax, mixed_support_blocks<Real>(components, count, rng));
  }
  // A long expansion adds enough signed-zero terms that a zero input's
  // output is +0 whatever its sign.  Short ones keep the sign, so the
  // zero-slice table must be keyed by it: θ = 10^-3 keeps 4 terms, and
  // λmin = λmax leaves the single phase term a_0·x.
  expect_matches_reference(a, 1e-3, lmin, lmax,
                           mixed_support_blocks<Real>(components, 300, rng));
  expect_matches_reference(a, 2.0, 1.5, 1.5,
                           mixed_support_blocks<Real>(components, 300, rng));
}

TEST(SparseExpKernel, BlockDiagonalMixedSupportMatchesWholeMatrixRecurrence) {
  expect_block_diagonal_bit_exact<double>();
}

TEST(SparseExpKernel, FloatRailBlockDiagonalMatchesWholeMatrixRecurrence) {
  expect_block_diagonal_bit_exact<float>();
}

template <typename Real>
void expect_block_alone_equals_block_in_batch() {
  Rng rng(97);
  const SparseMatrix a = scattered_blocks({2, 9, 30, 87}, rng);
  const SparseExpOperator op(a, 8.0, gershgorin_min(a), gershgorin_max(a));
  const std::size_t n = a.rows();
  const std::size_t count = 200;
  const std::vector<std::complex<Real>> x =
      mixed_support_blocks<Real>(sparsity_components(a), count, rng);
  std::vector<std::complex<Real>> y(x.size());
  run_batch(op, x, y, count);
  std::size_t differing = 0;
  for (std::size_t b = 0; b < count; ++b) {
    const std::vector<std::complex<Real>> xb(x.begin() + b * n,
                                             x.begin() + (b + 1) * n);
    std::vector<std::complex<Real>> yb(n);
    run_batch(op, xb, yb, 1);
    if (std::memcmp(yb.data(), y.data() + b * n, n * sizeof(yb[0])) != 0)
      ++differing;
  }
  EXPECT_EQ(differing, 0u) << "simd=" << simd_level_name(active_simd_level());
}

TEST(SparseExpKernel, BlockAloneEqualsBlockInMixedSupportBatch) {
  expect_block_alone_equals_block_in_batch<double>();
}

TEST(SparseExpKernel, FloatRailBlockAloneEqualsBlockInMixedSupportBatch) {
  expect_block_alone_equals_block_in_batch<float>();
}

TEST(ExpmMultiply, RejectsBadShapes) {
  const SparseMatrix rect(3, 4);
  EXPECT_THROW(expm_multiply(rect, 1.0, ComplexVector(4), 0.0, 1.0), Error);
  const SparseMatrix square =
      SparseMatrix::from_triplets(2, 2, {{0, 0, 1.0}, {1, 1, 1.0}});
  EXPECT_THROW(expm_multiply(square, 1.0, ComplexVector(3), 0.0, 1.0), Error);
  EXPECT_THROW(SparseExpOperator(square, 1.0, /*lambda_min=*/2.0,
                                 /*lambda_max=*/1.0),
               Error);
}

}  // namespace
}  // namespace qtda
