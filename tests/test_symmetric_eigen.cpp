// Tests for the block lock-step Jacobi kernel in linalg/symmetric_eigen.hpp:
// the sparse overload must equal the dense overload on to_dense() bit for
// bit, and both must equal a plain dense sweep of the whole matrix — the
// loop every entry point ran before blocks — in values, vectors and sweep
// count.
#include "linalg/symmetric_eigen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "core/betti_estimator.hpp"
#include "linalg/sparse_matrix.hpp"
#include "takens_fixture.hpp"
#include "topology/laplacian.hpp"
#include "topology/random_complex.hpp"

namespace qtda {
namespace {

using testing::takens_hamiltonian;
using testing::takens_laplacian;
using testing::takens_windows;

/// A plain cyclic Jacobi sweep of the whole dense matrix, with the same
/// convergence test and result ordering: the kernel's bit-identity oracle.
SymmetricEigenResult whole_matrix_jacobi(const RealMatrix& input,
                                         const JacobiOptions& options = {}) {
  RealMatrix a = input;
  const std::size_t n = a.rows();
  RealMatrix v = RealMatrix::identity(n);
  const auto off_diagonal_norm_sq = [&a, n] {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        if (i != j) s += a(i, j) * a(i, j);
    return s;
  };
  double frob_sq = 0.0;
  for (std::size_t i = 0; i < input.size(); ++i)
    frob_sq += input.data()[i] * input.data()[i];
  const double frob = std::sqrt(frob_sq);
  const double threshold_sq =
      options.tolerance * options.tolerance * std::max(frob * frob, 1e-300);

  SymmetricEigenResult result;
  for (result.sweeps = 0; n > 1 && result.sweeps < options.max_sweeps;
       ++result.sweeps) {
    if (off_diagonal_norm_sq() <= threshold_sq) break;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (apq == 0.0) continue;
        const double app = a(p, p);
        const double aqq = a(q, q);
        const double tau = (aqq - app) / (2.0 * apq);
        const double t = (tau >= 0.0)
                             ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                             : 1.0 / (tau - std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  RealVector values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = a(i, i);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return values[x] < values[y];
  });
  result.values.resize(n);
  result.vectors = RealMatrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    result.values[j] = values[order[j]];
    for (std::size_t i = 0; i < n; ++i) result.vectors(i, j) = v(i, order[j]);
  }
  return result;
}

bool same_bits(const RealVector& a, const RealVector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(const RealMatrix& a, const RealMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

SparseMatrix to_sparse(const RealMatrix& a) {
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      if (a(i, j) != 0.0) triplets.push_back({i, j, a(i, j)});
  return SparseMatrix::from_triplets(a.rows(), a.cols(), std::move(triplets));
}

/// Sparse overload == dense overload on to_dense(), bit for bit.
void expect_overloads_agree(const SparseMatrix& a) {
  const RealVector sparse = symmetric_eigenvalues(a);
  const RealVector dense = symmetric_eigenvalues(a.to_dense());
  EXPECT_TRUE(same_bits(sparse, dense)) << a.rows() << " rows";
  for (double value : sparse) EXPECT_TRUE(std::isfinite(value));
}

/// Values, vectors and sweep count equal the whole-matrix sweep bit for bit.
void expect_matches_whole_matrix(const RealMatrix& a) {
  const SymmetricEigenResult oracle = whole_matrix_jacobi(a);
  const SymmetricEigenResult result = symmetric_eigen(a);
  EXPECT_TRUE(same_bits(result.values, oracle.values)) << a.rows() << " rows";
  EXPECT_TRUE(same_bits(result.vectors, oracle.vectors)) << a.rows() << " rows";
  EXPECT_EQ(result.sweeps, oracle.sweeps);
  EXPECT_TRUE(same_bits(symmetric_eigenvalues(a), oracle.values));
}

TEST(BlockJacobi, TakensLaplaciansMatchDenseBitForBit) {
  const auto clouds = takens_windows();
  for (std::size_t w = 0; w < clouds.size(); ++w)
    for (int k = 0; k <= 1; ++k) {
      SCOPED_TRACE("window " + std::to_string(w) + " k " + std::to_string(k));
      expect_overloads_agree(takens_hamiltonian(clouds, w, k));
    }
}

TEST(BlockJacobi, TakensLaplaciansSplitIntoBlocks) {
  const auto clouds = takens_windows();
  const SparseMatrix l1 = takens_hamiltonian(clouds, 1, 1);
  ASSERT_EQ(l1.rows(), 256u);
  const std::vector<std::size_t> sizes = jacobi_block_sizes(l1);
  EXPECT_GT(sizes.size(), 100u);
  EXPECT_LT(*std::max_element(sizes.begin(), sizes.end()), 128u);
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}), 256u);
}

TEST(BlockJacobi, TakensLaplaciansMatchWholeMatrixSweep) {
  const auto clouds = takens_windows();
  for (int k = 0; k <= 1; ++k) {
    SCOPED_TRACE("k " + std::to_string(k));
    expect_matches_whole_matrix(takens_hamiltonian(clouds, 0, k).to_dense());
    expect_matches_whole_matrix(takens_laplacian(clouds, 1, k).to_dense());
  }
  EXPECT_TRUE(same_bits(symmetric_eigenvalues(takens_hamiltonian(clouds, 1, 1)),
                        whole_matrix_jacobi(
                            takens_hamiltonian(clouds, 1, 1).to_dense())
                            .values));
}

TEST(BlockJacobi, RandomComplexLaplaciansMatchDenseBitForBit) {
  Rng rng(2024);
  for (const std::size_t n : {5u, 10u, 15u}) {
    for (int draw = 0; draw < 4; ++draw) {
      RandomComplexOptions options;
      options.num_vertices = n;
      options.max_dimension = 3;
      const SimplicialComplex complex = random_flag_complex(options, rng);
      for (int k = 0; k <= 2; ++k) {
        if (complex.count(k) == 0) continue;
        SCOPED_TRACE("n " + std::to_string(n) + " k " + std::to_string(k));
        const SparseMatrix laplacian =
            sparse_combinatorial_laplacian(complex, k);
        expect_overloads_agree(laplacian);
        expect_matches_whole_matrix(laplacian.to_dense());
      }
    }
  }
}

TEST(BlockJacobi, FullyCoupledMatrixIsOneBlock) {
  Rng rng(11);
  const std::size_t n = 24;
  RealMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = rng.uniform(-2.0, 2.0);
    for (std::size_t j = i + 1; j < n; ++j)
      a(i, j) = a(j, i) = rng.uniform(-1.0, 1.0);
  }
  const SparseMatrix sparse = to_sparse(a);
  EXPECT_EQ(jacobi_block_sizes(sparse), std::vector<std::size_t>{n});
  expect_overloads_agree(sparse);
  expect_matches_whole_matrix(a);
}

TEST(BlockJacobi, DiagonalPaddingRowsAreSingletonBlocks) {
  // A 5-vertex path graph's Δ_0 padded to 8 rows: one 5-row block plus
  // three 1×1 padding blocks on the diagonal.
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i < 5; ++i) {
    triplets.push_back({i, i, (i == 0 || i == 4) ? 1.0 : 2.0});
    if (i + 1 < 5) {
      triplets.push_back({i, i + 1, -1.0});
      triplets.push_back({i + 1, i, -1.0});
    }
  }
  const SparseMatrix path = SparseMatrix::from_triplets(5, 5, triplets);
  const EstimatorOptions options;
  const SparseMatrix padded =
      pad_laplacian_sparse(path, options.padding).matrix;
  ASSERT_EQ(padded.rows(), 8u);
  EXPECT_EQ(jacobi_block_sizes(padded),
            (std::vector<std::size_t>{5, 1, 1, 1}));
  expect_overloads_agree(padded);
  expect_matches_whole_matrix(padded.to_dense());

  // A purely diagonal matrix converges before its first sweep.
  RealMatrix diagonal(6, 6);
  for (std::size_t i = 0; i < 6; ++i)
    diagonal(i, i) = 3.0 - static_cast<double>(i);
  expect_overloads_agree(to_sparse(diagonal));
  expect_matches_whole_matrix(diagonal);
  EXPECT_EQ(symmetric_eigen(diagonal).sweeps, 0u);
}

TEST(BlockJacobi, TinyAndEmptyInputs) {
  const SparseMatrix one = SparseMatrix::from_triplets(1, 1, {{0, 0, -2.5}});
  expect_overloads_agree(one);
  EXPECT_EQ(symmetric_eigenvalues(one), (RealVector{-2.5}));
  expect_matches_whole_matrix(RealMatrix{{-2.5}});

  const SparseMatrix empty(0, 0);
  EXPECT_TRUE(symmetric_eigenvalues(empty).empty());
  EXPECT_TRUE(symmetric_eigenvalues(RealMatrix(0, 0)).empty());
  EXPECT_TRUE(jacobi_block_sizes(empty).empty());
  const SymmetricEigenResult result = symmetric_eigen(RealMatrix(0, 0));
  EXPECT_TRUE(result.values.empty());
  EXPECT_EQ(result.vectors.rows(), 0u);
}

TEST(BlockJacobi, StoredZerosJoinNoBlocks) {
  // Two 2×2 blocks bridged by 1e-300 entries; scaling by 1e-30 underflows
  // the bridge to stored zeros that must not merge the blocks.
  const SparseMatrix bridged = SparseMatrix::from_triplets(
      4, 4,
      {{0, 0, 2.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 3.0},
       {1, 2, 1e-300}, {2, 1, 1e-300},
       {2, 2, 5.0}, {2, 3, -1.0}, {3, 2, -1.0}, {3, 3, 4.0}});
  EXPECT_EQ(jacobi_block_sizes(bridged), std::vector<std::size_t>{4});
  const SparseMatrix scaled = bridged.scaled(1e-30);
  ASSERT_EQ(scaled.nonzeros(), bridged.nonzeros());
  ASSERT_EQ(scaled.to_dense()(1, 2), 0.0);
  EXPECT_EQ(jacobi_block_sizes(scaled), (std::vector<std::size_t>{2, 2}));
  expect_overloads_agree(scaled);
  expect_matches_whole_matrix(scaled.to_dense());
}

TEST(BlockJacobi, RepeatedEigenvaluesKeepTheirVectors) {
  // Two identical 3-cycles plus an identical 2×2: many repeated eigenvalues
  // spread over several blocks, interleaved in index order.
  RealMatrix a(8, 8);
  const std::size_t cycle[2][3] = {{0, 2, 4}, {1, 3, 5}};
  for (const auto& members : cycle)
    for (std::size_t r = 0; r < 3; ++r)
      for (std::size_t c = 0; c < 3; ++c)
        a(members[r], members[c]) = r == c ? 2.0 : -1.0;
  a(6, 6) = a(7, 7) = 1.5;
  a(6, 7) = a(7, 6) = 0.5;
  EXPECT_EQ(jacobi_block_sizes(to_sparse(a)),
            (std::vector<std::size_t>{3, 3, 2}));
  expect_overloads_agree(to_sparse(a));
  expect_matches_whole_matrix(a);
  const RealVector values = symmetric_eigenvalues(a);
  EXPECT_NEAR(values[0], 0.0, 1e-12);
  EXPECT_NEAR(values[1], 0.0, 1e-12);
}

TEST(BlockJacobi, NonSymmetricInputStillThrows) {
  EXPECT_THROW(symmetric_eigenvalues(RealMatrix{{1, 2}, {3, 4}}), Error);
  // (1, 0) missing entirely: still asymmetric, and still one block.
  const SparseMatrix one_sided = SparseMatrix::from_triplets(
      3, 3, {{0, 0, 1.0}, {0, 1, 2.0}, {2, 2, 1.0}});
  try {
    symmetric_eigenvalues(one_sided);
    FAIL() << "asymmetric sparse input was accepted";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("needs a symmetric matrix"),
              std::string::npos);
  }
  EXPECT_THROW(symmetric_eigenvalues(one_sided.to_dense()), Error);
  EXPECT_THROW(symmetric_eigenvalues(SparseMatrix(2, 3)), Error);
}

TEST(BlockJacobi, NonConvergenceStillThrows) {
  const auto clouds = takens_windows();
  const SparseMatrix l1 = takens_hamiltonian(clouds, 0, 1);
  JacobiOptions options;
  options.max_sweeps = 1;
  options.tolerance = 1e-300;
  for (int dense = 0; dense <= 1; ++dense) {
    try {
      if (dense == 1)
        symmetric_eigenvalues(l1.to_dense(), options);
      else
        symmetric_eigenvalues(l1, options);
      FAIL() << "one sweep at tolerance 1e-300 converged";
    } catch (const Error& error) {
      EXPECT_NE(std::string(error.what())
                    .find("Jacobi failed to converge in 1 sweeps"),
                std::string::npos);
    }
  }
}

TEST(BlockJacobi, ExpiredDeadlineCancelsTheSolve) {
  const auto clouds = takens_windows();
  const SparseMatrix l1 = takens_laplacian(clouds, 1, 1);
  const cancel::ScopedDeadline expired(std::chrono::steady_clock::now() -
                                       std::chrono::seconds(1));
  EXPECT_THROW(symmetric_eigenvalues(l1), CancelledError);

  // The compile runs the diagnostic solve on the dim-256 padded operator.
  EstimatorOptions options;
  options.backend = EstimatorBackend::kCircuitSparse;
  options.precision_qubits = 3;
  EXPECT_THROW(compile_betti_estimate(l1, options), CancelledError);
}

}  // namespace
}  // namespace qtda
