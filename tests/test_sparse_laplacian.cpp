// Property tests: the sparse Laplacian chain (CSR builders, Gershgorin,
// padding, rescaling) agrees exactly with the dense reference path on
// random complexes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "core/padding.hpp"
#include "core/scaling.hpp"
#include "linalg/gershgorin.hpp"
#include "linalg/sparse_matrix.hpp"
#include "linalg/symmetric_eigen.hpp"
#include "topology/betti.hpp"
#include "topology/laplacian.hpp"
#include "topology/random_complex.hpp"

namespace qtda {
namespace {

void expect_matrices_equal(const RealMatrix& a, const RealMatrix& b,
                           double tolerance = 1e-12) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      EXPECT_NEAR(a(i, j), b(i, j), tolerance) << "at (" << i << ',' << j
                                               << ')';
}

class SparseLaplacianProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SparseLaplacianProperty, SparseBuildersMatchDense) {
  Rng rng(GetParam() * 7919 + 3);
  RandomComplexOptions options;
  options.num_vertices = 9;
  options.max_dimension = 3;
  const auto complex = random_flag_complex(options, rng);
  for (int k = 0; k <= 2; ++k) {
    if (complex.count(k) == 0) continue;
    expect_matrices_equal(sparse_down_laplacian(complex, k).to_dense(),
                          down_laplacian(complex, k));
    expect_matrices_equal(sparse_up_laplacian(complex, k).to_dense(),
                          up_laplacian(complex, k));
    expect_matrices_equal(
        sparse_combinatorial_laplacian(complex, k).to_dense(),
        combinatorial_laplacian(complex, k));
  }
}

TEST_P(SparseLaplacianProperty, SparseGershgorinMatchesDense) {
  Rng rng(GetParam() * 104729 + 17);
  RandomComplexOptions options;
  options.num_vertices = 8;
  options.max_dimension = 2;
  const auto complex = random_flag_complex(options, rng);
  if (complex.count(1) == 0) GTEST_SKIP() << "edgeless complex";
  const SparseMatrix sparse = sparse_combinatorial_laplacian(complex, 1);
  const RealMatrix dense = sparse.to_dense();
  EXPECT_NEAR(gershgorin_max(sparse), gershgorin_max(dense), 1e-12);
  EXPECT_NEAR(gershgorin_min(sparse), gershgorin_min(dense), 1e-12);
}

TEST_P(SparseLaplacianProperty, SparsePaddingAndScalingMatchDense) {
  Rng rng(GetParam() * 1299709 + 29);
  RandomComplexOptions options;
  options.num_vertices = 8;
  options.max_dimension = 2;
  const auto complex = random_flag_complex(options, rng);
  if (complex.count(1) == 0) GTEST_SKIP() << "edgeless complex";
  const SparseMatrix laplacian = sparse_combinatorial_laplacian(complex, 1);

  for (auto scheme :
       {PaddingScheme::kIdentityHalfLambdaMax, PaddingScheme::kZero}) {
    const SparsePaddedLaplacian sp = pad_laplacian_sparse(laplacian, scheme);
    const PaddedLaplacian dp = pad_laplacian(laplacian.to_dense(), scheme);
    EXPECT_EQ(sp.num_qubits, dp.num_qubits);
    EXPECT_EQ(sp.original_dim, dp.original_dim);
    EXPECT_DOUBLE_EQ(sp.lambda_max, dp.lambda_max);
    expect_matrices_equal(sp.matrix.to_dense(), dp.matrix);

    const SparseScaledHamiltonian ss = rescale_laplacian_sparse(sp, 6.0);
    const ScaledHamiltonian ds = rescale_laplacian(dp, 6.0);
    EXPECT_DOUBLE_EQ(ss.scale, ds.scale);
    EXPECT_DOUBLE_EQ(ss.eigenvalue_to_phase(2.0),
                     ds.eigenvalue_to_phase(2.0));
    expect_matrices_equal(ss.matrix.to_dense(), ds.matrix);
    // The certified Chebyshev bounds really contain the scaled spectrum
    // (PSD-ness gives the lower bound, Gershgorin+rescale the upper).
    const RealVector eigenvalues = symmetric_eigenvalues(ss.matrix.to_dense());
    EXPECT_GE(eigenvalues.front(), ss.spectrum_min() - 1e-9);
    EXPECT_LE(eigenvalues.back(), ss.spectrum_max() + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseLaplacianProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(SparsePadding, AcceptsNearSymmetricLikeDensePath) {
  // A tiny one-sided entry is within the dense is_symmetric tolerance; the
  // sparse path must not reject it just because the CSR structures differ.
  const auto lopsided = SparseMatrix::from_triplets(
      2, 2, {{0, 0, 2.0}, {1, 1, 2.0}, {0, 1, 1e-12}});
  EXPECT_NO_THROW(pad_laplacian(lopsided.to_dense()));
  EXPECT_NO_THROW(pad_laplacian_sparse(lopsided));
  // A genuinely asymmetric matrix still throws on both paths.
  const auto skew = SparseMatrix::from_triplets(
      2, 2, {{0, 0, 2.0}, {1, 1, 2.0}, {0, 1, 0.5}});
  EXPECT_THROW(pad_laplacian(skew.to_dense()), Error);
  EXPECT_THROW(pad_laplacian_sparse(skew), Error);
}

TEST(SparseGramProducts, MatchDenseOnRectangular) {
  Rng rng(71);
  std::vector<Triplet> triplets;
  for (int e = 0; e < 40; ++e)
    triplets.push_back({static_cast<std::size_t>(rng.uniform_index(7)),
                        static_cast<std::size_t>(rng.uniform_index(11)),
                        rng.uniform() * 2.0 - 1.0});
  const auto a = SparseMatrix::from_triplets(7, 11, std::move(triplets));
  expect_matrices_equal(a.gram_sparse().to_dense(), a.gram());
  expect_matrices_equal(a.outer_gram_sparse().to_dense(), a.outer_gram());
}

TEST(SparseAdd, SumsAndCancels) {
  const auto a =
      SparseMatrix::from_triplets(2, 2, {{0, 0, 1.0}, {0, 1, 2.0}});
  const auto b =
      SparseMatrix::from_triplets(2, 2, {{0, 1, -2.0}, {1, 1, 3.0}});
  const auto c = sparse_add(a, b);
  EXPECT_DOUBLE_EQ(c.to_dense()(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(c.to_dense()(1, 1), 3.0);
  EXPECT_EQ(c.nonzeros(), 2u);  // the (0,1) entries cancelled structurally
  EXPECT_THROW(sparse_add(a, SparseMatrix(3, 2)), Error);
}

TEST(SparseComplexMatvec, MatchesRealPartsSeparately) {
  Rng rng(83);
  std::vector<Triplet> triplets;
  for (int e = 0; e < 30; ++e)
    triplets.push_back({static_cast<std::size_t>(rng.uniform_index(9)),
                        static_cast<std::size_t>(rng.uniform_index(9)),
                        rng.uniform() * 2.0 - 1.0});
  const auto a = SparseMatrix::from_triplets(9, 9, std::move(triplets));
  RealVector re(9), im(9);
  ComplexVector x(9);
  for (std::size_t i = 0; i < 9; ++i) {
    re[i] = rng.uniform();
    im[i] = rng.uniform();
    x[i] = {re[i], im[i]};
  }
  const ComplexVector y = a.multiply(x);
  const RealVector yre = a.multiply(re);
  const RealVector yim = a.multiply(im);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_NEAR(y[i].real(), yre[i], 1e-12);
    EXPECT_NEAR(y[i].imag(), yim[i], 1e-12);
  }
}

// The one union-find (linalg's ComponentUnion) and the sparsity components
// built on it.  β0 is the component count of Δ0's sparsity graph — the same
// split the eigensolver and the Chebyshev oracle run on — and must match
// the homological definition.

/// Sparsity pattern of an undirected graph on \p n vertices.
SparseMatrix graph_matrix(std::size_t n,
                          const std::vector<std::pair<std::size_t,
                                                      std::size_t>>& edges) {
  std::vector<Triplet> triplets;
  for (const auto& [a, b] : edges) {
    triplets.push_back({a, b, 1.0});
    triplets.push_back({b, a, 1.0});
  }
  return SparseMatrix::from_triplets(n, n, std::move(triplets));
}

std::size_t betti0_from_laplacian(const SimplicialComplex& complex) {
  return sparsity_components(sparse_combinatorial_laplacian(complex, 0))
      .components();
}

TEST(UnionFind, StartsFullySeparated) {
  ComponentUnion forest(5);
  const ConnectedComponents sets = forest.components();
  EXPECT_EQ(sets.components(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(sets.component_of[i], i);
}

TEST(UnionFind, UniteMergesAndCounts) {
  ComponentUnion forest(4);
  EXPECT_TRUE(forest.unite(0, 1));
  EXPECT_FALSE(forest.unite(1, 0));  // already merged
  EXPECT_EQ(forest.components().components(), 3u);
  EXPECT_TRUE(forest.unite(2, 3));
  EXPECT_TRUE(forest.unite(0, 3));
  const ConnectedComponents sets = forest.components();
  EXPECT_EQ(sets.components(), 1u);
  EXPECT_EQ(sets.component_of[0], sets.component_of[2]);
}

TEST(ConnectedComponents, PathAndIsland) {
  // 0–1–2, with 3 and 4 isolated.
  EXPECT_EQ(sparsity_components(graph_matrix(5, {{0, 1}, {1, 2}}))
                .components(),
            3u);
}

TEST(ComponentLabels, ConsistentPartition) {
  const ConnectedComponents sets =
      sparsity_components(graph_matrix(6, {{0, 2}, {2, 4}, {1, 3}}));
  const std::vector<std::size_t>& labels = sets.component_of;
  ASSERT_EQ(labels.size(), 6u);
  EXPECT_EQ(labels[0], labels[2]);
  EXPECT_EQ(labels[2], labels[4]);
  EXPECT_EQ(labels[1], labels[3]);
  EXPECT_NE(labels[0], labels[1]);
  EXPECT_NE(labels[5], labels[0]);
  EXPECT_NE(labels[5], labels[1]);
  const auto max_label = *std::max_element(labels.begin(), labels.end());
  EXPECT_EQ(max_label, 2u);  // labels are dense in [0, #components)
}

class Betti0FastCrossCheck : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(Betti0FastCrossCheck, MatchesHomologicalBetti0) {
  Rng rng(GetParam() * 3 + 7);
  RandomComplexOptions options;
  options.num_vertices = 12;
  options.max_dimension = 2;
  const auto complex = random_flag_complex(options, rng);
  EXPECT_EQ(betti0_from_laplacian(complex), betti_number(complex, 0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Betti0FastCrossCheck,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(Betti0Fast, SparseVertexIds) {
  // Vertex ids need not be contiguous.
  const auto complex = SimplicialComplex::from_simplices(
      {Simplex{10, 20}, Simplex{30}}, true);
  EXPECT_EQ(betti0_from_laplacian(complex), 2u);
}

}  // namespace
}  // namespace qtda
