/// \file sparse_matrix.hpp
/// \brief Compressed sparse row matrix for boundary operators.
///
/// Boundary operators ∂_k have exactly k+1 nonzeros per column, so the
/// whole Δ_k = ∂†∂ + ∂∂† chain can stay sparse end to end: symmetric CSR
/// products assemble the Laplacian without densifying, and the complex
/// matvec feeds the matrix-free exp(iθΔ̃) oracle of the sparse QPE path,
/// and symmetric_eigenvalues() solves the CSR matrix block by block.
/// Dense copies remain available for the small dense algorithms.  Padded
/// Laplacians are block-diagonal up to a permutation; sparsity_components()
/// finds those blocks once for both the eigensolver and the exp(iθΔ̃)
/// oracle.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "linalg/dense_matrix.hpp"

namespace qtda {

/// One triplet (row, col, value) used during assembly.
struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

/// CSR sparse matrix over doubles.
class SparseMatrix {
 public:
  /// Empty rows×cols matrix.
  SparseMatrix(std::size_t rows, std::size_t cols);

  /// Builds from triplets; duplicate (row, col) entries are summed.
  static SparseMatrix from_triplets(std::size_t rows, std::size_t cols,
                                    std::vector<Triplet> triplets);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nonzeros() const { return values_.size(); }

  /// y = A·x.
  RealVector multiply(const RealVector& x) const;
  /// y = Aᵀ·x.
  RealVector multiply_transposed(const RealVector& x) const;

  /// y = A·x over complex vectors (A is real).
  ComplexVector multiply(const ComplexVector& x) const;

  /// Dense Aᵀ·A (size cols×cols).
  RealMatrix gram() const;
  /// Dense A·Aᵀ (size rows×rows).
  RealMatrix outer_gram() const;

  /// Sparse Aᵀ·A (size cols×cols) without densifying.
  SparseMatrix gram_sparse() const;
  /// Sparse A·Aᵀ (size rows×rows) without densifying.
  SparseMatrix outer_gram_sparse() const;

  /// Copy with every stored value multiplied by \p factor.
  SparseMatrix scaled(double factor) const;

  /// Dense copy.
  RealMatrix to_dense() const;

  /// Transposed copy (CSR of Aᵀ).
  SparseMatrix transposed() const;

  /// CSR internals (read-only), exposed for kernels and tests.
  const std::vector<std::size_t>& row_offsets() const { return row_offsets_; }
  const std::vector<std::size_t>& col_indices() const { return col_indices_; }
  const std::vector<double>& values() const { return values_; }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::size_t> row_offsets_;  // size rows_+1
  std::vector<std::size_t> col_indices_;
  std::vector<double> values_;
};

/// C = A + B (shapes must match); structural zeros produced by cancellation
/// are dropped.
SparseMatrix sparse_add(const SparseMatrix& a, const SparseMatrix& b);

/// The connected components of an undirected graph on vertices 0..n−1,
/// numbered by smallest member.  Each component lists its members in
/// ascending order, so a vertex's rank in its component keeps the original
/// order.
struct ConnectedComponents {
  std::vector<std::size_t> members;       ///< vertices grouped by component
  std::vector<std::size_t> begin;         ///< c: members[begin[c], begin[c+1])
  std::vector<std::size_t> component_of;  ///< vertex → its component
  std::vector<std::size_t> local_of;      ///< vertex → rank in its component

  std::size_t vertices() const { return component_of.size(); }
  std::size_t components() const { return begin.size() - 1; }
  std::size_t size(std::size_t c) const { return begin[c + 1] - begin[c]; }
};

/// Union-find over n vertices, read out as ConnectedComponents.
class ComponentUnion {
 public:
  explicit ComponentUnion(std::size_t n);

  /// Joins the sets of \p i and \p j; returns whether they were distinct.
  bool unite(std::size_t i, std::size_t j);

  ConnectedComponents components();

 private:
  std::size_t find(std::size_t i);

  std::vector<std::size_t> parent_;
};

/// Components of the sparsity graph of the square matrix \p a: i ~ j when
/// a stored a(i, j) is nonzero (stored zeros join nothing).
ConnectedComponents sparsity_components(const SparseMatrix& a);

}  // namespace qtda
