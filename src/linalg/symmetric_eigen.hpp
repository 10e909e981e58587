/// \file symmetric_eigen.hpp
/// \brief Cyclic Jacobi eigensolver for real symmetric matrices.
///
/// The combinatorial Laplacians in this reproduction are at most a few
/// thousand rows, where the Jacobi method is simple, numerically excellent
/// (it computes small eigenvalues to high relative accuracy — exactly what
/// kernel counting needs) and trivially correct.  Eigenvalues are returned
/// in ascending order with matching eigenvectors.
///
/// **Block lock-step.**  Padded Laplacians are block-diagonal up to a
/// permutation, so every entry point first splits its input into the
/// connected blocks of the sparsity graph (i ~ j when a(i, j) ≠ 0) and the
/// one Jacobi kernel sweeps each block as a dense matrix over its members,
/// kept in ascending original order.  Sweep s runs sweep s of every block,
/// and cost falls from n³ to Σ n_b³ per sweep.  The results are
/// bit-identical to a dense sweep of the whole matrix:
///  - a rotation in plane (p, q) only mixes rows and columns p and q, so
///    entries between blocks start at exact zero, stay exact zero, and the
///    dense sweep skips every (p, q) pair that spans two blocks;
///  - within a block the rotations run in the dense (p, q) order, and
///    rotations in different blocks touch disjoint entries, so they commute
///    exactly;
///  - convergence stays global, with one sweep count for all blocks: the
///    off-diagonal and Frobenius sums add the blocks' entries in the
///    original row-major order, and the skipped exact zeros never change a
///    sum.
/// A fully coupled matrix is one block and runs the plain dense loop.  The
/// kernel calls cancel::checkpoint() once per pivot row, which never changes
/// the arithmetic.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/dense_matrix.hpp"
#include "linalg/sparse_matrix.hpp"

namespace qtda {

/// Result of a symmetric eigendecomposition: A = V·diag(values)·Vᵀ.
struct SymmetricEigenResult {
  RealVector values;   ///< ascending eigenvalues
  RealMatrix vectors;  ///< column j is the eigenvector of values[j]
  std::size_t sweeps = 0;  ///< Jacobi sweeps used
};

/// Options for the Jacobi iteration.
struct JacobiOptions {
  double tolerance = 1e-12;   ///< off-diagonal Frobenius threshold (relative)
  std::size_t max_sweeps = 100;
};

/// Full eigendecomposition of a symmetric matrix.  Throws on non-symmetric
/// input (tolerance 1e-9 relative to the largest entry) or non-convergence.
SymmetricEigenResult symmetric_eigen(const RealMatrix& a,
                                     const JacobiOptions& options = {});

/// Eigenvalues only (still Jacobi, skips the accumulation of V).
RealVector symmetric_eigenvalues(const RealMatrix& a,
                                 const JacobiOptions& options = {});

/// Eigenvalues of a sparse symmetric matrix, bit-identical to the dense
/// overload on a.to_dense().  Blocks come from the CSR pattern (stored zeros
/// join nothing); the n × n dense matrix is never formed.
RealVector symmetric_eigenvalues(const SparseMatrix& a,
                                 const JacobiOptions& options = {});

/// Row counts of the blocks the kernel sweeps for \p a, ordered by each
/// block's smallest row.
std::vector<std::size_t> jacobi_block_sizes(const SparseMatrix& a);

/// Number of eigenvalues with |λ| ≤ tol — the kernel dimension, i.e. the
/// Betti number when \p a is a combinatorial Laplacian.
std::size_t count_zero_eigenvalues(const RealMatrix& a, double tol = 1e-8);

}  // namespace qtda
