#include "linalg/symmetric_eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/cancel.hpp"
#include "common/error.hpp"

namespace qtda {

namespace {

/// A square matrix split into the connected blocks of its sparsity graph
/// (i ~ j when a(i, j) ≠ 0 or a(j, i) ≠ 0).  Block b holds its members'
/// entries as a dense row-major n_b × n_b matrix; members keep ascending
/// original order, so local (p, q) order is the original (p, q) order.
/// Entries between different blocks are zero and are not stored.
struct BlockPartition : ConnectedComponents {
  std::vector<std::size_t> offset;  // block b's matrix starts at a[offset[b]]
  std::vector<double> a;            // the block matrices, back to back

  /// Lays out zeroed block matrices for the components \p c.
  explicit BlockPartition(ConnectedComponents c)
      : ConnectedComponents(std::move(c)) {
    offset.assign(components() + 1, 0);
    for (std::size_t b = 0; b < components(); ++b)
      offset[b + 1] = offset[b] + size(b) * size(b);
    a.assign(offset.back(), 0.0);
  }

  /// Where row \p i of the original matrix, restricted to i's block,
  /// starts in a.
  std::size_t row_start(std::size_t i) const {
    return offset[component_of[i]] + local_of[i] * size(component_of[i]);
  }
};

BlockPartition partition(const RealMatrix& a) {
  const std::size_t n = a.rows();
  ComponentUnion sets(n);
  std::size_t count = n;
  for (std::size_t i = 0; i < n && count > 1; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if ((a(i, j) != 0.0 || a(j, i) != 0.0) && sets.unite(i, j)) --count;
  BlockPartition p(sets.components());
  for (std::size_t b = 0; b < p.components(); ++b) {
    const std::size_t nb = p.size(b);
    const std::size_t* m = p.members.data() + p.begin[b];
    double* block = p.a.data() + p.offset[b];
    for (std::size_t r = 0; r < nb; ++r)
      for (std::size_t c = 0; c < nb; ++c) block[r * nb + c] = a(m[r], m[c]);
  }
  return p;
}

BlockPartition partition(const SparseMatrix& a) {
  const auto& offsets = a.row_offsets();
  const auto& cols = a.col_indices();
  const auto& values = a.values();
  BlockPartition p(sparsity_components(a));
  // Stored zeros between blocks are dropped; the rest are assigned exactly
  // as to_dense() would.
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double* row = p.a.data() + p.row_start(r);
    for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k)
      if (p.component_of[cols[k]] == p.component_of[r])
        row[p.local_of[cols[k]]] = values[k];
  }
  return p;
}

bool blocks_symmetric(const BlockPartition& p, double tol) {
  for (std::size_t b = 0; b < p.components(); ++b) {
    const std::size_t nb = p.size(b);
    const double* block = p.a.data() + p.offset[b];
    for (std::size_t r = 0; r < nb; ++r)
      for (std::size_t c = r + 1; c < nb; ++c)
        if (std::abs(block[r * nb + c] - block[c * nb + r]) > tol) return false;
  }
  return true;
}

/// Sum of squared entries (strictly off-diagonal unless \p diagonal), added
/// in the original row-major order: the dense sum minus its exact zeros.
double sum_of_squares(const BlockPartition& p, bool diagonal) {
  double s = 0.0;
  for (std::size_t i = 0; i < p.vertices(); ++i) {
    const double* row = p.a.data() + p.row_start(i);
    const std::size_t nb = p.size(p.component_of[i]);
    for (std::size_t j = 0; j < nb; ++j)
      if (diagonal || j != p.local_of[i]) s += row[j] * row[j];
  }
  return s;
}

/// One cyclic sweep over the n × n row-major block \p a, accumulating the
/// rotations into \p v unless it is null.
void sweep_block(double* a, double* v, std::size_t n) {
  for (std::size_t p = 0; p + 1 < n; ++p) {
    cancel::checkpoint();
    for (std::size_t q = p + 1; q < n; ++q) {
      const double apq = a[p * n + q];
      if (apq == 0.0) continue;
      const double app = a[p * n + p];
      const double aqq = a[q * n + q];
      // Stable computation of the rotation (Golub & Van Loan §8.5).
      const double tau = (aqq - app) / (2.0 * apq);
      const double t = (tau >= 0.0)
                           ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                           : 1.0 / (tau - std::sqrt(1.0 + tau * tau));
      const double c = 1.0 / std::sqrt(1.0 + t * t);
      const double s = t * c;
      // A ← JᵀAJ with J the rotation in the (p, q) plane.
      for (std::size_t k = 0; k < n; ++k) {
        const double akp = a[k * n + p];
        const double akq = a[k * n + q];
        a[k * n + p] = c * akp - s * akq;
        a[k * n + q] = s * akp + c * akq;
      }
      double* row_p = a + p * n;
      double* row_q = a + q * n;
      for (std::size_t k = 0; k < n; ++k) {
        const double apk = row_p[k];
        const double aqk = row_q[k];
        row_p[k] = c * apk - s * aqk;
        row_q[k] = s * apk + c * aqk;
      }
      if (v != nullptr) {
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v[k * n + p];
          const double vkq = v[k * n + q];
          v[k * n + p] = c * vkp - s * vkq;
          v[k * n + q] = s * vkp + c * vkq;
        }
      }
    }
  }
}

struct JacobiState {
  BlockPartition blocks;
  std::vector<double> v;  // block eigenvectors (laid out like blocks.a)
  std::size_t sweeps = 0;
};

/// Cyclic Jacobi over every block in lock-step: sweep s runs sweep s of
/// each block, and one global off-diagonal norm decides convergence.
JacobiState run_jacobi(BlockPartition blocks, const JacobiOptions& options,
                       bool want_vectors) {
  // Every nonzero entry sits inside a block.
  double max_entry = 0.0;
  for (double value : blocks.a)
    max_entry = std::max(max_entry, std::abs(value));
  QTDA_REQUIRE(blocks_symmetric(blocks, 1e-9 * std::max(1.0, max_entry)),
               "eigendecomposition needs a symmetric matrix");

  JacobiState state{std::move(blocks), {}, 0};
  BlockPartition& p = state.blocks;
  if (want_vectors) {
    state.v.assign(p.a.size(), 0.0);
    for (std::size_t b = 0; b < p.components(); ++b)
      for (std::size_t r = 0; r < p.size(b); ++r)
        state.v[p.offset[b] + r * p.size(b) + r] = 1.0;
  }
  if (p.vertices() <= 1) return state;

  const double frob = std::sqrt(sum_of_squares(p, /*diagonal=*/true));
  const double threshold_sq =
      options.tolerance * options.tolerance * std::max(frob * frob, 1e-300);

  for (state.sweeps = 0; state.sweeps < options.max_sweeps; ++state.sweeps) {
    if (sum_of_squares(p, /*diagonal=*/false) <= threshold_sq) return state;
    for (std::size_t b = 0; b < p.components(); ++b)
      sweep_block(p.a.data() + p.offset[b],
                  want_vectors ? state.v.data() + p.offset[b] : nullptr,
                  p.size(b));
  }
  QTDA_REQUIRE(sum_of_squares(p, /*diagonal=*/false) <= threshold_sq,
               "Jacobi failed to converge in " << options.max_sweeps
                                               << " sweeps");
  return state;
}

/// Square check, then the kernel on \p input's blocks (RealMatrix or
/// SparseMatrix).
template <typename Matrix>
JacobiState run_jacobi(const Matrix& input, const JacobiOptions& options,
                       bool want_vectors) {
  QTDA_REQUIRE(input.rows() == input.cols(),
               "eigendecomposition needs a square matrix");
  return run_jacobi(partition(input), options, want_vectors);
}

/// Diagonal of the converged blocks, in original row order.
RealVector diagonal(const BlockPartition& p) {
  RealVector values(p.vertices());
  for (std::size_t i = 0; i < p.vertices(); ++i)
    values[i] = p.a[p.row_start(i) + p.local_of[i]];
  return values;
}

template <typename Matrix>
RealVector sorted_eigenvalues(const Matrix& a, const JacobiOptions& options) {
  RealVector values =
      diagonal(run_jacobi(a, options, /*want_vectors=*/false).blocks);
  std::sort(values.begin(), values.end());
  return values;
}

}  // namespace

SymmetricEigenResult symmetric_eigen(const RealMatrix& a,
                                     const JacobiOptions& options) {
  JacobiState state = run_jacobi(a, options, /*want_vectors=*/true);
  const BlockPartition& p = state.blocks;
  const std::size_t n = a.rows();
  SymmetricEigenResult result;
  result.sweeps = state.sweeps;
  result.values = diagonal(p);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return result.values[x] < result.values[y];
  });

  // Column j of V is zero outside the block of the eigenvalue it pairs with.
  RealVector sorted_values(n);
  RealMatrix sorted_vectors(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t col = order[j];
    const std::size_t b = p.component_of[col];
    const std::size_t nb = p.size(b);
    const double* v = state.v.data() + p.offset[b];
    sorted_values[j] = result.values[col];
    for (std::size_t r = 0; r < nb; ++r)
      sorted_vectors(p.members[p.begin[b] + r], j) =
          v[r * nb + p.local_of[col]];
  }
  result.values = std::move(sorted_values);
  result.vectors = std::move(sorted_vectors);
  return result;
}

RealVector symmetric_eigenvalues(const RealMatrix& a,
                                 const JacobiOptions& options) {
  return sorted_eigenvalues(a, options);
}

RealVector symmetric_eigenvalues(const SparseMatrix& a,
                                 const JacobiOptions& options) {
  return sorted_eigenvalues(a, options);
}

std::vector<std::size_t> jacobi_block_sizes(const SparseMatrix& a) {
  QTDA_REQUIRE(a.rows() == a.cols(),
               "eigendecomposition needs a square matrix");
  const ConnectedComponents blocks = sparsity_components(a);
  std::vector<std::size_t> sizes(blocks.components());
  for (std::size_t b = 0; b < blocks.components(); ++b)
    sizes[b] = blocks.size(b);
  return sizes;
}

std::size_t count_zero_eigenvalues(const RealMatrix& a, double tol) {
  const RealVector values = symmetric_eigenvalues(a);
  std::size_t count = 0;
  for (double v : values)
    if (std::abs(v) <= tol) ++count;
  return count;
}

}  // namespace qtda
