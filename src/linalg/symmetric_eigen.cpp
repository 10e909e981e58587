#include "linalg/symmetric_eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/cancel.hpp"
#include "common/error.hpp"

namespace qtda {

namespace {

/// A square matrix split into the connected blocks of its sparsity graph
/// (i ~ j when a(i, j) ≠ 0 or a(j, i) ≠ 0).  Block b holds its members'
/// entries as a dense row-major n_b × n_b matrix; members keep ascending
/// original order, so local (p, q) order is the original (p, q) order.
/// Entries between different blocks are zero and are not stored.
struct BlockPartition {
  std::size_t n = 0;
  std::vector<std::size_t> members;   // original indices, grouped by block
  std::vector<std::size_t> begin;     // block b: members[begin[b], begin[b+1])
  std::vector<std::size_t> block_of;  // original index → its block
  std::vector<std::size_t> local_of;  // original index → row in its block
  std::vector<std::size_t> offset;    // block b's matrix starts at a[offset[b]]
  std::vector<double> a;              // the block matrices, back to back

  std::size_t blocks() const { return begin.size() - 1; }
  std::size_t size(std::size_t b) const { return begin[b + 1] - begin[b]; }
  /// Where row \p i of the original matrix, restricted to i's block,
  /// starts in a.
  std::size_t row_start(std::size_t i) const {
    return offset[block_of[i]] + local_of[i] * size(block_of[i]);
  }
};

/// Union-find root with path halving.
std::size_t find_root(std::vector<std::size_t>& parent, std::size_t i) {
  while (parent[i] != i) {
    parent[i] = parent[parent[i]];
    i = parent[i];
  }
  return i;
}

/// Merges the sets of \p i and \p j under the smaller root, so every root is
/// its set's smallest index; returns whether the sets were distinct.
bool unite(std::vector<std::size_t>& parent, std::size_t i, std::size_t j) {
  i = find_root(parent, i);
  j = find_root(parent, j);
  if (i == j) return false;
  if (i > j) std::swap(i, j);
  parent[j] = i;
  return true;
}

/// Lays out the blocks the sets in \p parent define, numbered by smallest
/// member, with zeroed block matrices.
BlockPartition lay_out_blocks(std::vector<std::size_t>& parent) {
  BlockPartition p;
  p.n = parent.size();
  p.block_of.resize(p.n);
  p.local_of.resize(p.n);
  p.begin.reserve(p.n + 1);  // at most n blocks
  p.begin.assign(1, 0);
  for (std::size_t i = 0; i < p.n; ++i) {
    const std::size_t root = find_root(parent, i);
    if (root == i) {
      p.block_of[i] = p.begin.size() - 1;
      p.begin.push_back(0);
    } else {
      p.block_of[i] = p.block_of[root];
    }
    // Members arrive in ascending order: i's rank is the count so far.
    p.local_of[i] = p.begin[p.block_of[i] + 1]++;
  }
  std::partial_sum(p.begin.begin(), p.begin.end(), p.begin.begin());
  p.members.resize(p.n);
  for (std::size_t i = 0; i < p.n; ++i)
    p.members[p.begin[p.block_of[i]] + p.local_of[i]] = i;
  p.offset.assign(p.blocks() + 1, 0);
  for (std::size_t b = 0; b < p.blocks(); ++b)
    p.offset[b + 1] = p.offset[b] + p.size(b) * p.size(b);
  p.a.assign(p.offset.back(), 0.0);
  return p;
}

BlockPartition partition(const RealMatrix& a) {
  const std::size_t n = a.rows();
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  std::size_t sets = n;
  for (std::size_t i = 0; i < n && sets > 1; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if ((a(i, j) != 0.0 || a(j, i) != 0.0) && unite(parent, i, j)) --sets;
  BlockPartition p = lay_out_blocks(parent);
  for (std::size_t b = 0; b < p.blocks(); ++b) {
    const std::size_t nb = p.size(b);
    const std::size_t* m = p.members.data() + p.begin[b];
    double* block = p.a.data() + p.offset[b];
    for (std::size_t r = 0; r < nb; ++r)
      for (std::size_t c = 0; c < nb; ++c) block[r * nb + c] = a(m[r], m[c]);
  }
  return p;
}

BlockPartition partition(const SparseMatrix& a) {
  const std::size_t n = a.rows();
  const auto& offsets = a.row_offsets();
  const auto& cols = a.col_indices();
  const auto& values = a.values();
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k)
      if (values[k] != 0.0) unite(parent, r, cols[k]);
  BlockPartition p = lay_out_blocks(parent);
  // Stored zeros between blocks are dropped; the rest are assigned exactly
  // as to_dense() would.
  for (std::size_t r = 0; r < n; ++r) {
    double* row = p.a.data() + p.row_start(r);
    for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k)
      if (p.block_of[cols[k]] == p.block_of[r])
        row[p.local_of[cols[k]]] = values[k];
  }
  return p;
}

bool blocks_symmetric(const BlockPartition& p, double tol) {
  for (std::size_t b = 0; b < p.blocks(); ++b) {
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
  for (std::size_t i = 0; i < p.n; ++i) {
    const double* row = p.a.data() + p.row_start(i);
    const std::size_t nb = p.size(p.block_of[i]);
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

  JacobiState state;
  state.blocks = std::move(blocks);
  BlockPartition& p = state.blocks;
  if (want_vectors) {
    state.v.assign(p.a.size(), 0.0);
    for (std::size_t b = 0; b < p.blocks(); ++b)
      for (std::size_t r = 0; r < p.size(b); ++r)
        state.v[p.offset[b] + r * p.size(b) + r] = 1.0;
  }
  if (p.n <= 1) return state;

  const double frob = std::sqrt(sum_of_squares(p, /*diagonal=*/true));
  const double threshold_sq =
      options.tolerance * options.tolerance * std::max(frob * frob, 1e-300);

  for (state.sweeps = 0; state.sweeps < options.max_sweeps; ++state.sweeps) {
    if (sum_of_squares(p, /*diagonal=*/false) <= threshold_sq) return state;
    for (std::size_t b = 0; b < p.blocks(); ++b)
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
  RealVector values(p.n);
  for (std::size_t i = 0; i < p.n; ++i)
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
    const std::size_t b = p.block_of[col];
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
  const BlockPartition p = partition(a);
  std::vector<std::size_t> sizes(p.blocks());
  for (std::size_t b = 0; b < p.blocks(); ++b) sizes[b] = p.size(b);
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
