/// \file persistent_laplacian.hpp
/// \brief Persistent combinatorial Laplacians (Mémoli–Wan–Wang).
///
/// The paper's future work points at persistent Betti numbers as the
/// scale-invariant alternative to β_k(ε).  The persistent Laplacian makes
/// them accessible to the very same QPE machinery: for a pair of complexes
/// K ⊆ L, the operator
///
///   Δ_k^{K,L} = (∂_k^K)†∂_k^K + Schur_K( Δ_k^{L,up} )
///
/// is symmetric positive semidefinite on the k-simplices of K and its
/// kernel dimension equals the persistent Betti number β_k^{K,L} — the rank
/// of the map H_k(K) → H_k(L).  The Schur complement removes the block of
/// the up-Laplacian supported on the simplices of L \ K, using the
/// Moore–Penrose pseudo-inverse since that block is typically singular.
#pragma once

#include "linalg/dense_matrix.hpp"
#include "linalg/sparse_matrix.hpp"
#include "topology/filtration.hpp"
#include "topology/simplicial_complex.hpp"

namespace qtda {

/// Sparse Δ_k^{K,L} for K ⊆ L, assembled on the CSR spine
/// (gram_sparse/sparse_add) like the combinatorial Laplacian: the down part
/// and the up-Laplacian of L never densify.  When K and L share their
/// k-simplices the whole build stays sparse; otherwise only the Schur
/// correction B·C⁺·Bᵀ — inherently dense through the pseudo-inverse — is
/// formed densely, at |S_k(K)| size, with B and C extracted straight from
/// the CSR of Δ_k^{L,up}.  This is the operator the sparse QPE path
/// consumes without ever forming a dense |S_k|×|S_k| matrix in the
/// shared-k-simplex case.  Throws if K's k- or (k+1)-simplices are not a
/// subset of L's; requires K to have at least one k-simplex.
SparseMatrix sparse_persistent_laplacian(const SimplicialComplex& sub,
                                         const SimplicialComplex& super,
                                         int k);

/// Sparse Δ_k^{b,d} from a filtration (complexes at scales b ≤ d).
SparseMatrix sparse_persistent_laplacian(const Filtration& filtration, int k,
                                         double birth_scale,
                                         double death_scale);

/// Builds Δ_k^{K,L} for K ⊆ L (thin densifying wrapper over the sparse
/// assembly, kept for the eigensolver-based small cases and existing
/// callers).  Requires K to have at least one k-simplex.
RealMatrix persistent_laplacian(const SimplicialComplex& sub,
                                const SimplicialComplex& super, int k);

/// Builds Δ_k^{b,d} from a filtration (complexes at scales b ≤ d).
RealMatrix persistent_laplacian(const Filtration& filtration, int k,
                                double birth_scale, double death_scale);

/// Classical persistent Betti number via the kernel of Δ_k^{K,L}.
/// Returns 0 when K has no k-simplices.
std::size_t persistent_betti_via_laplacian(const SimplicialComplex& sub,
                                           const SimplicialComplex& super,
                                           int k, double tolerance = 1e-8);

}  // namespace qtda
