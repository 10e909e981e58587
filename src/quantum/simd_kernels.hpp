/// \file simd_kernels.hpp
/// \brief Runtime-dispatched SIMD kernels for the three hot gate loops.
///
/// The contiguous pair sweep (single-qubit gates), the diagonal table-lookup
/// pass (fused diagonals) and the fused dense-block apply (block/two-qubit
/// matvec) dominate the gate profiles (the Chebyshev operator vectorizes
/// across blocks in linalg/expm_multiply.cpp).  Each gets an explicit AVX2 and (where it pays) AVX-512 path in
/// simd_kernels.cpp, selected at runtime through common/cpu_features.hpp —
/// one binary, widest safe path.
///
/// **Bit-identity contract.**  The scalar branches below are the historical
/// loops, source-identical to the pre-vectorization engines, compiled in the
/// caller's TU with the default (baseline x86-64, no FMA) flags — so
/// `QTDA_SIMD=0` reproduces the old arithmetic bit for bit.  The vector
/// paths are *also* bitwise identical to the scalar ones: they keep one accumulator per
/// output element, evaluate the same products in the same sequence (complex
/// multiplies use separate mul/add — never FMA — matching the libstdc++
/// textbook formula up to commuting one addition), and simd_kernels.cpp is
/// compiled with -ffp-contract=off.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>

#include "common/cpu_features.hpp"
#include "quantum/register_layout.hpp"

namespace qtda {
namespace simd {

namespace detail {
// Vector implementations (simd_kernels.cpp, function-level target
// attributes).  Only reached when level != kScalar.
void pair_sweep_vec(SimdLevel level, std::complex<double>* p0,
                    std::complex<double>* p1, std::uint64_t n,
                    const std::complex<double>* u);
void pair_sweep_vec(SimdLevel level, std::complex<float>* p0,
                    std::complex<float>* p1, std::uint64_t n,
                    const std::complex<float>* u);
void four_point_sweep_vec(SimdLevel level, std::complex<double>* p0,
                          std::complex<double>* p1, std::complex<double>* p2,
                          std::complex<double>* p3, std::uint64_t n,
                          const std::complex<double>* u);
void four_point_sweep_vec(SimdLevel level, std::complex<float>* p0,
                          std::complex<float>* p1, std::complex<float>* p2,
                          std::complex<float>* p3, std::uint64_t n,
                          const std::complex<float>* u);
void diagonal_pass_vec(SimdLevel level, std::complex<double>* amp,
                       std::uint64_t first_index, std::uint64_t count,
                       const std::uint64_t* shifts, const std::uint64_t* masks,
                       std::size_t runs, const std::complex<double>* table);
void diagonal_pass_vec(SimdLevel level, std::complex<float>* amp,
                       std::uint64_t first_index, std::uint64_t count,
                       const std::uint64_t* shifts, const std::uint64_t* masks,
                       std::size_t runs, const std::complex<float>* table);
void block_matvec_vec(SimdLevel level, const std::complex<double>* u,
                      const std::complex<double>* in, std::complex<double>* out,
                      std::size_t block);
void block_matvec_vec(SimdLevel level, const std::complex<float>* u,
                      const std::complex<float>* in, std::complex<float>* out,
                      std::size_t block);
}  // namespace detail

/// In-place uncontrolled single-qubit update of the contiguous pair runs
/// p0[0..n) / p1[0..n): p0' = u00·p0 + u01·p1, p1' = u10·p0 + u11·p1.
/// \p u points at {u00, u01, u10, u11}.
template <typename R>
inline void pair_sweep(SimdLevel level, std::complex<R>* p0,
                       std::complex<R>* p1, std::uint64_t n,
                       const std::complex<R>* u) {
  if (level == SimdLevel::kScalar) {
    const std::complex<R> u00 = u[0], u01 = u[1], u10 = u[2], u11 = u[3];
    for (std::uint64_t k = 0; k < n; ++k) {
      const std::complex<R> a0 = p0[k];
      const std::complex<R> a1 = p1[k];
      p0[k] = u00 * a0 + u01 * a1;
      p1[k] = u10 * a0 + u11 * a1;
    }
    return;
  }
  detail::pair_sweep_vec(level, p0, p1, n, u);
}

/// In-place uncontrolled two-qubit update of the four contiguous runs
/// p0..p3 (local indices 00, 01, 10, 11) under the row-major 4×4 matrix
/// \p u.  Accumulation order matches the engines' block row-dot.
template <typename R>
inline void four_point_sweep(SimdLevel level, std::complex<R>* p0,
                             std::complex<R>* p1, std::complex<R>* p2,
                             std::complex<R>* p3, std::uint64_t n,
                             const std::complex<R>* u) {
  if (level == SimdLevel::kScalar) {
    const std::complex<R>* u0 = u;
    const std::complex<R>* u1 = u + 4;
    const std::complex<R>* u2 = u + 8;
    const std::complex<R>* u3 = u + 12;
    for (std::uint64_t k = 0; k < n; ++k) {
      const std::complex<R> a0 = p0[k];
      const std::complex<R> a1 = p1[k];
      const std::complex<R> a2 = p2[k];
      const std::complex<R> a3 = p3[k];
      std::complex<R> acc0{};
      acc0 += u0[0] * a0; acc0 += u0[1] * a1; acc0 += u0[2] * a2; acc0 += u0[3] * a3;
      std::complex<R> acc1{};
      acc1 += u1[0] * a0; acc1 += u1[1] * a1; acc1 += u1[2] * a2; acc1 += u1[3] * a3;
      std::complex<R> acc2{};
      acc2 += u2[0] * a0; acc2 += u2[1] * a1; acc2 += u2[2] * a2; acc2 += u2[3] * a3;
      std::complex<R> acc3{};
      acc3 += u3[0] * a0; acc3 += u3[1] * a1; acc3 += u3[2] * a2; acc3 += u3[3] * a3;
      p0[k] = acc0;
      p1[k] = acc1;
      p2[k] = acc2;
      p3[k] = acc3;
    }
    return;
  }
  detail::four_point_sweep_vec(level, p0, p1, p2, p3, n, u);
}

/// Fused-diagonal pass over the run amp[0..count) holding global indices
/// [first_index, first_index + count): amp[k] *= table[extract(i)].
template <typename R>
inline void diagonal_pass(SimdLevel level, std::complex<R>* amp,
                          std::uint64_t first_index, std::uint64_t count,
                          const DiagonalExtract& extract,
                          const std::complex<R>* table) {
  if (level == SimdLevel::kScalar) {
    apply_diagonal_run(amp, first_index, count, extract, table);
    return;
  }
  detail::diagonal_pass_vec(level, amp, first_index, count,
                            extract.shifts.data(), extract.masks.data(),
                            extract.shifts.size(), table);
}

/// Dense block×block row-major matvec: out = u·in (out must not alias in).
/// Per-row accumulation is sequential in c at every level, so results are
/// bitwise identical to the scalar row-dot.
template <typename R>
inline void block_matvec(SimdLevel level, const std::complex<R>* u,
                         const std::complex<R>* in, std::complex<R>* out,
                         std::size_t block) {
  if (level == SimdLevel::kScalar || block < 2) {
    for (std::size_t r = 0; r < block; ++r) {
      std::complex<R> acc{};
      const std::complex<R>* urow = u + r * block;
      for (std::size_t c = 0; c < block; ++c) acc += urow[c] * in[c];
      out[r] = acc;
    }
    return;
  }
  detail::block_matvec_vec(level, u, in, out, block);
}

}  // namespace simd
}  // namespace qtda
