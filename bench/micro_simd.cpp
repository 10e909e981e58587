/// \file micro_simd.cpp
/// \brief google-benchmark microbenches for the three vectorized gate loops,
/// each at {double, float} × {scalar, simd}.  The Chebyshev operator, which
/// vectorizes across blocks instead, is timed by BM_SparseExpBatch in
/// micro_sparse_oracle.cpp.
///
/// The kernels take the dispatch level as an argument, so the scalar and
/// vector variants of one loop run in one process on identical data — the
/// speedup ratio in BENCH_micro.json is the evidence for (or against) the
/// fusion cost-model constants in quantum/compiler.cpp.  On hosts without
/// AVX2 the "simd" variants degrade to the scalar path; the recorded pair
/// then shows ratio ≈ 1, which is itself informative.
///
/// Every operand is valid: the pair sweep applies a unitary 2×2, the
/// diagonal pass a table of unit-modulus phases and the block matvec a
/// unitary block, so repeated in-place application keeps the amplitudes'
/// magnitude.  Each bench ends by checking that its amplitudes are finite
/// and normal, and errors out otherwise (a decaying state would time
/// subnormal arithmetic instead of the kernel).

#include <benchmark/benchmark.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/random.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/matrix_exp.hpp"
#include "quantum/register_layout.hpp"
#include "quantum/simd_kernels.hpp"

namespace {

using namespace qtda;

constexpr double kPi = 3.141592653589793;

SimdLevel level_for(std::int64_t simd) {
  return simd == 0 ? SimdLevel::kScalar : detected_simd_level();
}

template <typename R>
std::vector<std::complex<R>> random_amps(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::complex<R>> amps(n);
  for (auto& a : amps)
    a = {static_cast<R>(rng.uniform() - 0.5),
         static_cast<R>(rng.uniform() - 0.5)};
  return amps;
}

/// Narrows row-major double entries to the bench's precision.
template <typename R>
std::vector<std::complex<R>> narrow(
    const std::vector<std::complex<double>>& v) {
  std::vector<std::complex<R>> out;
  out.reserve(v.size());
  for (const auto& a : v)
    out.emplace_back(static_cast<R>(a.real()), static_cast<R>(a.imag()));
  return out;
}

/// A unitary 2×2, row-major: e^{iφ}·[[a, b], [−b̄, ā]], |a|² + |b|² = 1.
template <typename R>
std::vector<std::complex<R>> random_unitary_2x2(std::uint64_t seed) {
  Rng rng(seed);
  const double theta = rng.uniform(0.0, kPi / 2);
  const auto phase = [&rng] { return std::polar(1.0, rng.uniform(-kPi, kPi)); };
  const std::complex<double> a = std::cos(theta) * phase();
  const std::complex<double> b = std::sin(theta) * phase();
  const std::complex<double> global = phase();
  return narrow<R>({global * a, global * b, -global * std::conj(b),
                    global * std::conj(a)});
}

/// \p n unit-modulus phases e^{iφ_k}.
template <typename R>
std::vector<std::complex<R>> random_phases(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::complex<double>> phases(n);
  for (auto& p : phases) p = std::polar(1.0, rng.uniform(-kPi, kPi));
  return narrow<R>(phases);
}

/// A unitary block × block matrix, row-major: e^{iH} of a random symmetric H.
template <typename R>
std::vector<std::complex<R>> random_unitary_block(std::size_t block,
                                                  std::uint64_t seed) {
  Rng rng(seed);
  RealMatrix h(block, block);
  for (std::size_t i = 0; i < block; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      h(i, j) = h(j, i) = rng.uniform(-1.0, 1.0);
  const ComplexMatrix u = HamiltonianExponential(h).unitary();
  return narrow<R>({u.data(), u.data() + block * block});
}

/// Valid data only: every amplitude component finite and normal.  Zero
/// fails too: random operands never produce an exact zero, but a state that
/// decayed through the subnormals ends there.
template <typename R>
bool finite_and_normal(const std::vector<std::complex<R>>& amps) {
  for (const auto& a : amps)
    for (const R part : {a.real(), a.imag()})
      if (std::fpclassify(part) != FP_NORMAL) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Contiguous pair sweep (uncontrolled single-qubit gate).
// ---------------------------------------------------------------------------

template <typename R>
void BM_PairSweep(benchmark::State& state) {
  const SimdLevel level = level_for(state.range(0));
  const std::size_t n = 1ULL << 16;
  auto amps = random_amps<R>(2 * n, 7);
  const auto u = random_unitary_2x2<R>(11);
  for (auto _ : state) {
    simd::pair_sweep(level, amps.data(), amps.data() + n, n, u.data());
    benchmark::DoNotOptimize(amps.data());
    benchmark::ClobberMemory();
  }
  if (!finite_and_normal(amps)) {
    state.SkipWithError("pair sweep output is not finite and normal");
    return;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n));
}
BENCHMARK(BM_PairSweep<double>)->Arg(0)->Arg(1);
BENCHMARK(BM_PairSweep<float>)->Arg(0)->Arg(1);

// ---------------------------------------------------------------------------
// Diagonal table-lookup pass (fused controlled-phase ladder).
// ---------------------------------------------------------------------------

template <typename R>
void BM_DiagonalPass(benchmark::State& state) {
  const SimdLevel level = level_for(state.range(0));
  const std::size_t n = 1ULL << 17;
  auto amps = random_amps<R>(n, 13);
  // A 6-wide diagonal split across two bit runs of the 17-bit index — the
  // shape the compiler's wide fused diagonals produce.
  DiagonalExtract extract;
  extract.shifts = {11, 4};
  extract.masks = {0x7, 0x38};
  const auto table = random_phases<R>(64, 17);
  for (auto _ : state) {
    simd::diagonal_pass(level, amps.data(), 0, n, extract, table.data());
    benchmark::DoNotOptimize(amps.data());
    benchmark::ClobberMemory();
  }
  if (!finite_and_normal(amps)) {
    state.SkipWithError("diagonal pass output is not finite and normal");
    return;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DiagonalPass<double>)->Arg(0)->Arg(1);
BENCHMARK(BM_DiagonalPass<float>)->Arg(0)->Arg(1);

// ---------------------------------------------------------------------------
// Fused dense-block apply (gathered 2^w block × matrix).
// ---------------------------------------------------------------------------

template <typename R>
void BM_BlockMatvec(benchmark::State& state) {
  const SimdLevel level = level_for(state.range(0));
  const std::size_t block = 16;  // a fused width-4 op
  const auto u = random_unitary_block<R>(block, 19);
  const auto in = random_amps<R>(block, 23);
  std::vector<std::complex<R>> out(block);
  for (auto _ : state) {
    // One plan op touches 2^n / block such blocks; iterate enough of them
    // that the timer sees kernel cost, not loop overhead.
    for (int rep = 0; rep < 1024; ++rep) {
      simd::block_matvec(level, u.data(), in.data(), out.data(), block);
      benchmark::DoNotOptimize(out.data());
    }
    benchmark::ClobberMemory();
  }
  if (!finite_and_normal(out)) {
    state.SkipWithError("block matvec output is not finite and normal");
    return;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(1024 * block * block));
}
BENCHMARK(BM_BlockMatvec<double>)->Arg(0)->Arg(1);
BENCHMARK(BM_BlockMatvec<float>)->Arg(0)->Arg(1);

}  // namespace
