/// \file micro_linalg.cpp
/// \brief google-benchmark microbenches for the linear-algebra substrate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/random.hpp"
#include "core/padding.hpp"
#include "core/scaling.hpp"
#include "data/gearbox.hpp"
#include "linalg/gershgorin.hpp"
#include "linalg/matrix_exp.hpp"
#include "linalg/matrix_ops.hpp"
#include "linalg/rank.hpp"
#include "linalg/sparse_matrix.hpp"
#include "linalg/symmetric_eigen.hpp"
#include "ml/takens.hpp"
#include "topology/laplacian.hpp"
#include "topology/rips.hpp"

namespace {

using namespace qtda;

RealMatrix random_symmetric(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  RealMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = rng.uniform(-2.0, 2.0);
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  return a;
}

RealMatrix random_pm_one(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  Rng rng(seed);
  RealMatrix a(rows, cols);
  for (std::size_t i = 0; i < a.size(); ++i)
    a.data()[i] = static_cast<double>(rng.uniform_int(-1, 1));
  return a;
}

void BM_JacobiEigenvalues(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_symmetric(n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(symmetric_eigenvalues(a).front());
  }
}
BENCHMARK(BM_JacobiEigenvalues)->RangeMultiplier(2)->Range(8, 128);

void BM_JacobiFullDecomposition(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_symmetric(n, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(symmetric_eigen(a).values.front());
  }
}
BENCHMARK(BM_JacobiFullDecomposition)->RangeMultiplier(2)->Range(8, 64);

/// Rips Δ_1 of one Takens-embedded gearbox window (d = 3, τ = 4, stride 10:
/// the §5 pipeline's clouds), padded and rescaled as the estimator does.
/// ε grows in 1% steps of the cloud diameter until the padded operator has
/// \p padded_dim rows.
SparseMatrix takens_hamiltonian(std::size_t padded_dim) {
  Rng rng(8);
  const std::vector<double> window = generate_gearbox_signal(
      GearboxCondition::kSurfaceFault, 500, GearboxSignalOptions{}, rng);
  TakensOptions takens;
  takens.dimension = 3;
  takens.delay = 4;
  takens.stride = 10;
  const PointCloud cloud = takens_embedding(window, takens);
  double diameter = 0.0;
  for (std::size_t i = 0; i < cloud.size(); ++i)
    for (std::size_t j = i + 1; j < cloud.size(); ++j)
      diameter = std::max(diameter, cloud.distance(i, j));
  for (int step = 1; step <= 100; ++step) {
    const SimplicialComplex complex =
        rips_complex(cloud, 0.01 * step * diameter, 2);
    if (complex.count(1) == 0) continue;
    const SparseMatrix laplacian = sparse_combinatorial_laplacian(complex, 1);
    if (2 * laplacian.rows() > padded_dim)
      return rescale_laplacian_sparse(pad_laplacian_sparse(laplacian)).matrix;
  }
  return SparseMatrix(0, 0);
}

/// The exact-reference eigensolve of a Takens Δ_1 (Arg 0 = padded dim),
/// through the dense overload on to_dense() (Arg 1 = 0) or the sparse
/// overload (Arg 1 = 1).  Errors out unless both return the same finite
/// eigenvalues bit for bit.
void BM_SparseLaplacianEigenvalues(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const bool sparse_overload = state.range(1) == 1;
  const SparseMatrix h = takens_hamiltonian(dim);
  if (h.rows() != dim) {
    state.SkipWithError("no Takens window reaches this padded dimension");
    return;
  }
  const RealMatrix dense = h.to_dense();
  const RealVector from_sparse = symmetric_eigenvalues(h);
  const RealVector from_dense = symmetric_eigenvalues(dense);
  const bool finite =
      std::all_of(from_sparse.begin(), from_sparse.end(),
                  [](double v) { return std::isfinite(v); });
  if (!finite || from_sparse.size() != from_dense.size() ||
      std::memcmp(from_sparse.data(), from_dense.data(),
                  from_sparse.size() * sizeof(double)) != 0) {
    state.SkipWithError("sparse and dense eigenvalues differ");
    return;
  }
  const std::vector<std::size_t> blocks = jacobi_block_sizes(h);
  state.counters["blocks"] = static_cast<double>(blocks.size());
  state.counters["largest_block"] =
      static_cast<double>(*std::max_element(blocks.begin(), blocks.end()));
  state.SetLabel(sparse_overload ? "sparse" : "dense");
  for (auto _ : state) {
    if (sparse_overload)
      benchmark::DoNotOptimize(symmetric_eigenvalues(h).front());
    else
      benchmark::DoNotOptimize(symmetric_eigenvalues(h.to_dense()).front());
  }
}
BENCHMARK(BM_SparseLaplacianEigenvalues)
    ->ArgsProduct({{128, 256}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_RankGaussian(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_pm_one(n, n + 10, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rank(a));
  }
}
BENCHMARK(BM_RankGaussian)->RangeMultiplier(2)->Range(8, 256);

void BM_RankModP(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_pm_one(n, n + 10, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rank_mod_p(a));
  }
}
BENCHMARK(BM_RankModP)->RangeMultiplier(2)->Range(8, 256);

void BM_MatrixExponential(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto h = random_symmetric(n, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(unitary_exp(h).rows());
  }
}
BENCHMARK(BM_MatrixExponential)->RangeMultiplier(2)->Range(8, 64);

void BM_CachedUnitaryPowers(benchmark::State& state) {
  // QPE asks for e^{iH·2^j}; the cached eigendecomposition amortizes this.
  const auto n = static_cast<std::size_t>(state.range(0));
  const HamiltonianExponential exp_h(random_symmetric(n, 13));
  for (auto _ : state) {
    for (double s : {1.0, 2.0, 4.0, 8.0}) {
      benchmark::DoNotOptimize(exp_h.unitary(s).rows());
    }
  }
}
BENCHMARK(BM_CachedUnitaryPowers)->RangeMultiplier(2)->Range(8, 32);

void BM_GershgorinBound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_symmetric(n, 15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gershgorin_max(a));
  }
}
BENCHMARK(BM_GershgorinBound)->RangeMultiplier(4)->Range(16, 1024);

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_symmetric(n, 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, a).rows());
  }
}
BENCHMARK(BM_Matmul)->RangeMultiplier(2)->Range(16, 256);

}  // namespace
