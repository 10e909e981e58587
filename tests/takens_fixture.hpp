/// \file takens_fixture.hpp
/// \brief Point clouds shaped like the paper's §5 time-series pipeline, for
/// tests that need its Laplacians and registers.
///
/// 500-sample windows of one healthy and one surface-fault gearbox
/// recording, Takens-embedded with d = 3, τ = 4, stride 10 (about 46 points
/// per cloud), at the pipeline's Rips scale ε = 0.15 × the median cloud
/// diameter.  The padded k = 1 Laplacians have 128 or 256 rows and split
/// into 4–139 connected blocks.  Windows 1 and 10 pad to 256 rows (a
/// 19-qubit purified register at t = 3); window 10's largest block has 128
/// rows.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/random.hpp"
#include "common/stats.hpp"
#include "core/betti_estimator.hpp"
#include "core/padding.hpp"
#include "core/scaling.hpp"
#include "data/gearbox.hpp"
#include "data/windowing.hpp"
#include "linalg/sparse_matrix.hpp"
#include "ml/takens.hpp"
#include "topology/laplacian.hpp"
#include "topology/point_cloud.hpp"
#include "topology/rips.hpp"

namespace qtda::testing {

/// The Takens clouds: 8 windows per class, 0..7 healthy and 8..15 faulty.
inline std::vector<PointCloud> takens_windows() {
  Rng rng(8);
  const GearboxSignalOptions signal_options;
  const auto healthy = generate_gearbox_signal(GearboxCondition::kHealthy,
                                               4000, signal_options, rng);
  const auto faulty = generate_gearbox_signal(GearboxCondition::kSurfaceFault,
                                              4000, signal_options, rng);
  TakensOptions takens;
  takens.dimension = 3;
  takens.delay = 4;
  takens.stride = 10;
  std::vector<PointCloud> clouds;
  for (const auto* signal : {&healthy, &faulty})
    for (const auto& window : split_windows(*signal, 500))
      clouds.push_back(takens_embedding(window, takens));
  return clouds;
}

/// ε = 0.15 × the median of the clouds' diameters.
inline double takens_epsilon(const std::vector<PointCloud>& clouds) {
  std::vector<double> diameters;
  for (const PointCloud& cloud : clouds) {
    double diameter = 0.0;
    for (std::size_t i = 0; i < cloud.size(); ++i)
      for (std::size_t j = i + 1; j < cloud.size(); ++j)
        diameter = std::max(diameter, cloud.distance(i, j));
    diameters.push_back(diameter);
  }
  return 0.15 * median(diameters);
}

/// Sparse Δ_k of window \p window's Rips complex.
inline SparseMatrix takens_laplacian(const std::vector<PointCloud>& clouds,
                                     std::size_t window, int k) {
  return sparse_combinatorial_laplacian(
      rips_complex(clouds[window], takens_epsilon(clouds), k + 1), k);
}

/// Δ_k padded and rescaled exactly as the estimator's compile does.
inline SparseMatrix takens_hamiltonian(const std::vector<PointCloud>& clouds,
                                       std::size_t window, int k) {
  const EstimatorOptions options;
  return rescale_laplacian_sparse(
             pad_laplacian_sparse(takens_laplacian(clouds, window, k),
                                  options.padding))
      .matrix;
}

}  // namespace qtda::testing
