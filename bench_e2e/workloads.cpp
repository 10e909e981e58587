/// \file workloads.cpp
/// \brief The benchmark's request mixes, generated from a seed.
///
///  * table1   — the Table 1 mix exactly as bench/table1_classification.cpp
///               builds it: 255 gearbox-feature clouds × t = 1..5 × k ∈ {0,1},
///               100 shots.  Inputs share a lot (four-point clouds induce few
///               distinct complexes), so per-request fixed costs dominate.
///  * takens   — the §5 time-series pipeline: 16 Takens-embedded windows ×
///               k ∈ {0,1} at t = 3, 1000 shots.  Every cloud is distinct, so
///               every cache level misses and the engine does the work.
///  * coalesce — one Takens window at k = 0 (a 15-qubit register) with only
///               the shot seed varying: after the first request every cache
///               level hits and the batcher coalesces queued requests.
#include <algorithm>
#include <stdexcept>

#include "bench.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "data/features.hpp"
#include "data/gearbox.hpp"
#include "data/windowing.hpp"
#include "ml/takens.hpp"

namespace qtda::e2e {

namespace {

/// The experiment's data — the gearbox recordings and feature samples — is
/// generated once from the experiment programs' default seed, as a real dataset would
/// be fixed.  The benchmark seed varies every request's shot seed, which
/// changes every response and the MAE but leaves the traffic shape
/// (complexes, plans, register widths) the same on every seed, so runs on
/// different seeds measure the same work.
constexpr std::uint64_t kDatasetSeed = 7;

double median_cloud_diameter(const std::vector<PointCloud>& clouds) {
  std::vector<double> diameters;
  diameters.reserve(clouds.size());
  for (const PointCloud& cloud : clouds) {
    double dmax = 0.0;
    for (std::size_t i = 0; i < cloud.size(); ++i)
      for (std::size_t j = i + 1; j < cloud.size(); ++j)
        dmax = std::max(dmax, cloud.distance(i, j));
    diameters.push_back(dmax);
  }
  return median(diameters);
}

EstimateRequest make_request(const PointCloud& cloud, double epsilon, int k,
                             std::size_t precision_qubits, std::size_t shots,
                             std::uint64_t seed) {
  EstimateRequest request;
  request.points = cloud.points();
  request.epsilon = epsilon;
  request.k = k;
  request.options.backend = EstimatorBackend::kCircuitSparse;
  request.options.mixed_state = MixedStateMode::kPurification;
  request.options.precision_qubits = precision_qubits;
  request.options.shots = shots;
  request.options.seed = seed;
  return request;
}

/// Table 1: table1_classification.cpp's clouds, ε and per-request seeds.
void build_table1(Workload& workload, std::uint64_t seed, bool small) {
  Rng rng(kDatasetSeed);
  const auto samples = generate_gearbox_feature_dataset(
      255, 51, 512, GearboxSignalOptions{}, rng);
  std::vector<PointCloud> clouds;
  for (const auto& sample : samples)
    clouds.push_back(feature_point_cloud(sample.features));
  const double eps = 0.75 * median_cloud_diameter(clouds);
  if (small) clouds.resize(3);
  for (std::size_t t = 1; t <= 5; ++t)
    for (std::size_t i = 0; i < clouds.size(); ++i) {
      const std::uint64_t request_seed = seed * 31 + i * 7 + t;
      workload.requests.push_back(
          make_request(clouds[i], eps, 0, t, 100, request_seed));
      workload.requests.push_back(
          make_request(clouds[i], eps, 1, t, 100, request_seed + 1));
    }
}

/// The §5 pipeline's windows: 500-sample windows of one long recording per
/// class, Takens-embedded (d = 3, τ = 4, stride 10: about 46 points).
std::vector<PointCloud> takens_clouds(std::size_t per_class) {
  Rng rng(kDatasetSeed + 1);
  const GearboxSignalOptions signal_options;
  const auto healthy = generate_gearbox_signal(
      GearboxCondition::kHealthy, 500 * per_class, signal_options, rng);
  const auto faulty = generate_gearbox_signal(
      GearboxCondition::kSurfaceFault, 500 * per_class, signal_options, rng);
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

void build_takens(Workload& workload, std::uint64_t seed, bool small) {
  const std::vector<PointCloud> clouds = takens_clouds(small ? 1 : 8);
  const double eps = 0.15 * median_cloud_diameter(clouds);
  for (std::size_t w = 0; w < clouds.size(); ++w)
    for (int k = 0; k <= 1; ++k)
      workload.requests.push_back(
          make_request(clouds[w], eps, k, 3, 1000, seed * 31 + w * 7 + k));
}

void build_coalesce(Workload& workload, std::uint64_t seed, bool small) {
  const PointCloud cloud = takens_clouds(1).front();
  const double eps = 0.15 * median_cloud_diameter({cloud});
  const std::size_t count = small ? 8 : 200;
  for (std::size_t r = 0; r < count; ++r)
    workload.requests.push_back(
        make_request(cloud, eps, 0, 3, 1000, seed * 31 + r * 7));
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"table1", "takens",
                                                 "coalesce"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool small) {
  Workload workload;
  workload.name = name;
  const Clock::time_point start = Clock::now();
  if (name == "table1") {
    workload.clients = 2;
    workload.tail_quantile = 0.99;
    build_table1(workload, seed, small);
  } else if (name == "takens") {
    workload.clients = 1;
    workload.tail_quantile = 0.95;
    build_takens(workload, seed, small);
  } else if (name == "coalesce") {
    workload.clients = 4;
    workload.tail_quantile = 0.95;
    build_coalesce(workload, seed, small);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  workload.synth_ms = 1e3 * seconds_between(start, Clock::now());
  for (std::size_t i = 0; i < workload.requests.size(); ++i)
    workload.requests[i].id = std::to_string(i);
  return workload;
}

}  // namespace qtda::e2e
