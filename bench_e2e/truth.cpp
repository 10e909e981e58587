/// \file truth.cpp
/// \brief Library-side truth of a workload, computed outside the timed
/// window.
///
/// For every request: the reference estimate from
/// estimate_betti_from_sparse_laplacian on the same complex and options
/// (served responses must equal it bit for bit) and the exact classical
/// Betti number (the output-quality baseline).  For every distinct key of a
/// fresh artifact store: the stage functions timed once (rips_complex,
/// sparse_combinatorial_laplacian, compile_betti_estimate), and for every
/// distinct plan a validity check through the public SimulatorBackend calls
/// — the final marginal over the precision register must be finite and sum
/// to one, and p(0) must match the plan's eigensolve reference wherever that
/// ran.
#include <cmath>
#include <cstring>
#include <map>
#include <memory>

#include "bench.hpp"
#include "quantum/backend.hpp"
#include "serve/artifact_cache.hpp"
#include "serve/fingerprint.hpp"
#include "topology/betti.hpp"
#include "topology/laplacian.hpp"
#include "topology/rips.hpp"

namespace qtda::e2e {

namespace {

/// |Σp − 1| allowed for the precision-register marginal (double rounding
/// over ≤ 2^21 amplitudes stays orders of magnitude below this).
constexpr double kNormTolerance = 1e-9;
/// |p(0) − exact| allowed between the matrix-free circuit and the dense
/// eigensolve (Chebyshev coefficients are truncated at 1e-13).
constexpr double kZeroProbabilityTolerance = 1e-9;

double ms_since(Clock::time_point start) {
  return 1e3 * seconds_between(start, Clock::now());
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Runs the plan through the public backend calls, timing each, and checks
/// the final state.
void probe_plan(PlanTruth& plan, const CompiledEstimate& compiled,
                const EstimatorOptions& options,
                const BettiEstimate& reference) {
  const std::vector<std::size_t> wires = compiled.layout.precision_wires();
  const Clock::time_point start = Clock::now();
  const std::unique_ptr<SimulatorBackend> backend =
      make_simulator(options.simulator, compiled.plan->num_qubits(),
                     options.simulator_shards, options.precision);
  backend->prepare_basis_state(0);
  const Clock::time_point prepared = Clock::now();
  backend->apply_plan(*compiled.plan);
  const Clock::time_point evolved = Clock::now();
  Rng rng(options.seed);
  const std::uint64_t zeros = backend->sample(wires, options.shots, rng)[0];
  const Clock::time_point sampled = Clock::now();
  plan.setup_us = 1e6 * seconds_between(start, prepared);
  plan.evolve_ms = 1e3 * seconds_between(prepared, evolved);
  plan.sample_us = 1e6 * seconds_between(evolved, sampled);

  const bool eigensolve_ran =
      (std::uint64_t{1} << compiled.system_qubits) <=
      options.exact_reference_max_dim;
  const std::vector<double> probabilities =
      backend->marginal_probabilities(wires);
  plan.problem = probability_problem(
      probabilities, compiled.exact_zero_probability, eigensolve_ran);
  if (eigensolve_ran && !probabilities.empty())
    plan.p0_error =
        std::abs(probabilities[0] - compiled.exact_zero_probability);
  if (plan.problem.empty() && zeros != reference.zero_counts)
    plan.problem = "public backend calls sampled " + std::to_string(zeros) +
                   " zeros, the estimator " +
                   std::to_string(reference.zero_counts);
}

}  // namespace

std::string probability_problem(const std::vector<double>& probabilities,
                                double exact_zero_probability,
                                bool eigensolve_ran) {
  if (probabilities.empty()) return "empty marginal";
  double sum = 0.0;
  for (const double p : probabilities) {
    if (!std::isfinite(p) || p < 0.0) return "non-finite or negative p";
    sum += p;
  }
  if (std::abs(sum - 1.0) > kNormTolerance)
    return "marginal sums to " + format_double(sum);
  if (eigensolve_ran && std::abs(probabilities[0] - exact_zero_probability) >
                            kZeroProbabilityTolerance)
    return "p(0) = " + format_double(probabilities[0]) + " but exact " +
           format_double(exact_zero_probability);
  return "";
}

bool same_estimate(const BettiEstimate& a, const BettiEstimate& b) {
  return same_bits(a.estimated_betti, b.estimated_betti) &&
         a.rounded_betti == b.rounded_betti &&
         same_bits(a.zero_probability, b.zero_probability) &&
         same_bits(a.exact_zero_probability, b.exact_zero_probability) &&
         a.zero_counts == b.zero_counts && a.shots == b.shots &&
         a.system_qubits == b.system_qubits &&
         a.precision_qubits == b.precision_qubits &&
         a.total_qubits == b.total_qubits &&
         a.circuit_gates == b.circuit_gates &&
         a.circuit_depth == b.circuit_depth &&
         same_bits(a.lambda_max, b.lambda_max) && same_bits(a.delta, b.delta);
}

void Tally::fail(std::string why) {
  ++attempted;
  ++failed;
  if (problems.size() < 5) problems.push_back(std::move(why));
}

bool Tally::check(const EstimateResponse& response, std::size_t index,
                  const Truth& truth) {
  const std::string which = "request " + std::to_string(index) + ": ";
  const int plan = truth.plan_of[index];
  if (!response.ok) {
    fail(which + serve_error_name(response.code) + " error: " +
         response.error);
  } else if (plan >= 0 && !truth.plans[plan].problem.empty()) {
    fail(which + "its plan failed the validity check: " +
         truth.plans[plan].problem);
  } else if (!same_estimate(response.estimate, truth.reference[index])) {
    fail(which + "response is not bit-identical to the library estimate");
  } else {
    ++attempted;
    ++completed;
    abs_error_sum += std::abs(response.estimate.estimated_betti -
                              static_cast<double>(truth.exact_betti[index]));
    return true;
  }
  return false;
}

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  completed += other.completed;
  failed += other.failed;
  abs_error_sum += other.abs_error_sum;
  for (const std::string& problem : other.problems)
    if (problems.size() < 5) problems.push_back(problem);
}

Truth compute_truth(const Workload& workload) {
  Truth truth;
  const std::size_t n = workload.requests.size();
  truth.reference.resize(n);
  truth.exact_betti.resize(n);
  truth.plan_of.assign(n, -1);

  std::map<std::string, std::shared_ptr<const SimplicialComplex>> complexes;
  std::map<std::string, std::shared_ptr<const SparseMatrix>> laplacians;
  std::map<std::string, std::size_t> betti;  // by Laplacian key
  std::map<std::string, int> plan_index;

  for (std::size_t i = 0; i < n; ++i) {
    const EstimateRequest& request = workload.requests[i];
    const EstimatorOptions& options = request.options;
    const PointCloud cloud(request.points);

    // The artifact store's own key axes: cloud content, ε, dimension.
    const std::string complex_key =
        fingerprint_hex(fingerprint_point_cloud(cloud)) +
        "|eps=" + format_double(request.epsilon) +
        "|dim=" + std::to_string(request.k + 1);
    auto& complex = complexes[complex_key];
    if (complex == nullptr) {
      const Clock::time_point start = Clock::now();
      complex = std::make_shared<const SimplicialComplex>(
          rips_complex(cloud, request.epsilon, request.k + 1));
      truth.rips_ms.push_back(ms_since(start));
      truth.simplices.push_back(static_cast<double>(complex->total_count()));
    }
    const std::string laplacian_key =
        fingerprint_hex(fingerprint_complex(*complex)) +
        "|k=" + std::to_string(request.k);
    if (betti.count(laplacian_key) == 0)
      betti[laplacian_key] = betti_number(*complex, request.k);
    truth.exact_betti[i] = betti[laplacian_key];

    if (complex->count(request.k) == 0) {
      // No k-simplices: the exact zero estimate, as BettiServer answers.
      truth.reference[i].shots = options.shots;
      truth.reference[i].precision_qubits = options.precision_qubits;
      ++truth.width_histogram[0];
      continue;
    }
    auto& laplacian = laplacians[laplacian_key];
    if (laplacian == nullptr) {
      const Clock::time_point start = Clock::now();
      laplacian = std::make_shared<const SparseMatrix>(
          sparse_combinatorial_laplacian(*complex, request.k));
      truth.laplacian_ms.push_back(ms_since(start));
      truth.laplacian_nnz.push_back(static_cast<double>(laplacian->nonzeros()));
    }

    truth.reference[i] =
        estimate_betti_from_sparse_laplacian(*laplacian, options);
    ++truth.width_histogram[truth.reference[i].total_qubits];

    const std::string plan_key = ArtifactStore::plan_key(
        fingerprint_complex(*complex), request.k, options);
    const auto found = plan_index.find(plan_key);
    if (found != plan_index.end()) {
      truth.plan_of[i] = found->second;
      continue;
    }
    PlanTruth plan;
    plan.key = plan_key;
    const Clock::time_point start = Clock::now();
    const CompiledEstimate compiled =
        compile_betti_estimate(*laplacian, options);
    plan.compile_ms = ms_since(start);
    plan.width = compiled.total_qubits;
    plan.ops = compiled.plan->ops().size();
    plan.stats = compiled.plan->stats();
    probe_plan(plan, compiled, options, truth.reference[i]);
    if (!plan.problem.empty()) ++truth.invalid_plans;
    plan_index[plan_key] = static_cast<int>(truth.plans.size());
    truth.plan_of[i] = static_cast<int>(truth.plans.size());
    truth.plans.push_back(std::move(plan));
  }
  truth.distinct_complexes = complexes.size();
  truth.distinct_laplacians = laplacians.size();
  return truth;
}

}  // namespace qtda::e2e
