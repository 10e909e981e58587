#include "quantum/backend.hpp"

#include <cstdlib>
#include <string>

#include "common/cpu_features.hpp"
#include "common/error.hpp"
#include "quantum/executor.hpp"
#include "quantum/noise.hpp"

namespace qtda {

namespace {

constexpr SimulatorKind kAllSimulatorKinds[] = {
    SimulatorKind::kStatevector,
    SimulatorKind::kDensityMatrix,
};

/// Executes a fused diagonal through the generic gate interface when it is
/// too wide to densify whole: split the support into a high part and a
/// 256-entry low part, and apply one dense sub-diagonal per high-part
/// assignment, controlled on that assignment (controls test for ones, so
/// zero bits are X-conjugated).  Slow but correct — the fallback of engines
/// without native diagonal execution.
void apply_wide_diagonal(SimulatorBackend& backend, const CompiledOp& op) {
  constexpr std::size_t kLowBits = 8;
  const std::vector<std::size_t>& support = op.gate.targets;
  const std::size_t m = support.size();
  const std::size_t hi_bits = m - kLowBits;
  const std::vector<std::size_t> low_targets(support.end() - kLowBits,
                                             support.end());
  // High local bit j (LSB-first, j ≥ kLowBits) lives on wire
  // support[m − 1 − j]; collect the wires in that bit order.
  std::vector<std::size_t> hi_wires(hi_bits);
  for (std::size_t j = 0; j < hi_bits; ++j)
    hi_wires[j] = support[m - 1 - (kLowBits + j)];

  const std::uint64_t low_dim = std::uint64_t{1} << kLowBits;
  for (std::uint64_t hi = 0; hi < (std::uint64_t{1} << hi_bits); ++hi) {
    Gate flip;
    flip.kind = GateKind::kX;
    std::vector<std::size_t> flipped;
    for (std::size_t j = 0; j < hi_bits; ++j)
      if (((hi >> j) & 1ULL) == 0) flipped.push_back(hi_wires[j]);
    for (std::size_t w : flipped) {
      flip.targets = {w};
      backend.apply_gate(flip);
    }
    Gate sub;
    sub.kind = GateKind::kUnitary;
    sub.targets = low_targets;
    sub.controls = hi_wires;
    sub.matrix = ComplexMatrix(low_dim, low_dim);
    for (std::uint64_t lo = 0; lo < low_dim; ++lo)
      sub.matrix(lo, lo) = op.diagonal[(hi << kLowBits) | lo];
    backend.apply_gate(sub);
    for (std::size_t w : flipped) {
      flip.targets = {w};
      backend.apply_gate(flip);
    }
  }
}

}  // namespace

std::string simulator_kind_name(SimulatorKind kind) {
  switch (kind) {
    case SimulatorKind::kStatevector: return "statevector";
    case SimulatorKind::kDensityMatrix: return "density-matrix";
  }
  return "?";
}

std::string simulator_kind_names() {
  std::string names;
  for (SimulatorKind kind : kAllSimulatorKinds) {
    if (!names.empty()) names += ", ";
    names += simulator_kind_name(kind);
  }
  return names;
}

SimulatorKind simulator_kind_from_name(const std::string& name) {
  for (SimulatorKind kind : kAllSimulatorKinds) {
    if (name == simulator_kind_name(kind)) return kind;
  }
  QTDA_REQUIRE(false, "unknown simulator \"" << name << "\" (valid: "
                                             << simulator_kind_names() << ")");
  return SimulatorKind::kStatevector;
}

void SimulatorBackend::apply_plan(const ExecutionPlan& plan) {
  QTDA_REQUIRE(plan.num_qubits() == num_qubits(),
               "plan width " << plan.num_qubits()
                             << " does not match backend width "
                             << num_qubits());
  // Generic path: the fused blocks and materialized matrices still apply —
  // each op is one ordinary IR gate — only the mask/offset precomputation
  // is engine-specific and recomputed here.  Diagonal tables densify on
  // demand, wide ones through the controlled-sub-diagonal split (both
  // in-tree engines override with native diagonal execution; this
  // keeps unknown future engines correct for every compiled plan).
  for_each_plan_op_accounted(plan, [&](const CompiledOp& op) {
    if (op.kind != CompiledOp::Kind::kDiagonal) {
      apply_gate(op.gate);
    } else if (op.diagonal.size() <= 256) {
      apply_gate(op.dense_gate());
    } else {
      apply_wide_diagonal(*this, op);
    }
  });
  if (plan.global_phase() != 0.0) apply_global_phase(plan.global_phase());
}

void SimulatorBackend::apply_plan_with_noise(const ExecutionPlan& plan,
                                             const NoiseModel& noise,
                                             Rng& rng) {
  QTDA_REQUIRE(plan.num_qubits() == num_qubits(),
               "plan width " << plan.num_qubits()
                             << " does not match backend width "
                             << num_qubits());
  QTDA_REQUIRE(plan.preserves_noise_slots(),
               "noisy execution needs a plan compiled with "
               "preserve_noise_slots (error placement would otherwise "
               "change)");
  for_each_plan_op_with_noise(
      plan, noise, [&](const CompiledOp& op) { apply_gate(op.gate); },
      [&](std::size_t q, double p) { apply_depolarizing(q, p, rng); });
  // Global phase dropped: unobservable through this interface's
  // measurements, exactly as in apply_circuit_with_noise.
}

void SimulatorBackend::apply_circuit_with_noise(const Circuit& circuit,
                                                const NoiseModel& noise,
                                                Rng& rng) {
  QTDA_REQUIRE(circuit.num_qubits() == num_qubits(),
               "circuit width " << circuit.num_qubits()
                                << " does not match backend width "
                                << num_qubits());
  // Shared error placement (for_each_gate_with_noise) keeps the RNG
  // consumption order identical to run_noisy_trajectory.  The global phase
  // is dropped: unobservable through this interface's measurements.
  for_each_gate_with_noise(
      circuit, noise, [&](const Gate& gate) { apply_gate(gate); },
      [&](std::size_t q, double p) { apply_depolarizing(q, p, rng); });
}

template <typename Real>
BasicStatevectorBackend<Real>::BasicStatevectorBackend(std::size_t num_qubits,
                                                       std::size_t chunks)
    : state_(num_qubits, chunks) {}

template <typename Real>
void BasicStatevectorBackend<Real>::prepare_basis_state(std::uint64_t index) {
  state_.set_basis_state(index);
}

template <typename Real>
void BasicStatevectorBackend<Real>::apply_gate(const Gate& gate) {
  state_.apply_gate(gate);
}

template <typename Real>
void BasicStatevectorBackend<Real>::apply_circuit(const Circuit& circuit) {
  state_.apply_circuit(circuit);
}

template <typename Real>
void BasicStatevectorBackend<Real>::apply_global_phase(double phi) {
  state_.apply_global_phase(phi);
}

template <typename Real>
void BasicStatevectorBackend<Real>::apply_plan(const ExecutionPlan& plan) {
  QTDA_REQUIRE(plan.num_qubits() == num_qubits(),
               "plan width " << plan.num_qubits()
                             << " does not match backend width "
                             << num_qubits());
  state_.apply_plan(plan);
}

template <typename Real>
void BasicStatevectorBackend<Real>::apply_plan_with_noise(
    const ExecutionPlan& plan, const NoiseModel& noise, Rng& rng) {
  QTDA_REQUIRE(plan.num_qubits() == num_qubits(),
               "plan width " << plan.num_qubits()
                             << " does not match backend width "
                             << num_qubits());
  QTDA_REQUIRE(plan.preserves_noise_slots(),
               "noisy execution needs a plan compiled with "
               "preserve_noise_slots (error placement would otherwise "
               "change)");
  for_each_plan_op_with_noise(
      plan, noise, [&](const CompiledOp& op) { state_.apply_plan_op(op); },
      [&](std::size_t q, double p) {
        maybe_apply_depolarizing(state_, q, p, rng);
      });
}

template <typename Real>
void BasicStatevectorBackend<Real>::apply_operator(
    const LinearOperator& op, const std::vector<std::size_t>& targets,
    const std::vector<std::size_t>& controls) {
  state_.apply_operator(op, targets, controls);
}

template <typename Real>
void BasicStatevectorBackend<Real>::apply_depolarizing(std::size_t qubit,
                                                       double probability,
                                                       Rng& rng) {
  maybe_apply_depolarizing(state_, qubit, probability, rng);
}

template <typename Real>
std::vector<double> BasicStatevectorBackend<Real>::marginal_probabilities(
    const std::vector<std::size_t>& qubits) const {
  return state_.marginal_probabilities(qubits);
}

template <typename Real>
std::vector<std::uint64_t> BasicStatevectorBackend<Real>::sample(
    const std::vector<std::size_t>& qubits, std::size_t shots,
    Rng& rng) const {
  return state_.sample_counts(qubits, shots, rng);
}

template <typename Real>
BasicDensityMatrixBackend<Real>::BasicDensityMatrixBackend(
    std::size_t num_qubits)
    : state_(num_qubits) {}

template <typename Real>
void BasicDensityMatrixBackend<Real>::prepare_basis_state(
    std::uint64_t index) {
  state_.set_basis_state(index);
}

template <typename Real>
void BasicDensityMatrixBackend<Real>::apply_gate(const Gate& gate) {
  state_.apply_gate(gate);
}

template <typename Real>
void BasicDensityMatrixBackend<Real>::apply_circuit(const Circuit& circuit) {
  state_.apply_circuit(circuit);
}

template <typename Real>
void BasicDensityMatrixBackend<Real>::apply_global_phase(double phi) {
  // e^{iφ}ρe^{−iφ} = ρ: nothing to do.
  (void)phi;
}

template <typename Real>
void BasicDensityMatrixBackend<Real>::apply_plan(const ExecutionPlan& plan) {
  QTDA_REQUIRE(plan.num_qubits() == num_qubits(),
               "plan width " << plan.num_qubits()
                             << " does not match backend width "
                             << num_qubits());
  for (const CompiledOp& op : plan.ops()) {
    if (op.kind == CompiledOp::Kind::kDiagonal) {
      // DρD† in one pass over vec(ρ), no dense 2^m×2^m fallback.
      state_.apply_diagonal(compiled_diagonal<Real>(op), op.diag_extract);
    } else {
      state_.apply_gate(op.gate);
    }
  }
  // Global phase cancels on ρ.
}

template <typename Real>
void BasicDensityMatrixBackend<Real>::apply_operator(
    const LinearOperator& op, const std::vector<std::size_t>& targets,
    const std::vector<std::size_t>& controls) {
  state_.apply_operator(op, targets, controls);
}

template <typename Real>
void BasicDensityMatrixBackend<Real>::apply_depolarizing(std::size_t qubit,
                                                         double probability,
                                                         Rng& rng) {
  // Exact channel: deterministic, so the Rng of the trajectory-shaped
  // contract is intentionally untouched (exact_channels() advertises this).
  (void)rng;
  state_.apply_depolarizing(qubit, probability);
}

template <typename Real>
std::vector<double> BasicDensityMatrixBackend<Real>::marginal_probabilities(
    const std::vector<std::size_t>& qubits) const {
  return state_.marginal_probabilities(qubits);
}

template <typename Real>
std::vector<std::uint64_t> BasicDensityMatrixBackend<Real>::sample(
    const std::vector<std::size_t>& qubits, std::size_t shots,
    Rng& rng) const {
  return state_.sample_counts(qubits, shots, rng);
}

template class BasicStatevectorBackend<double>;
template class BasicStatevectorBackend<float>;
template class BasicDensityMatrixBackend<double>;
template class BasicDensityMatrixBackend<float>;

namespace {

template <typename Real>
std::unique_ptr<SimulatorBackend> make_simulator_at(SimulatorKind kind,
                                                    std::size_t num_qubits,
                                                    std::size_t shards) {
  switch (kind) {
    case SimulatorKind::kStatevector:
      return std::make_unique<BasicStatevectorBackend<Real>>(num_qubits,
                                                             shards);
    case SimulatorKind::kDensityMatrix:
      return std::make_unique<BasicDensityMatrixBackend<Real>>(num_qubits);
  }
  QTDA_REQUIRE(false, "unknown simulator kind");
  return nullptr;
}

}  // namespace

SimulatorConfig resolve_simulator(SimulatorKind kind, std::size_t shards,
                                  Precision precision) {
  // CI / debugging hook: force every factory-built engine onto one kind,
  // chunk count and precision without touching call sites.  Safe for the
  // chunk count (it never changes results); the density-matrix engine
  // additionally needs make_simulator's width guard because of its 4^n
  // storage cap.
  SimulatorConfig config{kind, shards, precision, false};
  if (const char* forced = std::getenv("QTDA_SIMULATOR");
      forced != nullptr && *forced != '\0') {
    // Re-raise parse failures with the variable named: a malformed override
    // set process-wide (e.g. by CI) must not surface as a bare unknown-name
    // error with no hint where the name came from.
    try {
      config.kind = simulator_kind_from_name(forced);
    } catch (const Error&) {
      QTDA_REQUIRE(false, "QTDA_SIMULATOR=\""
                              << forced
                              << "\" is not a valid simulator name (valid: "
                              << simulator_kind_names() << ")");
    }
    config.kind_forced = true;
  }
  if (const char* forced = std::getenv("QTDA_SHARDS");
      forced != nullptr && *forced != '\0') {
    char* end = nullptr;
    const long value = std::strtol(forced, &end, 10);
    QTDA_REQUIRE(end != forced && *end == '\0' && value >= 1,
                 "QTDA_SHARDS=\"" << forced
                                  << "\" is not a valid shard count (need an "
                                     "integer >= 1)");
    config.shards = static_cast<std::size_t>(value);
  }
  // Throws with the variable named on malformed values (see precision.hpp).
  if (const std::optional<Precision> forced = precision_from_env())
    config.precision = *forced;
  // Validate QTDA_SIMD eagerly too: a typo'd SIMD override should fail at
  // engine construction, attributed to its variable, not when the first hot
  // kernel dispatches.
  (void)simd_level_from_env();
  return config;
}

std::unique_ptr<SimulatorBackend> make_simulator(SimulatorKind kind,
                                                 std::size_t num_qubits,
                                                 std::size_t shards,
                                                 Precision precision) {
  const SimulatorConfig config = resolve_simulator(kind, shards, precision);
  if (config.kind == SimulatorKind::kDensityMatrix &&
      num_qubits > kDensityMatrixMaxQubits) {
    QTDA_REQUIRE(false,
                 "the density-matrix simulator stores 4^n amplitudes and "
                 "supports at most "
                     << kDensityMatrixMaxQubits << " qubits, but "
                     << num_qubits << " were requested"
                     << (config.kind_forced
                             ? " (QTDA_SIMULATOR=density-matrix forced the "
                               "engine; unset it or use a statevector engine "
                               "for registers this wide)"
                             : ""));
  }
  return config.precision == Precision::kFloat64
             ? make_simulator_at<double>(config.kind, num_qubits,
                                         config.shards)
             : make_simulator_at<float>(config.kind, num_qubits,
                                        config.shards);
}

}  // namespace qtda
