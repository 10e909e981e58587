/// \file backend.hpp
/// \brief Pluggable simulator backends.
///
/// The estimator and pipeline drive simulations through this interface
/// instead of a concrete Statevector, so alternative engines — such as the
/// exact density-matrix backend for noise studies — can drop in without
/// touching the algorithm layer.  The contract is deliberately small:
/// prepare a basis state, apply gates/circuits, apply a matrix-free
/// operator to a sub-register, inject depolarizing noise, and sample.
///
/// Every engine exists at two precisions (quantum/precision.hpp): the
/// backend classes are templated over the amplitude scalar and the factory
/// picks the width from EstimatorOptions::precision or the QTDA_PRECISION
/// environment override.  A backend's name() reports its *kind* only —
/// "statevector" at float is still interchangeable with "statevector" at
/// double through this interface.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "linalg/linear_operator.hpp"
#include "quantum/circuit.hpp"
#include "quantum/compiler.hpp"
#include "quantum/density_matrix.hpp"
#include "quantum/noise.hpp"
#include "quantum/precision.hpp"
#include "quantum/statevector.hpp"

namespace qtda {

/// Which simulation engine executes the circuits.
enum class SimulatorKind {
  kStatevector,    ///< dense state vector (the reference engine)
  kDensityMatrix,  ///< exact-channel ρ evolution (4^n storage, q ≤ 13)
};

/// Printable name ("statevector", …).
std::string simulator_kind_name(SimulatorKind kind);

/// Comma-separated list of every valid simulator name (for CLI help and
/// error messages).
std::string simulator_kind_names();

/// Inverse of simulator_kind_name: parses a simulator name from the CLI or
/// the QTDA_SIMULATOR environment override.  Throws an Error listing the
/// valid names when \p name matches none of them.
SimulatorKind simulator_kind_from_name(const std::string& name);

/// One simulation engine instance holding the quantum state.
class SimulatorBackend {
 public:
  virtual ~SimulatorBackend() = default;

  virtual std::string name() const = 0;
  virtual std::size_t num_qubits() const = 0;

  /// The amplitude scalar width this engine runs at.
  virtual Precision precision() const = 0;

  /// Resets the state to the computational basis state |index⟩.
  virtual void prepare_basis_state(std::uint64_t index) = 0;

  /// Applies one gate from the circuit IR (named, dense or operator kind).
  virtual void apply_gate(const Gate& gate) = 0;

  /// Applies a full circuit including its global phase.
  virtual void apply_circuit(const Circuit& circuit) = 0;

  /// Multiplies the state by e^{iφ} (a no-op for density-matrix engines,
  /// where the phase cancels on ρ).
  virtual void apply_global_phase(double phi) = 0;

  /// Executes a compiled plan (quantum/compiler.hpp), including its global
  /// phase.  The default walks the plan's ops through apply_gate — every
  /// backend gets gate fusion and the precompiled matrices for free; dense
  /// engines override with a masks-and-scratch fast path.  One plan may be
  /// reused across many executions (that is the point); the engine owns the
  /// scratch, so the plan's only mutable state is its lazy complex64
  /// mirrors, filled by the first float execution.
  virtual void apply_plan(const ExecutionPlan& plan);

  /// Noisy counterpart of apply_plan: the plan must have been compiled with
  /// preserve_noise_slots, so each op carries the touched-qubit slot of its
  /// source gate and the walk keeps apply_circuit_with_noise's exact error
  /// placement and RNG consumption order while skipping all per-gate setup.
  /// The global phase is dropped, as in apply_circuit_with_noise.
  virtual void apply_plan_with_noise(const ExecutionPlan& plan,
                                     const NoiseModel& noise, Rng& rng);

  /// Applies a matrix-free operator to the ordered target sub-register
  /// (MSB-first convention of apply_unitary), conditioned on controls.
  virtual void apply_operator(const LinearOperator& op,
                              const std::vector<std::size_t>& targets,
                              const std::vector<std::size_t>& controls) = 0;

  /// One stochastic depolarizing event on \p qubit with probability \p p
  /// (trajectory noise; exact-channel backends may implement it exactly).
  virtual void apply_depolarizing(std::size_t qubit, double probability,
                                  Rng& rng) = 0;

  /// True when apply_depolarizing applies the exact channel (deterministic
  /// — the Rng is not consumed), so a single noisy evolution already yields
  /// the full ensemble state and callers can draw every shot from it instead
  /// of re-running one trajectory per shot.
  virtual bool exact_channels() const { return false; }

  /// Applies the circuit with the depolarizing model injected after each
  /// gate on every touched qubit (run_noisy_trajectory's error placement and
  /// RNG consumption order) to the *current* state — callers prepare the
  /// initial state first.  The circuit's global phase is dropped: it is
  /// unobservable through this interface's measurements and cancels on ρ.
  /// Trajectory backends sample one stochastic trajectory; exact-channel
  /// backends evolve the ensemble itself.
  virtual void apply_circuit_with_noise(const Circuit& circuit,
                                        const NoiseModel& noise, Rng& rng);

  /// Marginal distribution over an ordered qubit subset (MSB-first).
  virtual std::vector<double> marginal_probabilities(
      const std::vector<std::size_t>& qubits) const = 0;

  /// Draws \p shots outcomes over the given qubits; counts by outcome.
  virtual std::vector<std::uint64_t> sample(
      const std::vector<std::size_t>& qubits, std::size_t shots,
      Rng& rng) const = 0;
};

/// Dense state-vector implementation — the first (reference) backend.
/// \p chunks splits every gate sweep over the shared pool (0 and 1 run
/// serially); state, marginals and samples are the same bytes for every
/// count.
template <typename Real>
class BasicStatevectorBackend final : public SimulatorBackend {
 public:
  explicit BasicStatevectorBackend(std::size_t num_qubits,
                                   std::size_t chunks = 1);

  std::string name() const override { return "statevector"; }
  std::size_t num_qubits() const override { return state_.num_qubits(); }
  Precision precision() const override { return precision_of<Real>(); }
  void prepare_basis_state(std::uint64_t index) override;
  void apply_gate(const Gate& gate) override;
  void apply_circuit(const Circuit& circuit) override;
  void apply_global_phase(double phi) override;
  /// Fast path: precomputed masks/offsets + the engine's own scratch — no
  /// per-gate validation or matrix building, and no allocation after the
  /// first execution on this backend.
  void apply_plan(const ExecutionPlan& plan) override;
  void apply_plan_with_noise(const ExecutionPlan& plan,
                             const NoiseModel& noise, Rng& rng) override;
  void apply_operator(const LinearOperator& op,
                      const std::vector<std::size_t>& targets,
                      const std::vector<std::size_t>& controls) override;
  void apply_depolarizing(std::size_t qubit, double probability,
                          Rng& rng) override;
  std::vector<double> marginal_probabilities(
      const std::vector<std::size_t>& qubits) const override;
  std::vector<std::uint64_t> sample(const std::vector<std::size_t>& qubits,
                                    std::size_t shots, Rng& rng) const override;

  /// The underlying state, for backend-aware diagnostics and tests.
  const BasicStatevector<Real>& state() const { return state_; }
  BasicStatevector<Real>& state() { return state_; }

 private:
  BasicStatevector<Real> state_;
};

using StatevectorBackend = BasicStatevectorBackend<double>;
using StatevectorBackendF32 = BasicStatevectorBackend<float>;

/// Exact-channel implementation: evolves ρ itself (4^n vectorized storage,
/// at most 13 qubits), so depolarizing noise is applied *exactly* instead of
/// sampled — the reference that trajectory ensembles converge to.  Gates run
/// as U ⊗ conj(U) on the 2n-qubit vectorization; matrix-free operator gates
/// stay matrix-free via the ConjugatedOperator adapter on the column
/// register, so the sparse QPE oracle composes with exact noise.
/// apply_depolarizing keeps the Rng signature of the contract but never
/// consumes it (exact_channels() returns true): one noisy evolution is the
/// whole ensemble, and every shot samples from it.
template <typename Real>
class BasicDensityMatrixBackend final : public SimulatorBackend {
 public:
  explicit BasicDensityMatrixBackend(std::size_t num_qubits);

  std::string name() const override { return "density-matrix"; }
  std::size_t num_qubits() const override { return state_.num_qubits(); }
  Precision precision() const override { return precision_of<Real>(); }
  void prepare_basis_state(std::uint64_t index) override;
  void apply_gate(const Gate& gate) override;
  void apply_circuit(const Circuit& circuit) override;
  void apply_global_phase(double phi) override;
  /// Plan execution with native one-pass DρD† diagonals.
  void apply_plan(const ExecutionPlan& plan) override;
  void apply_operator(const LinearOperator& op,
                      const std::vector<std::size_t>& targets,
                      const std::vector<std::size_t>& controls) override;
  void apply_depolarizing(std::size_t qubit, double probability,
                          Rng& rng) override;
  bool exact_channels() const override { return true; }
  std::vector<double> marginal_probabilities(
      const std::vector<std::size_t>& qubits) const override;
  std::vector<std::uint64_t> sample(const std::vector<std::size_t>& qubits,
                                    std::size_t shots, Rng& rng) const override;

  /// The underlying density matrix, for backend-aware diagnostics and tests.
  const BasicDensityMatrix<Real>& state() const { return state_; }
  BasicDensityMatrix<Real>& state() { return state_; }

 private:
  BasicDensityMatrix<Real> state_;
};

using DensityMatrixBackend = BasicDensityMatrixBackend<double>;
using DensityMatrixBackendF32 = BasicDensityMatrixBackend<float>;

extern template class BasicStatevectorBackend<double>;
extern template class BasicStatevectorBackend<float>;
extern template class BasicDensityMatrixBackend<double>;
extern template class BasicDensityMatrixBackend<float>;

/// The engine a factory call builds once the environment overrides apply.
struct SimulatorConfig {
  SimulatorKind kind = SimulatorKind::kStatevector;
  std::size_t shards = 0;
  Precision precision = Precision::kFloat64;
  bool kind_forced = false;  ///< QTDA_SIMULATOR chose the kind
};

/// Applies the environment overrides below to a requested engine: callers
/// that key results on the engine see exactly what make_simulator builds.
SimulatorConfig resolve_simulator(SimulatorKind kind, std::size_t shards,
                                  Precision precision);

/// Factory used by the estimator options plumbing.  \p shards is the
/// statevector engine's sweep chunk count (0 and 1 run serially; the
/// density-matrix engine ignores it); \p precision selects the amplitude
/// scalar (complex128 by default).
///
/// Environment overrides (read per call, see resolve_simulator):
/// QTDA_SIMULATOR forces the engine by name, QTDA_SHARDS forces the chunk
/// count, and QTDA_PRECISION forces the scalar width — the hooks the CI legs
/// use to route the whole unmodified test suite through chunked sweeps or
/// the complex64 engines.  QTDA_SIMD is validated eagerly here too, so a
/// malformed SIMD override fails at backend construction with the variable
/// named instead of deep inside the first hot kernel.  Malformed values fail fast with
/// the variable named in the error, and forcing density-matrix onto a
/// register wider than its 13-qubit 4^n storage cap is rejected here
/// (clearly attributed to the override) instead of surfacing a construction
/// failure from deep inside a run.
std::unique_ptr<SimulatorBackend> make_simulator(
    SimulatorKind kind, std::size_t num_qubits, std::size_t shards = 0,
    Precision precision = Precision::kFloat64);

}  // namespace qtda
