/// \file noise.hpp
/// \brief Stochastic Pauli (depolarizing) noise — the paper's NISQ
/// future-work axis.
///
/// A depolarizing channel of strength p on a qubit applies a uniformly
/// random non-identity Pauli with probability p.  The noisy executor
/// inserts such errors after every gate, on every qubit the gate touches,
/// with separate strengths for single- and multi-qubit gates (hardware
/// two-qubit error rates are typically an order of magnitude worse).
#pragma once

#include <cstddef>

#include "common/error.hpp"
#include "common/random.hpp"
#include "quantum/circuit.hpp"
#include "quantum/compiler.hpp"
#include "quantum/gates.hpp"
#include "quantum/statevector.hpp"

namespace qtda {

/// Depolarizing noise strengths.
struct NoiseModel {
  double single_qubit_error = 0.0;  ///< per touched qubit, 1q gates
  double two_qubit_error = 0.0;     ///< per touched qubit, ≥2q gates

  bool is_noiseless() const {
    return single_qubit_error <= 0.0 && two_qubit_error <= 0.0;
  }
};

/// Applies one stochastic depolarizing event to \p qubit with probability
/// \p probability (X, Y or Z uniformly when it fires).  Templated over the
/// engine (any state exposing apply_single_qubit, at either precision) so
/// every backend consumes the RNG identically: one Bernoulli draw, then one
/// uniform index when the error fires.
template <typename State>
void maybe_apply_depolarizing(State& state, std::size_t qubit,
                              double probability, Rng& rng) {
  if (probability <= 0.0) return;
  QTDA_REQUIRE(probability <= 1.0, "error probability above 1");
  if (!rng.bernoulli(probability)) return;
  switch (rng.uniform_index(3)) {
    case 0:
      state.apply_single_qubit(gates::X(), qubit);
      break;
    case 1:
      state.apply_single_qubit(gates::Y(), qubit);
      break;
    default:
      state.apply_single_qubit(gates::Z(), qubit);
      break;
  }
}

/// The error-placement policy shared by every noisy executor (trajectory
/// sampler, exact density-matrix channel, backend default): after each gate,
/// one depolarizing event per touched qubit — targets before controls — at
/// the multi-qubit strength when the gate touches ≥ 2 wires.  Existing in
/// one place only, the three executors cannot drift apart.
/// \p apply_gate is invoked as apply_gate(const Gate&), \p apply_error as
/// apply_error(qubit, probability).
template <typename ApplyGate, typename ApplyError>
void for_each_gate_with_noise(const Circuit& circuit, const NoiseModel& noise,
                              ApplyGate&& apply_gate,
                              ApplyError&& apply_error) {
  for (const Gate& gate : circuit.gates()) {
    apply_gate(gate);
    const bool multi = gate.targets.size() + gate.controls.size() >= 2;
    const double p = multi ? noise.two_qubit_error : noise.single_qubit_error;
    if (p <= 0.0) continue;
    for (std::size_t q : gate.targets) apply_error(q, p);
    for (std::size_t q : gate.controls) apply_error(q, p);
  }
}

/// Runs one noisy trajectory of the circuit from |0…0⟩.
Statevector run_noisy_trajectory(const Circuit& circuit,
                                 const NoiseModel& noise, Rng& rng);

/// Compile-once variant for trajectory ensembles: the plan must have been
/// compiled with preserve_noise_slots, so every trajectory reuses the
/// precompiled ops instead of re-walking the raw gate IR (matrix
/// construction and mask building per gate per trajectory).  Error
/// placement and RNG consumption are identical to the Circuit overload.
Statevector run_noisy_trajectory(const ExecutionPlan& plan,
                                 const NoiseModel& noise, Rng& rng);

}  // namespace qtda
