#include "quantum/noise.hpp"

namespace qtda {

Statevector run_noisy_trajectory(const Circuit& circuit,
                                 const NoiseModel& noise, Rng& rng) {
  Statevector state(circuit.num_qubits());
  for_each_gate_with_noise(
      circuit, noise, [&](const Gate& gate) { state.apply_gate(gate); },
      [&](std::size_t q, double p) {
        maybe_apply_depolarizing(state, q, p, rng);
      });
  if (circuit.global_phase() != 0.0)
    state.apply_global_phase(circuit.global_phase());
  return state;
}

Statevector run_noisy_trajectory(const ExecutionPlan& plan,
                                 const NoiseModel& noise, Rng& rng) {
  QTDA_REQUIRE(plan.preserves_noise_slots(),
               "trajectory execution needs a plan compiled with "
               "preserve_noise_slots");
  Statevector state(plan.num_qubits());
  for_each_plan_op_with_noise(
      plan, noise, [&](const CompiledOp& op) { state.apply_plan_op(op); },
      [&](std::size_t q, double p) {
        maybe_apply_depolarizing(state, q, p, rng);
      });
  if (plan.global_phase() != 0.0)
    state.apply_global_phase(plan.global_phase());
  return state;
}

}  // namespace qtda
