/// \file compiler.hpp
/// \brief Circuit compilation: lowering a Circuit into an ExecutionPlan.
///
/// The gate IR is built for clarity — one named gate per list entry — but
/// executing it verbatim costs one full pass over the 2^n amplitudes *per
/// gate*: an H-wall on t precision qubits is t sweeps, a QFT another
/// t(t+1)/2.  The compiler removes that tax once, ahead of execution:
///
///  * **Gate fusion** (qsim style): adjacent gates whose combined support
///    stays within `fuse_width` qubits are greedily merged — across
///    commuting, wire-disjoint neighbours — into single dense-block gates,
///    so dozens of sweeps collapse into one.  Controls are folded into the
///    fused block (a controlled-U is just a bigger unitary).  A per-cluster
///    cost model compares the fused block against the sweeps it replaces
///    and falls back to the verbatim gates when fusing would lose.
///  * **Diagonal fusion**: runs of diagonal gates (Z/S/T/RZ/Phase and their
///    controlled forms — the controlled-phase rungs that dominate the QFT
///    and the QPE oracle ladder) merge into single diagonal ops over up to
///    kMaxDiagonalWidth qubits.  A fused diagonal costs *one* multiply per
///    amplitude regardless of how many gates it absorbed — the biggest
///    single-sweep collapse in the QPE network.
///  * **Precompilation**: every op carries its masks, local-offset tables,
///    block-base enumeration and materialized matrices, so executing a plan
///    performs no per-gate validation, mask building, or matrix
///    construction — the costs a trajectory ensemble otherwise pays
///    hundreds of times.
///  * **Noise slots**: compiled with `preserve_noise_slots`, the plan keeps
///    one op per source gate and records each gate's touched qubits, so the
///    noisy walk (for_each_gate_with_noise) keeps the *exact* error
///    placement and RNG draw order of the uncompiled path while still
///    skipping all per-gate setup.
///
/// Environment knobs (read by compiler_options_from_env): `QTDA_FUSE=0`
/// disables fusion entirely — the plan then reproduces today's gate-by-gate
/// arithmetic bit for bit — and `QTDA_FUSE_WIDTH` overrides the maximum
/// fused support (default 4).
///
/// A plan is engine-agnostic and owns no execution buffers: the engine that
/// runs it owns its gather/scatter and operator batch scratch.  It may be
/// executed many times (all QPE shots and all noise trajectories of an
/// estimate reuse one plan).  Its only mutable state is the lazily built
/// complex64 mirrors of CompiledOp, so executions at float precision must
/// be serialized by the caller (the serving layer's PlanArtifact::exec_mutex
/// also guards its distribution memo).
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "quantum/circuit.hpp"
#include "quantum/register_layout.hpp"
#include "quantum/types.hpp"

namespace qtda {

/// Compilation knobs.
struct CompilerOptions {
  /// Master fusion switch; off, every source gate lowers to exactly one op
  /// with its original targets/controls — bit-identical to the uncompiled
  /// walk.
  bool fuse = true;
  /// Maximum qubit support of a fused dense block (clamped to [1, 8];
  /// 2^k×2^k dense blocks).  Width 1 still merges runs of gates on one
  /// wire.
  std::size_t fuse_width = 4;
  /// Maximum qubit support of a fused diagonal (clamped to
  /// [1, kMaxDiagonalWidth]).  Engines without native diagonal execution
  /// (anything relying on the generic apply_plan fallback, which densifies
  /// diagonals) should compile with ≤ 8.  The QTDA_FUSE_WIDTH override
  /// lowers this bound too, so forcing width 1 really does approach the
  /// per-gate walk.
  std::size_t diagonal_width = 12;
  /// Keep one op per source gate and record its noise slot (touched qubits,
  /// strength class) so noisy execution preserves the exact error placement
  /// and RNG consumption order of the unfused walk.  Implies no cross-gate
  /// fusion.
  bool preserve_noise_slots = false;
};

/// \p base overridden by the environment: QTDA_FUSE (0/1) and
/// QTDA_FUSE_WIDTH (integer ≥ 1).  Malformed values fail fast naming the
/// variable, mirroring the QTDA_SIMULATOR convention.
CompilerOptions compiler_options_from_env(CompilerOptions base = {});

/// Canonical cache-key token of the options ("fuse=1,width=4,diag=12,
/// noise=0"): two CompilerOptions produce interchangeable plans for the
/// same circuit iff their tokens are equal.  This is the fuse-settings
/// component of the serving layer's content-keyed plan cache — keying on
/// the token (instead of a hash of it) keeps distinct settings structurally
/// incapable of colliding.
std::string compiler_options_cache_key(const CompilerOptions& options);

/// Hard ceiling of CompilerOptions::diagonal_width (4096-entry tables,
/// 64 KB — cache-resident, and wide enough that a whole QPE
/// controlled-phase ladder collapses into a handful of passes;
/// register_layout.hpp's apply_diagonal_run dispatch must cover this
/// width).
inline constexpr std::size_t kMaxDiagonalWidth = 12;

/// One executable unit of a plan.
struct CompiledOp {
  enum class Kind {
    kSingleQubit,  ///< 2×2 matrix, precomputed entries + masks
    kBlock,        ///< dense 2^m×2^m block over ordered targets
    kDiagonal,     ///< fused diagonal: one table lookup + multiply per amp
    kOperator,     ///< matrix-free LinearOperator gate
  };

  Kind kind = Kind::kSingleQubit;

  /// The op as an ordinary IR gate — the engine-agnostic representation
  /// every SimulatorBackend::apply_gate understands (named single-qubit
  /// gates are materialized to kUnitary so no engine rebuilds matrices per
  /// application).  For kDiagonal ops the matrix is left empty — engines
  /// execute the `diagonal` table directly; a generic fallback densifies on
  /// demand via dense_gate().
  Gate gate;

  /// The op as a directly executable gate: for kDiagonal, `gate` with its
  /// dense 2^m×2^m matrix materialized from the table; otherwise `gate`
  /// itself.  Only the engine-agnostic fallback path pays this.
  Gate dense_gate() const;

  // -- precomputed execution data (dense-engine fast path) -------------------
  std::uint64_t tmask = 0;  ///< union of target bits
  std::uint64_t cmask = 0;  ///< union of control bits
  Amplitude u00, u01, u10, u11;          ///< kSingleQubit matrix entries
  std::vector<std::uint64_t> offsets;    ///< local-index → global offset
  std::vector<std::uint64_t> bases;      ///< kOperator block bases
  bool contiguous = false;               ///< kOperator memcpy layout
  /// kDiagonal: the 2^m phase table (local convention of offsets) and the
  /// shift/mask recipe extracting its index from a global index.
  std::vector<Amplitude> diagonal;
  DiagonalExtract diag_extract;

  // -- noise slot (meaningful when the plan preserves noise slots) -----------
  std::vector<std::size_t> noise_qubits;  ///< targets then controls
  bool noise_multi = false;  ///< ≥2 touched wires → two-qubit strength

  /// How many source gates this op absorbed (1 unless fused).
  std::size_t fused_gates = 1;

  /// Lazily-built complex64 mirror of `diagonal`, for the float-precision
  /// executors (compiled_diagonal<float>).  Built on first use without
  /// locking, so float executions of one plan must be serialized (the
  /// plan's one mutable-state contract; see the file comment).
  const std::vector<std::complex<float>>& diagonal_f32() const {
    if (diagonal_f32_.empty() && !diagonal.empty()) {
      diagonal_f32_.reserve(diagonal.size());
      for (const Amplitude& d : diagonal)
        diagonal_f32_.emplace_back(static_cast<float>(d.real()),
                                   static_cast<float>(d.imag()));
    }
    return diagonal_f32_;
  }

  /// Lazily-built complex64 mirror of the dense matrix (row-major), same
  /// contract as diagonal_f32().
  const std::vector<std::complex<float>>& matrix_f32() const {
    const std::size_t n = gate.matrix.rows() * gate.matrix.cols();
    if (matrix_f32_.empty() && n != 0) {
      matrix_f32_.reserve(n);
      const Amplitude* src = gate.matrix.data();
      for (std::size_t i = 0; i < n; ++i)
        matrix_f32_.emplace_back(static_cast<float>(src[i].real()),
                                 static_cast<float>(src[i].imag()));
    }
    return matrix_f32_;
  }

 private:
  mutable std::vector<std::complex<float>> diagonal_f32_;
  mutable std::vector<std::complex<float>> matrix_f32_;
};

/// What the compiler did — surfaced by `--stats` drivers and asserted by
/// tests.
struct CompilerStats {
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  std::size_t fused_blocks = 0;     ///< ops absorbing ≥ 2 source gates
  std::size_t diagonal_blocks = 0;  ///< the fused ops that are diagonal
  std::size_t operator_gates = 0;   ///< matrix-free passthrough ops
  /// block_width_histogram[w] = number of fused ops (dense or diagonal)
  /// with support w (index 0 unused).
  std::vector<std::size_t> block_width_histogram;

  /// Multi-line human-readable rendering.
  std::string to_string() const;
};

/// Precision-keyed views of a CompiledOp's materialized tables: the
/// templated engines pick their tables through these so one executor body
/// serves both scalars.

/// The diagonal table of a kDiagonal op at the executor's precision.
template <typename Real>
const std::complex<Real>* compiled_diagonal(const CompiledOp& op);
template <>
inline const Amplitude* compiled_diagonal<double>(const CompiledOp& op) {
  return op.diagonal.data();
}
template <>
inline const std::complex<float>* compiled_diagonal<float>(
    const CompiledOp& op) {
  return op.diagonal_f32().data();
}

/// The dense matrix of a kBlock op (row-major) at the executor's precision.
template <typename Real>
const std::complex<Real>* compiled_matrix_data(const CompiledOp& op);
template <>
inline const Amplitude* compiled_matrix_data<double>(const CompiledOp& op) {
  return op.gate.matrix.data();
}
template <>
inline const std::complex<float>* compiled_matrix_data<float>(
    const CompiledOp& op) {
  return op.matrix_f32().data();
}

/// A compiled, execute-many circuit (immutable apart from the lazy
/// complex64 mirrors of its ops).
class ExecutionPlan {
 public:
  std::size_t num_qubits() const { return num_qubits_; }
  double global_phase() const { return global_phase_; }
  const std::vector<CompiledOp>& ops() const { return ops_; }
  const CompilerStats& stats() const { return stats_; }
  /// True when the plan was compiled with preserve_noise_slots — the
  /// precondition of every *_with_noise execution path.
  bool preserves_noise_slots() const { return noise_slots_; }

  /// Approximate resident size of the plan: compiled matrices, diagonal
  /// tables, offset/base enumerations, and every distinct operator its
  /// operator gates hold (LinearOperator::memory_bytes), with storage the
  /// operators share — the CSR of a ladder's t powers — counted once.  The
  /// byte-budget accounting unit of the serving layer's plan cache.  It
  /// does not change when the plan executes: the lazily-built complex64
  /// mirrors are counted as if materialized, and execution scratch belongs
  /// to the engine.
  std::size_t memory_bytes() const;

 private:
  friend ExecutionPlan compile_circuit(const Circuit&, const CompilerOptions&);

  std::size_t num_qubits_ = 0;
  double global_phase_ = 0.0;
  bool noise_slots_ = false;
  std::vector<CompiledOp> ops_;
  CompilerStats stats_;
};

/// Lowers \p circuit into an ExecutionPlan under explicit options (pass
/// compiler_options_from_env() to honour the QTDA_FUSE* overrides, as the
/// estimator does).
ExecutionPlan compile_circuit(const Circuit& circuit,
                              const CompilerOptions& options);

/// The compiled counterpart of noise.hpp's for_each_gate_with_noise: walks
/// a noise-slot-preserving plan, invoking `apply_op(const CompiledOp&)` per
/// op and `apply_error(qubit, probability)` for every touched qubit of its
/// source gate (targets before controls, multi-qubit strength when the
/// gate touched ≥ 2 wires).  Every noisy plan executor routes through this
/// one walk, so the error placement and RNG draw order of the compiled and
/// uncompiled paths cannot drift apart.
template <typename NoiseModelT, typename ApplyOp, typename ApplyError>
void for_each_plan_op_with_noise(const ExecutionPlan& plan,
                                 const NoiseModelT& noise, ApplyOp&& apply_op,
                                 ApplyError&& apply_error) {
  for (const CompiledOp& op : plan.ops()) {
    apply_op(op);
    const double p =
        op.noise_multi ? noise.two_qubit_error : noise.single_qubit_error;
    if (p <= 0.0) continue;
    for (std::size_t q : op.noise_qubits) apply_error(q, p);
  }
}

}  // namespace qtda
