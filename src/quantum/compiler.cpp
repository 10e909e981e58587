#include "quantum/compiler.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <unordered_set>

#include "common/cpu_features.hpp"
#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "linalg/matrix_ops.hpp"
#include "quantum/register_layout.hpp"

namespace qtda {

namespace {

/// Hard ceiling of the fused dense-block support (2^8×2^8 blocks).
constexpr std::size_t kMaxFuseWidth = 8;

// -- cost model --------------------------------------------------------------
// Per-amplitude costs in units of one complex multiply, used to decide
// whether a finished cluster is emitted fused or as its verbatim gates.
// Every gate — fused or not — is one full pass over the state; kPassCost is
// the loop/memory overhead of such a pass, which is what fusion eliminates.
// A 2^m dense block costs 2^m multiplies per amplitude, so fusing only wins
// when the absorbed gates' arithmetic plus their saved passes outweigh that
// (measured: a cache-resident single-qubit sweep is almost pure arithmetic,
// hence the small pass constant); a fused diagonal costs ~2 (branchless
// index extraction + one multiply) regardless of how many gates it
// absorbed, which is where the QPE networks' controlled-phase ladders
// collapse.

constexpr double kPassCost = 1.0;
constexpr double kGatherCost = 2.0;

double gate_sweep_cost(const Gate& gate) {
  const double arithmetic =
      std::ldexp(1.0, static_cast<int>(gate.targets.size())) /
      std::ldexp(1.0, static_cast<int>(gate.controls.size()));
  return arithmetic + kPassCost;
}

/// Per-amplitude cost of one fused pass.  Width-2 dense blocks run through
/// a specialized pair kernel (no offset-table gather); wider blocks pay the
/// generic gather + matmul — priced in so a block is only emitted when it
/// genuinely beats the gates it replaces.
///
/// Two calibrations, selected by the runtime kernel dispatch level,
/// because vectorization shifts the ratios the model prices:
///
///  * Scalar (QTDA_SIMD=0): the historical constants, re-confirmed against
///    the scalar kernels (four-point pass 3.3× a pair sweep → width-2 at
///    13.0; diagonal pass 1.3× → 2.0 + pass).  Keeping these untouched
///    also keeps scalar plan shapes — and therefore the pre-vectorization
///    bit-identity fingerprints — byte-stable.
///  * Vectorized (AVX2/AVX-512): re-measured per amplitude against the
///    dispatched kernels (bench_micro_simd plus a pair-sweep-normalized
///    calibration sweep).  The four-point pass dropped to 2.1× a
///    vectorized pair sweep (both vectorize well) → width-2 at 7.0, so
///    2-wide fusion now pays off around 3 absorbed gates instead of ~5.
///    The table-lookup diagonal pass vectorizes worst of the four hot
///    loops (gather-bound): 2.4× a pair sweep, ≈7.3 units measured.  It
///    is priced at 6.0 — the profitable-growth bound (kGrowthSlack admits
///    a ladder's second rung only at ≤ 6.0) — which still flips the
///    decision the measurement calls for: 2-gate diagonal runs stay
///    verbatim, runs of 3+ (every QPE ladder that matters) collapse.
///    Wide blocks measured 33/38/73 units at widths 3/4/5 vs the model's
///    23/43/83: the 2.5·2^m form still brackets the data (fixed per-block
///    overhead dominates width 3, vector throughput wins at 4–5), so it
///    is kept for both calibrations.
double fused_sweep_cost(bool diagonal, std::size_t width) {
  if (width <= 1) return 2.0 + kPassCost;  // emitted as a plain pair sweep
  const bool vectorized = active_simd_level() != SimdLevel::kScalar;
  if (diagonal) return vectorized ? 6.0 : 2.0 + kPassCost;
  if (width == 2) return vectorized ? 7.0 : 13.0;
  return 2.5 * std::ldexp(1.0, static_cast<int>(width)) + kGatherCost +
         kPassCost;
}

/// Headroom allowed while a cluster grows: a merge may dip below
/// profitability by this much, because later gates can land in the same
/// support and pay it back (a swap's three CNOTs only become profitable at
/// the third).  The emission check is the final arbiter.
constexpr double kGrowthSlack = 2.0;

// -- support bookkeeping -----------------------------------------------------

/// Sorted union of a gate's targets and controls — the wires a fused block
/// must cover to absorb it.
std::vector<std::size_t> gate_support(const Gate& gate) {
  std::vector<std::size_t> support = gate.targets;
  support.insert(support.end(), gate.controls.begin(), gate.controls.end());
  std::sort(support.begin(), support.end());
  return support;
}

std::size_t union_size(const std::vector<std::size_t>& a,
                       const std::vector<std::size_t>& b) {
  std::size_t count = a.size();
  for (std::size_t q : b)
    if (!std::binary_search(a.begin(), a.end(), q)) ++count;
  return count;
}

std::vector<std::size_t> sorted_union(const std::vector<std::size_t>& a,
                                      const std::vector<std::size_t>& b) {
  std::vector<std::size_t> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

/// Local bit position (LSB-first) of wire \p q inside the ordered support
/// list: support[0] is the most significant local bit, matching the
/// target-list convention of register_layout.hpp.
std::size_t support_bit(const std::vector<std::size_t>& support,
                        std::size_t q) {
  const auto it = std::lower_bound(support.begin(), support.end(), q);
  QTDA_ASSERT(it != support.end() && *it == q, "wire not in fused support");
  return support.size() - 1 -
         static_cast<std::size_t>(std::distance(support.begin(), it));
}

// -- matrix / diagonal embedding ---------------------------------------------

/// The gate's unitary matrix over its own ordered target list.
ComplexMatrix gate_target_matrix(const Gate& gate) {
  return gate.kind == GateKind::kUnitary ? gate.matrix
                                         : gate.single_qubit_matrix();
}

/// True when the gate's action is a diagonal matrix (controls preserve
/// diagonality).  Named diagonal kinds are listed explicitly; dense gates
/// are inspected.
bool is_diagonal_gate(const Gate& gate) {
  switch (gate.kind) {
    case GateKind::kZ:
    case GateKind::kS:
    case GateKind::kSdg:
    case GateKind::kT:
    case GateKind::kTdg:
    case GateKind::kRZ:
    case GateKind::kPhase:
      return true;
    case GateKind::kUnitary: {
      for (std::size_t r = 0; r < gate.matrix.rows(); ++r)
        for (std::size_t c = 0; c < gate.matrix.cols(); ++c)
          if (r != c && gate.matrix(r, c) != Amplitude{}) return false;
      return true;
    }
    default:
      return false;
  }
}

/// Embeds \p gate (matrix over its targets, conditioned on its controls)
/// into the 2^m×2^m unitary over the sorted wire list \p support, which must
/// contain every target and control.  Identity on the remaining wires and on
/// the control-failing subspace.
ComplexMatrix embed_gate_matrix(const Gate& gate,
                                const std::vector<std::size_t>& support) {
  const ComplexMatrix u = gate_target_matrix(gate);
  const std::size_t m = support.size();
  const std::size_t mg = gate.targets.size();
  const std::uint64_t dim = std::uint64_t{1} << m;
  const std::uint64_t block = std::uint64_t{1} << mg;

  // Support-local bit (LSB-first) of every target / control wire.
  std::vector<std::size_t> target_bit(mg);
  for (std::size_t k = 0; k < mg; ++k)
    target_bit[k] = support_bit(support, gate.targets[mg - 1 - k]);
  std::uint64_t control_mask = 0;
  for (std::size_t c : gate.controls)
    control_mask |= std::uint64_t{1} << support_bit(support, c);

  ComplexMatrix out(dim, dim);
  for (std::uint64_t col = 0; col < dim; ++col) {
    if ((col & control_mask) != control_mask) {
      out(col, col) = Amplitude{1.0, 0.0};
      continue;
    }
    std::uint64_t in_local = 0;
    std::uint64_t cleared = col;
    for (std::size_t k = 0; k < mg; ++k) {
      const std::uint64_t bit = std::uint64_t{1} << target_bit[k];
      if (col & bit) in_local |= std::uint64_t{1} << k;
      cleared &= ~bit;
    }
    for (std::uint64_t r = 0; r < block; ++r) {
      std::uint64_t row = cleared;
      for (std::size_t k = 0; k < mg; ++k)
        if ((r >> k) & 1ULL) row |= std::uint64_t{1} << target_bit[k];
      out(row, col) = u(r, in_local);
    }
  }
  return out;
}

/// Diagonal counterpart of embed_gate_matrix: multiplies \p gate's diagonal
/// into \p diag over the support (the gate must be diagonal).
void multiply_gate_diagonal(std::vector<Amplitude>& diag,
                            const Gate& gate,
                            const std::vector<std::size_t>& support) {
  const ComplexMatrix u = gate_target_matrix(gate);
  const std::size_t mg = gate.targets.size();
  std::vector<std::size_t> target_bit(mg);
  for (std::size_t k = 0; k < mg; ++k)
    target_bit[k] = support_bit(support, gate.targets[mg - 1 - k]);
  std::uint64_t control_mask = 0;
  for (std::size_t c : gate.controls)
    control_mask |= std::uint64_t{1} << support_bit(support, c);

  for (std::uint64_t a = 0; a < diag.size(); ++a) {
    if ((a & control_mask) != control_mask) continue;
    std::uint64_t local = 0;
    for (std::size_t k = 0; k < mg; ++k)
      if (a & (std::uint64_t{1} << target_bit[k]))
        local |= std::uint64_t{1} << k;
    diag[a] *= u(local, local);
  }
}

// -- fusion clusters ---------------------------------------------------------

/// An open fusion cluster (or a closed passthrough op awaiting emission).
struct Cluster {
  bool passthrough = false;  ///< operator / too-wide gate, emitted verbatim
  bool diagonal = false;     ///< all members diagonal; `diag` is the action
  std::vector<std::size_t> support;  ///< sorted wires (incl. folded controls)
  ComplexMatrix matrix;              ///< fused unitary (dense clusters)
  std::vector<Amplitude> diag;       ///< fused diagonal (diagonal clusters)
  std::vector<Gate> gates;           ///< members, for cost-model fallback
  double member_cost = 0.0;          ///< Σ gate_sweep_cost over members
};

/// Grows a cluster's action to a wider support (identity on new wires).
void widen_cluster(Cluster& cluster,
                   const std::vector<std::size_t>& new_support) {
  if (new_support == cluster.support) return;
  if (cluster.diagonal) {
    const std::size_t m = cluster.support.size();
    std::vector<std::size_t> old_bit(m);
    for (std::size_t k = 0; k < m; ++k)
      old_bit[k] = support_bit(new_support, cluster.support[m - 1 - k]);
    std::vector<Amplitude> widened(std::uint64_t{1} << new_support.size());
    for (std::uint64_t a = 0; a < widened.size(); ++a) {
      std::uint64_t local = 0;
      for (std::size_t k = 0; k < m; ++k)
        if (a & (std::uint64_t{1} << old_bit[k]))
          local |= std::uint64_t{1} << k;
      widened[a] = cluster.diag[local];
    }
    cluster.diag = std::move(widened);
  } else {
    Gate as_gate;
    as_gate.kind = GateKind::kUnitary;
    as_gate.targets = cluster.support;
    as_gate.matrix = cluster.matrix;
    cluster.matrix = embed_gate_matrix(as_gate, new_support);
  }
  cluster.support = new_support;
}

void absorb_gate(Cluster& cluster, const Gate& gate,
                 const std::vector<std::size_t>& support_g) {
  if (cluster.gates.empty()) {
    cluster.support = support_g;
    if (cluster.diagonal) {
      cluster.diag.assign(std::uint64_t{1} << support_g.size(),
                          Amplitude{1.0, 0.0});
      multiply_gate_diagonal(cluster.diag, gate, support_g);
    } else {
      cluster.matrix = embed_gate_matrix(gate, support_g);
    }
  } else {
    widen_cluster(cluster, sorted_union(cluster.support, support_g));
    if (cluster.diagonal) {
      multiply_gate_diagonal(cluster.diag, gate, cluster.support);
    } else {
      cluster.matrix =
          matmul(embed_gate_matrix(gate, cluster.support), cluster.matrix);
    }
  }
  cluster.gates.push_back(gate);
  cluster.member_cost += gate_sweep_cost(gate);
}

// -- lowering ----------------------------------------------------------------

/// Fills the precomputed execution data of an op from its `gate` field.
void precompute_op(CompiledOp& op, std::size_t num_qubits) {
  const Gate& gate = op.gate;
  const TargetLayout layout =
      build_target_layout(gate.targets, gate.controls, num_qubits);
  op.tmask = layout.tmask;
  op.cmask = layout.cmask;
  switch (op.kind) {
    case CompiledOp::Kind::kSingleQubit: {
      const ComplexMatrix u = gate_target_matrix(gate);
      op.u00 = u(0, 0);
      op.u01 = u(0, 1);
      op.u10 = u(1, 0);
      op.u11 = u(1, 1);
      break;
    }
    case CompiledOp::Kind::kBlock:
      op.offsets = block_offsets(layout.local_bit_mask);
      break;
    case CompiledOp::Kind::kDiagonal:
      op.diag_extract = build_diagonal_extract(layout.local_bit_mask);
      break;
    case CompiledOp::Kind::kOperator:
      op.contiguous = targets_are_trailing(gate.targets, num_qubits);
      if (!op.contiguous) op.offsets = block_offsets(layout.local_bit_mask);
      op.bases = enumerate_block_bases(std::uint64_t{1} << num_qubits,
                                       layout.tmask, layout.cmask);
      break;
  }
}

/// Lowers one source gate verbatim (no fusion, no control folding) — the
/// arithmetic of the op is bit-identical to Statevector::apply_gate on the
/// original gate.
CompiledOp lower_verbatim(const Gate& gate, std::size_t num_qubits) {
  CompiledOp op;
  if (gate.kind == GateKind::kOperator) {
    op.kind = CompiledOp::Kind::kOperator;
    op.gate = gate;
  } else if (gate.targets.size() == 1) {
    // Named gates materialize their 2×2 matrix once, here, instead of once
    // per application (the per-trajectory cost the plan exists to remove).
    op.kind = CompiledOp::Kind::kSingleQubit;
    op.gate.kind = GateKind::kUnitary;
    op.gate.matrix = gate_target_matrix(gate);
    op.gate.targets = gate.targets;
    op.gate.controls = gate.controls;
  } else {
    op.kind = CompiledOp::Kind::kBlock;
    op.gate = gate;
  }
  precompute_op(op, num_qubits);
  return op;
}

/// Lowers a finished fused cluster (≥ 2 members, cost-model approved).
CompiledOp lower_cluster(const Cluster& cluster, std::size_t num_qubits) {
  CompiledOp op;
  op.fused_gates = cluster.gates.size();
  op.gate.kind = GateKind::kUnitary;
  op.gate.targets = cluster.support;
  if (cluster.diagonal) {
    if (cluster.support.size() == 1) {
      op.kind = CompiledOp::Kind::kSingleQubit;
      op.gate.matrix = ComplexMatrix(2, 2);
      op.gate.matrix(0, 0) = cluster.diag[0];
      op.gate.matrix(1, 1) = cluster.diag[1];
    } else {
      // The matrix stays empty: engines run the table (dense_gate()
      // densifies for the generic fallback only).
      op.kind = CompiledOp::Kind::kDiagonal;
      op.diagonal = cluster.diag;
    }
  } else {
    op.gate.matrix = cluster.matrix;
    op.kind = cluster.support.size() == 1 ? CompiledOp::Kind::kSingleQubit
                                          : CompiledOp::Kind::kBlock;
  }
  precompute_op(op, num_qubits);
  return op;
}

/// Whether emitting \p cluster as one fused op beats replaying its member
/// gates verbatim (per-amplitude cost model above; ties go to the fused op,
/// which still saves the extra passes).
bool fusion_pays_off(const Cluster& cluster) {
  if (cluster.gates.size() < 2) return false;
  return fused_sweep_cost(cluster.diagonal, cluster.support.size()) <=
         cluster.member_cost;
}

}  // namespace

Gate CompiledOp::dense_gate() const {
  if (kind != Kind::kDiagonal) return gate;
  const std::uint64_t dim = diagonal.size();
  // The built-in engines all execute the table natively; densifying a wide
  // diagonal would allocate dim² entries, so the generic fallback is
  // deliberately bounded.
  QTDA_REQUIRE(dim <= 256,
               "fused diagonal too wide to densify for the generic backend "
               "path; override SimulatorBackend::apply_plan with native "
               "diagonal execution, or compile with "
               "CompilerOptions::diagonal_width <= 8");
  Gate dense = gate;
  dense.matrix = ComplexMatrix(dim, dim);
  for (std::uint64_t a = 0; a < dim; ++a) dense.matrix(a, a) = diagonal[a];
  return dense;
}

CompilerOptions compiler_options_from_env(CompilerOptions base) {
  if (const char* fuse = std::getenv("QTDA_FUSE");
      fuse != nullptr && *fuse != '\0') {
    const std::string value(fuse);
    QTDA_REQUIRE(value == "0" || value == "1",
                 "QTDA_FUSE=\"" << value << "\" is not a valid fusion switch "
                                   "(use 0 or 1)");
    base.fuse = value == "1";
  }
  if (const char* width = std::getenv("QTDA_FUSE_WIDTH");
      width != nullptr && *width != '\0') {
    char* end = nullptr;
    const long value = std::strtol(width, &end, 10);
    QTDA_REQUIRE(end != width && *end == '\0' && value >= 1,
                 "QTDA_FUSE_WIDTH=\""
                     << width
                     << "\" is not a valid fused-block width (need an "
                        "integer >= 1)");
    base.fuse_width = static_cast<std::size_t>(value);
    // The override is the user saying "no fused support wider than this" —
    // it bounds the diagonal tables too, so forcing width 1 approaches the
    // gate-by-gate walk instead of leaving 12-wide diagonals behind.
    base.diagonal_width =
        std::min(base.diagonal_width, static_cast<std::size_t>(value));
  }
  return base;
}

std::string compiler_options_cache_key(const CompilerOptions& options) {
  std::ostringstream os;
  os << "fuse=" << (options.fuse ? 1 : 0) << ",width=" << options.fuse_width
     << ",diag=" << options.diagonal_width
     << ",noise=" << (options.preserve_noise_slots ? 1 : 0);
  return os.str();
}

std::size_t ExecutionPlan::memory_bytes() const {
  std::size_t bytes = sizeof(ExecutionPlan);
  // Operators (and what they share, such as one ladder's CSR) are charged
  // once each, however many ops hold them.
  std::unordered_set<const void*> counted;
  for (const CompiledOp& op : ops_) {
    if (op.gate.op != nullptr && counted.insert(op.gate.op.get()).second)
      bytes += op.gate.op->memory_bytes(counted);
    bytes += sizeof(CompiledOp);
    const std::size_t matrix_entries =
        op.gate.matrix.rows() * op.gate.matrix.cols();
    // Dense matrix + diagonal table, plus their complex64 mirrors as if
    // already materialized.
    bytes += matrix_entries *
             (sizeof(Amplitude) + sizeof(std::complex<float>));
    bytes += op.diagonal.size() *
             (sizeof(Amplitude) + sizeof(std::complex<float>));
    bytes += op.offsets.size() * sizeof(std::uint64_t);
    bytes += op.bases.size() * sizeof(std::uint64_t);
    bytes += op.noise_qubits.size() * sizeof(std::size_t);
    bytes += op.gate.targets.size() * sizeof(std::size_t);
    bytes += op.gate.controls.size() * sizeof(std::size_t);
  }
  return bytes;
}

std::string CompilerStats::to_string() const {
  std::ostringstream os;
  os << "compiled " << gates_before << " gates -> " << gates_after
     << " ops (" << fused_blocks << " fused blocks, " << diagonal_blocks
     << " of them diagonal, " << operator_gates << " operator gates)\n";
  for (std::size_t w = 0; w < block_width_histogram.size(); ++w) {
    if (block_width_histogram[w] == 0) continue;
    os << "  fused blocks over " << w << " qubit" << (w == 1 ? "" : "s")
       << ": " << block_width_histogram[w] << '\n';
  }
  return os.str();
}

namespace {

/// Per-compilation fusion-decision counters, flushed once per
/// compile_circuit call.
void record_compile_telemetry(const CompilerStats& stats) {
  if (!telemetry::enabled()) return;
  static telemetry::Counter& compilations =
      telemetry::registry().counter("compiler.compilations");
  static telemetry::Counter& gates_before =
      telemetry::registry().counter("compiler.gates_before");
  static telemetry::Counter& gates_after =
      telemetry::registry().counter("compiler.gates_after");
  static telemetry::Counter& fused_blocks =
      telemetry::registry().counter("compiler.fused_blocks");
  static telemetry::Counter& diagonal_blocks =
      telemetry::registry().counter("compiler.diagonal_blocks");
  static telemetry::Counter& operator_gates =
      telemetry::registry().counter("compiler.operator_gates");
  compilations.add(1);
  gates_before.add(stats.gates_before);
  gates_after.add(stats.gates_after);
  fused_blocks.add(stats.fused_blocks);
  diagonal_blocks.add(stats.diagonal_blocks);
  operator_gates.add(stats.operator_gates);
}

}  // namespace

ExecutionPlan compile_circuit(const Circuit& circuit,
                              const CompilerOptions& options) {
  QTDA_SPAN("compile");
  ExecutionPlan plan;
  plan.num_qubits_ = circuit.num_qubits();
  plan.global_phase_ = circuit.global_phase();
  plan.noise_slots_ = options.preserve_noise_slots;
  plan.stats_.gates_before = circuit.gate_count();

  // Noise slots pin one op per source gate: fusing across gates would move
  // the state the depolarizing events see and break RNG-order parity.
  const bool fuse = options.fuse && !options.preserve_noise_slots;
  const std::size_t width =
      std::min(std::max<std::size_t>(options.fuse_width, 1), kMaxFuseWidth);
  const std::size_t diagonal_width = std::min(
      std::max<std::size_t>(options.diagonal_width, 1), kMaxDiagonalWidth);

  if (!fuse) {
    plan.ops_.reserve(circuit.gate_count());
    for (const Gate& gate : circuit.gates()) {
      CompiledOp op = lower_verbatim(gate, plan.num_qubits_);
      if (options.preserve_noise_slots) {
        op.noise_qubits = gate.targets;
        op.noise_qubits.insert(op.noise_qubits.end(), gate.controls.begin(),
                               gate.controls.end());
        op.noise_multi = gate.targets.size() + gate.controls.size() >= 2;
      }
      if (op.kind == CompiledOp::Kind::kOperator)
        ++plan.stats_.operator_gates;
      plan.ops_.push_back(std::move(op));
    }
    plan.stats_.gates_after = plan.ops_.size();
    record_compile_telemetry(plan.stats_);
    return plan;
  }

  // Greedy qsim-style clustering.  Clusters are emitted in creation order;
  // a gate may join any cluster created at or after the newest cluster
  // touching one of its wires (everything in between is wire-disjoint from
  // the gate, hence commutes with it).  Diagonal gates prefer diagonal
  // clusters — unbounded absorption at constant per-amplitude cost — but
  // also fold into dense clusters; dense gates only fold into dense ones.
  std::vector<Cluster> clusters;
  std::vector<std::ptrdiff_t> last_toucher(circuit.num_qubits(), -1);

  for (const Gate& gate : circuit.gates()) {
    const std::vector<std::size_t> support_g = gate_support(gate);
    const bool diagonal = gate.kind != GateKind::kOperator &&
                          is_diagonal_gate(gate) &&
                          support_g.size() <= diagonal_width;
    const bool fusible =
        gate.kind != GateKind::kOperator &&
        (diagonal || support_g.size() <= width);

    std::ptrdiff_t earliest = 0;
    for (std::size_t q : support_g)
      earliest = std::max(earliest, last_toucher[q]);

    std::ptrdiff_t host = -1;
    if (fusible) {
      for (std::ptrdiff_t ci = std::max<std::ptrdiff_t>(earliest, 0);
           ci < static_cast<std::ptrdiff_t>(clusters.size()); ++ci) {
        const Cluster& cluster = clusters[ci];
        if (cluster.passthrough) continue;
        const std::size_t merged = union_size(cluster.support, support_g);
        bool fits = cluster.diagonal
                        ? (diagonal && merged <= diagonal_width)
                        : (support_g.size() <= width && merged <= width);
        // Don't let an unprofitable union swallow gates that would pair
        // better elsewhere (an H-wall packed to width 4 would reject as one
        // big block; kept to pairs it fuses).  kGrowthSlack keeps room for
        // clusters whose profit arrives a few gates later.
        fits = fits && fused_sweep_cost(cluster.diagonal, merged) <=
                           cluster.member_cost + gate_sweep_cost(gate) +
                               kGrowthSlack;
        if (fits) {
          host = ci;
          break;
        }
      }
    }
    if (host < 0) {
      Cluster cluster;
      if (!fusible) {
        cluster.passthrough = true;
        cluster.support = support_g;
        cluster.gates.push_back(gate);
      } else {
        cluster.diagonal = diagonal;
        absorb_gate(cluster, gate, support_g);
      }
      clusters.push_back(std::move(cluster));
      host = static_cast<std::ptrdiff_t>(clusters.size()) - 1;
    } else {
      absorb_gate(clusters[host], gate, support_g);
    }
    for (std::size_t q : support_g) last_toucher[q] = host;
  }

  for (const Cluster& cluster : clusters) {
    if (cluster.passthrough || !fusion_pays_off(cluster)) {
      // Unprofitable clusters replay their members verbatim — fusion never
      // makes a circuit slower than the uncompiled walk.
      for (const Gate& gate : cluster.gates) {
        CompiledOp op = lower_verbatim(gate, plan.num_qubits_);
        if (op.kind == CompiledOp::Kind::kOperator)
          ++plan.stats_.operator_gates;
        plan.ops_.push_back(std::move(op));
      }
      continue;
    }
    CompiledOp op = lower_cluster(cluster, plan.num_qubits_);
    ++plan.stats_.fused_blocks;
    if (cluster.diagonal) ++plan.stats_.diagonal_blocks;
    const std::size_t w = cluster.support.size();
    if (plan.stats_.block_width_histogram.size() <= w)
      plan.stats_.block_width_histogram.resize(w + 1, 0);
    ++plan.stats_.block_width_histogram[w];
    plan.ops_.push_back(std::move(op));
  }
  plan.stats_.gates_after = plan.ops_.size();
  record_compile_telemetry(plan.stats_);
  return plan;
}

}  // namespace qtda
