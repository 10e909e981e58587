#include "linalg/expm_multiply.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <list>
#include <map>
#include <tuple>

#include "common/cpu_features.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/thread_annotations.hpp"

namespace qtda {

namespace {

/// Expansion order covering |J_k(z)|: the Bessel tail turns superexponential
/// past k ≈ z, with a transition region of width O(z^{1/3}).
std::size_t chebyshev_order(double z) {
  const double az = std::abs(z);
  return static_cast<std::size_t>(std::ceil(az)) +
         static_cast<std::size_t>(12.0 * std::cbrt(az + 1.0)) + 25;
}

/// Computes the truncated Jacobi–Anger coefficient vector
/// a_k = (2 − δ_{k0}) i^k J_k(z) e^{iφ} for z = θh, φ = θc.
std::vector<std::complex<double>> exp_coefficients(double z, double phi,
                                                   double tolerance) {
  const double az = std::abs(z);
  const std::vector<double> bessel =
      bessel_j_sequence(chebyshev_order(az), az);
  // Truncate the tail only — below k ≈ z the coefficients oscillate through
  // small values without having decayed.
  std::size_t last = 0;
  for (std::size_t k = 0; k < bessel.size(); ++k)
    if (std::abs(bessel[k]) > tolerance) last = k;

  const std::complex<double> phase{std::cos(phi), std::sin(phi)};
  std::vector<std::complex<double>> coefficients(last + 1);
  // i^k cycles (1, i, −1, −i); J_k(−z) = (−1)^k J_k(z) folds the sign of z in.
  std::complex<double> ik{1.0, 0.0};
  const std::complex<double> i_unit =
      z >= 0.0 ? std::complex<double>{0.0, 1.0}
               : std::complex<double>{0.0, -1.0};
  for (std::size_t k = 0; k <= last; ++k) {
    const double weight = (k == 0 ? 1.0 : 2.0) * bessel[k];
    coefficients[k] = weight * ik * phase;
    ik *= i_unit;
  }
  return coefficients;
}

/// Process-wide memo of coefficient vectors.  The coefficients are a pure
/// function of (z, φ, tolerance), so the 2^j ladder of one QPE circuit and
/// every rebuild of that ladder (each estimate, trajectory study, and bench
/// iteration constructs the operators afresh) share one Bessel derivation.
/// LRU-bounded: a long-running server touches a new (z, φ) pair for every
/// distinct (Laplacian, δ) it compiles, so the memo evicts the coldest entry
/// instead of dumping the hot ladders wholesale — the working set of any one
/// experiment (a handful of ladders) always stays resident.
class ExpmCoefficientCache {
 public:
  using Key = std::tuple<double, double, double>;
  using Value = std::shared_ptr<const std::vector<std::complex<double>>>;

  static ExpmCoefficientCache& instance() {
    static ExpmCoefficientCache* cache =
        new ExpmCoefficientCache();  // intentionally leaked
    return *cache;
  }

  Value get(double z, double phi, double tolerance) {
    const Key key{z, phi, tolerance};
    {
      MutexLock lock(mutex_);
      const auto it = index_.find(key);
      if (it != index_.end()) {
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, it->second);  // touch: move to front
        return it->second->second;
      }
      ++stats_.misses;
    }
    // Compute outside the lock (a miss costs a full Bessel recurrence); a
    // racing thread may duplicate the work, but whichever insert lands first
    // wins and both callers get a valid vector.
    auto computed = std::make_shared<const std::vector<std::complex<double>>>(
        exp_coefficients(z, phi, tolerance));
    MutexLock lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->second;
    }
    lru_.emplace_front(key, std::move(computed));
    index_[key] = lru_.begin();
    while (lru_.size() > kMaxEntries) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
      ++stats_.evictions;
    }
    return lru_.front().second;
  }

  ExpmCoefficientCacheStats stats() const {
    MutexLock lock(mutex_);
    ExpmCoefficientCacheStats out = stats_;
    out.entries = lru_.size();
    return out;
  }

  void clear() {
    MutexLock lock(mutex_);
    lru_.clear();
    index_.clear();
    stats_ = ExpmCoefficientCacheStats{};
  }

 private:
  static constexpr std::size_t kMaxEntries = 512;

  mutable Mutex mutex_;
  /// front = most recently used
  std::list<std::pair<Key, Value>> lru_ QTDA_GUARDED_BY(mutex_);
  std::map<Key, std::list<std::pair<Key, Value>>::iterator> index_
      QTDA_GUARDED_BY(mutex_);
  ExpmCoefficientCacheStats stats_ QTDA_GUARDED_BY(mutex_);
};

std::shared_ptr<const std::vector<std::complex<double>>>
shared_exp_coefficients(double z, double phi, double tolerance) {
  return ExpmCoefficientCache::instance().get(z, phi, tolerance);
}

}  // namespace

ExpmCoefficientCacheStats expm_coefficient_cache_stats() {
  return ExpmCoefficientCache::instance().stats();
}

void expm_coefficient_cache_clear() {
  ExpmCoefficientCache::instance().clear();
}

std::vector<double> bessel_j_sequence(std::size_t n, double z) {
  QTDA_REQUIRE(z >= 0.0, "bessel_j_sequence needs z >= 0");
  std::vector<double> j(n + 1, 0.0);
  if (z == 0.0) {
    j[0] = 1.0;  // J_k(0) = δ_{k0}
    return j;
  }
  // Miller's algorithm: run the (unstable-upward, stable-downward) recurrence
  // J_{k−1} = (2k/z)·J_k − J_{k+1} from a start index safely past both n and
  // the turning point k ≈ z, then normalize with J_0 + 2·Σ J_{2i} = 1.
  const std::size_t start =
      std::max(n, static_cast<std::size_t>(std::ceil(z))) +
      static_cast<std::size_t>(12.0 * std::cbrt(z + 1.0)) + 30;
  double g_above = 0.0;   // g_{k+1}
  double g_k = 1e-30;     // g_start (arbitrary seed)
  double even_sum = 0.0;  // Σ g_{2i}, i ≥ 1
  if (start % 2 == 0) even_sum += g_k;
  if (start <= n) j[start] = g_k;
  for (std::size_t k = start; k >= 1; --k) {
    const double g_below = (2.0 * static_cast<double>(k) / z) * g_k - g_above;
    g_above = g_k;
    g_k = g_below;
    if (std::abs(g_k) > 1e250) {  // rescale before overflow
      constexpr double kScale = 1e-250;
      g_k *= kScale;
      g_above *= kScale;
      even_sum *= kScale;
      for (double& v : j) v *= kScale;
    }
    const std::size_t idx = k - 1;
    if (idx <= n) j[idx] = g_k;
    if (idx >= 1 && idx % 2 == 0) even_sum += g_k;
  }
  const double norm = g_k + 2.0 * even_sum;  // g_k now holds g_0
  QTDA_REQUIRE(norm != 0.0, "Bessel normalization degenerated");
  for (double& v : j) v /= norm;
  return j;
}

namespace {

// The lane bodies are inlined into one wrapper per vector width, each
// compiled for its own target.
#define QTDA_CHEBYSHEV_INLINE inline __attribute__((always_inline))
#if defined(__x86_64__) || defined(__i386__)
#define QTDA_CHEBYSHEV_AVX2 1
#else
#define QTDA_CHEBYSHEV_AVX2 0
#endif

/// Amplitudes per tile: a batch's blocks advance together in tiles of about
/// this many amplitudes, small enough that a tile's three arrays stay in
/// cache while every matvec row streams across the tile's blocks.
constexpr std::size_t kTileAmplitudes = std::size_t{1} << 10;

/// Recurrence work, (nnz + d) × terms × count, below which a batch runs on
/// the calling thread: under it, waking the shared pool costs more than the
/// split saves.
constexpr std::size_t kSerialWork = std::size_t{1} << 16;

/// A single block's rows are split across the pool from this dimension up.
constexpr std::size_t kParallelRows = 4096;

/// One rail's view of a SparseExpOperator: A regrouped by component
/// (ComponentCsr) with its values, the Chebyshev coefficients at Real, B =
/// (A − c·I)/h as (center, 1/h), and the zero-slice table.  A component's
/// view is the same struct with d, offsets and members narrowed to its rows.
template <typename Real>
struct ChebyshevRail {
  std::size_t d;
  std::size_t nonzeros;
  const std::size_t* offsets;
  const std::size_t* cols;  ///< component-local
  const Real* values;
  const std::complex<Real>* coefficients;
  std::size_t terms;
  Real center;
  Real inv_h;  ///< infinite when h = 0, but then terms = 1 and it is unused
  const std::size_t* members;  ///< original index of each regrouped row
  const std::size_t* begin;    ///< component c: rows [begin[c], begin[c+1])
  std::size_t components;
  const std::complex<Real>* zero_outputs;  ///< see zero_slice_outputs
};

/// kBytes of Reals as one GCC vector: arithmetic is lane-wise IEEE.
template <typename Real, std::size_t kBytes>
struct Lanes {
  typedef Real type __attribute__((vector_size(kBytes)));
};

/// Unaligned vector (or scalar) load/store; by reference, so no vector ever
/// crosses a call boundary whose ABI depends on the target.
template <typename V, typename Real>
QTDA_CHEBYSHEV_INLINE void load_lanes(V& v, const Real* from) {
  std::memcpy(&v, from, sizeof v);
}

template <typename V, typename Real>
QTDA_CHEBYSHEV_INLINE void store_lanes(Real* to, const V& v) {
  std::memcpy(to, &v, sizeof v);
}

/// Term k ≥ 1 of the recurrence for row r and the N·W blocks from j0 (V
/// holds W lanes) of a d × m tile stored as split re/im planes with the
/// block index innermost (element (r, j) at r·m + j).  The CSR row dot over
/// src is fused with the three-term update into dst and the accumulation
/// into y.  The first term writes T_1 = B·T_0; later terms overwrite
/// dst = T_{k−2} with T_k = 2B·T_{k−1} − T_{k−2} in place, which is safe
/// because row r of dst is read by row r alone.  Per element this is the
/// scalar single-block recurrence, operation for operation in the same order
/// (row dots accumulate from zero, complex products expand as
/// (ac − bd, ad + bc), nothing contracts into FMA), so results do not depend
/// on the tiling, the split or the vector width.
template <typename Real, bool kFirst, typename V, std::size_t N>
QTDA_CHEBYSHEV_INLINE void chebyshev_lanes(
    const ChebyshevRail<Real>& rail, std::size_t k, std::size_t m,
    std::size_t r, std::size_t j0, const Real* src_re, const Real* src_im,
    Real* dst_re, Real* dst_im, Real* y_re, Real* y_im) {
  constexpr std::size_t W = sizeof(V) / sizeof(Real);
  V acc_re[N];
  V acc_im[N];
  for (std::size_t n = 0; n < N; ++n) acc_re[n] = acc_im[n] = V{};
  for (std::size_t e = rail.offsets[r]; e < rail.offsets[r + 1]; ++e) {
    const Real v = rail.values[e];
    const std::size_t from = rail.cols[e] * m + j0;
    for (std::size_t n = 0; n < N; ++n) {
      V s_re;
      V s_im;
      load_lanes(s_re, src_re + from + n * W);
      load_lanes(s_im, src_im + from + n * W);
      acc_re[n] += v * s_re;
      acc_im[n] += v * s_im;
    }
  }
  const Real c = rail.center;
  const Real inv_h = rail.inv_h;
  const Real ak_re = rail.coefficients[k].real();
  const Real ak_im = rail.coefficients[k].imag();
  for (std::size_t n = 0; n < N; ++n) {
    const std::size_t at = r * m + j0 + n * W;
    V cur_re;
    V cur_im;
    V out_re;
    V out_im;
    load_lanes(cur_re, src_re + at);
    load_lanes(cur_im, src_im + at);
    load_lanes(out_re, y_re + at);
    load_lanes(out_im, y_im + at);
    const V b_re = acc_re[n] - c * cur_re;
    const V b_im = acc_im[n] - c * cur_im;
    V t_re;
    V t_im;
    if constexpr (kFirst) {
      t_re = b_re * inv_h;
      t_im = b_im * inv_h;
    } else {
      load_lanes(t_re, dst_re + at);
      load_lanes(t_im, dst_im + at);
      t_re = Real{2} * b_re * inv_h - t_re;
      t_im = Real{2} * b_im * inv_h - t_im;
    }
    store_lanes(dst_re + at, t_re);
    store_lanes(dst_im + at, t_im);
    store_lanes(y_re + at, out_re + (ak_re * t_re - ak_im * t_im));
    store_lanes(y_im + at, out_im + (ak_re * t_im + ak_im * t_re));
  }
}

/// Blocks per lane group: every rail and vector width advances 8 blocks
/// per group (N vectors of W lanes).
constexpr std::size_t kGroupBlocks = 8;

/// Term k on rows [lo, hi) of the tile with kBytes-wide vectors: groups of
/// 8 blocks, then single vectors, then single 16-byte vectors, then single
/// blocks.
template <typename Real, bool kFirst, std::size_t kBytes>
QTDA_CHEBYSHEV_INLINE void chebyshev_rows_body(
    const ChebyshevRail<Real>& rail, std::size_t k, std::size_t m,
    const Real* src_re, const Real* src_im, Real* dst_re, Real* dst_im,
    Real* y_re, Real* y_im, std::size_t lo, std::size_t hi) {
  using V = typename Lanes<Real, kBytes>::type;
  using V16 = typename Lanes<Real, 16>::type;
  constexpr std::size_t W = kBytes / sizeof(Real);
  constexpr std::size_t W16 = 16 / sizeof(Real);
  constexpr std::size_t N = W >= kGroupBlocks ? 1 : kGroupBlocks / W;
  for (std::size_t r = lo; r < hi; ++r) {
    std::size_t j0 = 0;
    for (; j0 + N * W <= m; j0 += N * W)
      chebyshev_lanes<Real, kFirst, V, N>(rail, k, m, r, j0, src_re, src_im,
                                          dst_re, dst_im, y_re, y_im);
    for (; j0 + W <= m; j0 += W)
      chebyshev_lanes<Real, kFirst, V, 1>(rail, k, m, r, j0, src_re, src_im,
                                          dst_re, dst_im, y_re, y_im);
    if constexpr (W > W16) {
      for (; j0 + W16 <= m; j0 += W16)
        chebyshev_lanes<Real, kFirst, V16, 1>(rail, k, m, r, j0, src_re,
                                              src_im, dst_re, dst_im, y_re,
                                              y_im);
    }
    for (; j0 < m; ++j0)
      chebyshev_lanes<Real, kFirst, Real, 1>(rail, k, m, r, j0, src_re,
                                             src_im, dst_re, dst_im, y_re,
                                             y_im);
  }
}

#if QTDA_CHEBYSHEV_AVX2
template <typename Real, bool kFirst>
__attribute__((target("avx2"))) void chebyshev_rows_avx2(
    const ChebyshevRail<Real>& rail, std::size_t k, std::size_t m,
    const Real* src_re, const Real* src_im, Real* dst_re, Real* dst_im,
    Real* y_re, Real* y_im, std::size_t lo, std::size_t hi) {
  chebyshev_rows_body<Real, kFirst, 32>(rail, k, m, src_re, src_im, dst_re,
                                        dst_im, y_re, y_im, lo, hi);
}
#endif

template <typename Real, bool kFirst>
void chebyshev_rows(const ChebyshevRail<Real>& rail, std::size_t k,
                    std::size_t m, const Real* src_re, const Real* src_im,
                    Real* dst_re, Real* dst_im, Real* y_re, Real* y_im,
                    std::size_t lo, std::size_t hi) {
#if QTDA_CHEBYSHEV_AVX2
  // The same body with 256-bit lanes.  AVX2 without FMA: nothing contracts,
  // so the vector and scalar builds of the body round identically.
  if (active_simd_level() != SimdLevel::kScalar) {
    chebyshev_rows_avx2<Real, kFirst>(rail, k, m, src_re, src_im, dst_re,
                                      dst_im, y_re, y_im, lo, hi);
    return;
  }
#endif
  chebyshev_rows_body<Real, kFirst, 16>(rail, k, m, src_re, src_im, dst_re,
                                        dst_im, y_re, y_im, lo, hi);
}

/// Runs the recurrence for the m blocks listed in \p blocks on the rows of
/// one component (\p rail is its view; blocks are \p stride amplitudes
/// apart): gather the members into \p workspace (three d × m arrays:
/// T_{k−1}, T_k and y), run every term across the whole tile, scatter y
/// back.  With \p split_rows each term's rows are split across the shared
/// pool.
template <typename Real>
void chebyshev_tile(const ChebyshevRail<Real>& rail, std::size_t stride,
                    const std::size_t* blocks, std::size_t m,
                    const std::complex<Real>* x, std::complex<Real>* y,
                    Real* workspace, bool split_rows) {
  const std::size_t d = rail.d;
  const std::size_t plane = d * m;
  Real* prev_re = workspace;
  Real* prev_im = prev_re + plane;
  Real* cur_re = prev_im + plane;
  Real* cur_im = cur_re + plane;
  Real* y_re = cur_im + plane;
  Real* y_im = y_re + plane;
  const std::complex<Real> a0 = rail.coefficients[0];
  for (std::size_t j = 0; j < m; ++j) {
    const std::complex<Real>* xj = x + blocks[j] * stride;
    for (std::size_t r = 0; r < d; ++r) {
      const std::complex<Real> v = xj[rail.members[r]];
      const std::size_t at = r * m + j;
      prev_re[at] = v.real();
      prev_im[at] = v.imag();
      y_re[at] = a0.real() * v.real() - a0.imag() * v.imag();
      y_im[at] = a0.real() * v.imag() + a0.imag() * v.real();
    }
  }
  for (std::size_t k = 1; k < rail.terms; ++k) {
    const auto rows = [&](std::size_t lo, std::size_t hi) {
      if (k == 1) {
        chebyshev_rows<Real, true>(rail, k, m, prev_re, prev_im, cur_re,
                                   cur_im, y_re, y_im, lo, hi);
      } else {
        chebyshev_rows<Real, false>(rail, k, m, cur_re, cur_im, prev_re,
                                    prev_im, y_re, y_im, lo, hi);
      }
    };
    if (split_rows) {
      parallel_for_chunked(0, d, rows, kParallelRows);
    } else {
      rows(0, d);
    }
    if (k >= 2) {  // dst now holds T_k: it becomes the current term
      std::swap(prev_re, cur_re);
      std::swap(prev_im, cur_im);
    }
  }
  for (std::size_t j = 0; j < m; ++j) {
    std::complex<Real>* yj = y + blocks[j] * stride;
    for (std::size_t r = 0; r < d; ++r)
      yj[rail.members[r]] = {y_re[r * m + j], y_im[r * m + j]};
  }
}

/// The output of one element of an all-zero slice, for each sign pattern
/// of its input (index 2·signbit(re) + signbit(im)).  In chebyshev_lanes
/// such an element's row dot is +0 (every product v·(±0) added to the +0
/// start leaves +0), so its terms depend on the element alone: T_1 = +0
/// and T_k = +0 after.  This replays the tile's operations on one element
/// in their order, so the table holds exactly the bytes the recurrence
/// would write.
template <typename Real>
std::array<std::complex<Real>, 4> zero_slice_outputs(
    const std::complex<Real>* a, std::size_t terms, Real center, Real inv_h) {
  std::array<std::complex<Real>, 4> out;
  for (std::size_t s = 0; s < 4; ++s) {
    const Real x_re = (s & 2) != 0 ? -Real{0} : Real{0};
    const Real x_im = (s & 1) != 0 ? -Real{0} : Real{0};
    Real y_re = a[0].real() * x_re - a[0].imag() * x_im;
    Real y_im = a[0].real() * x_im + a[0].imag() * x_re;
    Real prev_re = x_re;  // T_{k−2}
    Real prev_im = x_im;
    Real cur_re = x_re;  // T_{k−1}
    Real cur_im = x_im;
    for (std::size_t k = 1; k < terms; ++k) {
      const Real dot = Real{0};
      const Real b_re = dot - center * cur_re;
      const Real b_im = dot - center * cur_im;
      const Real t_re =
          k == 1 ? b_re * inv_h : Real{2} * b_re * inv_h - prev_re;
      const Real t_im =
          k == 1 ? b_im * inv_h : Real{2} * b_im * inv_h - prev_im;
      y_re = y_re + (a[k].real() * t_re - a[k].imag() * t_im);
      y_im = y_im + (a[k].real() * t_im + a[k].imag() * t_re);
      prev_re = cur_re;
      prev_im = cur_im;
      cur_re = t_re;
      cur_im = t_im;
    }
    out[s] = {y_re, y_im};
  }
  return out;
}

/// Blocks per tile for a component of \p rows rows over \p span blocks:
/// about kTileAmplitudes amplitudes, in whole lane groups when it holds one.
inline std::size_t tile_blocks(std::size_t rows, std::size_t span) {
  std::size_t tile = std::max<std::size_t>(kTileAmplitudes / rows, 1);
  if (tile > kGroupBlocks) tile -= tile % kGroupBlocks;
  return std::min(tile, span);
}

/// Component \p c of blocks [first, last): a slice whose input is all
/// exactly zero (either sign) is written from the zero-slice table, the
/// rest are collected into tiles of tile_blocks() blocks.  \p workspace and
/// \p blocks hold one tile.
template <typename Real>
void chebyshev_component(const ChebyshevRail<Real>& rail, std::size_t c,
                         const std::complex<Real>* x, std::complex<Real>* y,
                         std::size_t first, std::size_t last, Real* workspace,
                         std::size_t* blocks, bool split_rows) {
  if (first >= last) return;
  ChebyshevRail<Real> part = rail;
  part.d = rail.begin[c + 1] - rail.begin[c];
  part.offsets += rail.begin[c];
  part.members += rail.begin[c];
  const std::size_t* members = part.members;
  const std::size_t tile = tile_blocks(part.d, last - first);
  std::size_t m = 0;
  for (std::size_t b = first; b < last; ++b) {
    const std::complex<Real>* xb = x + b * rail.d;
    std::size_t r = 0;
    while (r < part.d && xb[members[r]] == std::complex<Real>{}) ++r;
    if (r < part.d) {
      blocks[m++] = b;
      if (m == tile) {
        chebyshev_tile(part, rail.d, blocks, m, x, y, workspace, split_rows);
        m = 0;
      }
      continue;
    }
    std::complex<Real>* yb = y + b * rail.d;
    for (r = 0; r < part.d; ++r) {
      const std::complex<Real> v = xb[members[r]];
      yb[members[r]] = rail.zero_outputs[(std::signbit(v.real()) ? 2 : 0) +
                                         (std::signbit(v.imag()) ? 1 : 0)];
    }
  }
  if (m > 0)
    chebyshev_tile(part, rail.d, blocks, m, x, y, workspace, split_rows);
}

/// The exponential action on \p count consecutive blocks, one component at
/// a time.  The work is cut into units of (block range, component), block
/// range major: below kSerialWork they run on the calling thread, otherwise
/// the block ranges are cut so that every worker gets one and the units
/// spread over the shared pool.  A single block whose largest component
/// reaches kParallelRows runs serially and splits that component's rows
/// instead.
template <typename Real>
void chebyshev_batch(const ChebyshevRail<Real>& rail,
                     const std::complex<Real>* x, std::complex<Real>* y,
                     std::size_t count) {
  if (count == 0) return;
  std::size_t largest = 0;
  for (std::size_t c = 0; c < rail.components; ++c)
    largest = std::max(largest, rail.begin[c + 1] - rail.begin[c]);
  const std::size_t work = (rail.nonzeros + rail.d) * rail.terms * count;
  const std::size_t workers = ThreadPool::shared().size();
  const bool split_rows = count == 1 && largest >= kParallelRows;
  const bool parallel = !split_rows && count * rail.components > 1 &&
                        work >= kSerialWork && workers > 1;
  const std::size_t ranges = parallel ? std::min(workers, count) : 1;
  const std::size_t span = (count + ranges - 1) / ranges;
  std::size_t tile_amplitudes = 0;
  for (std::size_t c = 0; c < rail.components; ++c) {
    const std::size_t rows = rail.begin[c + 1] - rail.begin[c];
    tile_amplitudes =
        std::max(tile_amplitudes, rows * tile_blocks(rows, span));
  }
  const auto run = [&](std::size_t lo, std::size_t hi) {
    const std::unique_ptr<Real[]> workspace(new Real[6 * tile_amplitudes]);
    // One fixed size, enough for any tile.  A per-call size (or an 8 KB
    // stack array) measured 0.5 MB more peak RSS on Table 1 traffic,
    // through glibc's per-thread arenas.
    const std::unique_ptr<std::size_t[]> blocks(
        new std::size_t[kTileAmplitudes]);
    for (std::size_t unit = lo; unit < hi; ++unit) {
      const std::size_t first = unit / rail.components * span;
      chebyshev_component(rail, unit % rail.components, x, y, first,
                          std::min(count, first + span), workspace.get(),
                          blocks.get(), split_rows);
    }
  };
  const std::size_t units = ranges * rail.components;
  if (parallel) {
    parallel_for_chunked(0, units, run, /*min_parallel_size=*/2);
  } else {
    run(0, units);
  }
}

}  // namespace

ComponentCsr::ComponentCsr(const SparseMatrix& a) {
  QTDA_REQUIRE(a.rows() == a.cols() && a.rows() > 0,
               "exponential action needs a non-empty square matrix");
  ConnectedComponents components = sparsity_components(a);
  const auto& row_offsets = a.row_offsets();
  const auto& col_indices = a.col_indices();
  const auto& entries = a.values();
  offsets.reserve(a.rows() + 1);
  offsets.push_back(0);
  cols.reserve(a.nonzeros());
  values.reserve(a.nonzeros());
  for (const std::size_t r : components.members) {
    const std::size_t own = components.component_of[r];
    for (std::size_t k = row_offsets[r]; k < row_offsets[r + 1]; ++k) {
      if (components.component_of[col_indices[k]] != own) continue;
      cols.push_back(components.local_of[col_indices[k]]);
      values.push_back(entries[k]);
    }
    offsets.push_back(values.size());
  }
  members = std::move(components.members);
  begin = std::move(components.begin);
  begin.shrink_to_fit();  // reserved for one component per row
}

std::size_t ComponentCsr::memory_bytes() const {
  return sizeof(ComponentCsr) +
         (members.size() + begin.size() + offsets.size() + cols.size()) *
             sizeof(std::size_t) +
         values.size() * sizeof(double);
}

SparseExpOperator::SparseExpOperator(const SparseMatrix& a, double theta,
                                     double lambda_min, double lambda_max,
                                     const ExpmOptions& options)
    : SparseExpOperator(std::make_shared<const ComponentCsr>(a), theta,
                        lambda_min, lambda_max, options) {}

SparseExpOperator::SparseExpOperator(std::shared_ptr<const ComponentCsr> a,
                                     double theta, double lambda_min,
                                     double lambda_max,
                                     const ExpmOptions& options)
    : a_(std::move(a)), theta_(theta) {
  QTDA_REQUIRE(a_ != nullptr, "exponential action needs a matrix");
  QTDA_REQUIRE(lambda_max >= lambda_min, "spectral bounds out of order");
  center_ = 0.5 * (lambda_max + lambda_min);
  half_width_ = 0.5 * (lambda_max - lambda_min);
  coefficients_ = shared_exp_coefficients(theta_ * half_width_,
                                          theta_ * center_, options.tolerance);
  zero_outputs_ = zero_slice_outputs(coefficients_->data(),
                                     coefficients_->size(), center_,
                                     1.0 / half_width_);
}

std::size_t SparseExpOperator::memory_bytes(
    std::unordered_set<const void*>& counted) const {
  std::size_t bytes = sizeof(*this) + a_->values.size() * sizeof(float) +
                      coefficients_->size() * sizeof(std::complex<float>);
  if (counted.insert(a_.get()).second) bytes += a_->memory_bytes();
  if (counted.insert(coefficients_.get()).second)
    bytes += coefficients_->size() * sizeof(std::complex<double>);
  return bytes;
}

void SparseExpOperator::ensure_f32() const {
  std::call_once(f32_once_, [this] {
    const std::vector<double>& vals = a_->values;
    values_f32_.resize(vals.size());
    for (std::size_t i = 0; i < vals.size(); ++i)
      values_f32_[i] = static_cast<float>(vals[i]);
    coefficients_f32_.reserve(coefficients_->size());
    for (const std::complex<double>& c : *coefficients_)
      coefficients_f32_.emplace_back(static_cast<float>(c.real()),
                                     static_cast<float>(c.imag()));
    zero_outputs_f32_ = zero_slice_outputs(
        coefficients_f32_.data(), coefficients_f32_.size(),
        static_cast<float>(center_), 1.0f / static_cast<float>(half_width_));
  });
}

void SparseExpOperator::apply(const std::complex<double>* x,
                              std::complex<double>* y) const {
  apply_batch(x, y, 1);
}

void SparseExpOperator::apply_batch(const std::complex<double>* x,
                                    std::complex<double>* y,
                                    std::size_t count) const {
  const ChebyshevRail<double> rail{a_->dimension(),
                                   a_->values.size(),
                                   a_->offsets.data(),
                                   a_->cols.data(),
                                   a_->values.data(),
                                   coefficients_->data(),
                                   coefficients_->size(),
                                   center_,
                                   1.0 / half_width_,
                                   a_->members.data(),
                                   a_->begin.data(),
                                   a_->components(),
                                   zero_outputs_.data()};
  chebyshev_batch(rail, x, y, count);
}

void SparseExpOperator::apply_batch_f32(const std::complex<float>* x,
                                        std::complex<float>* y,
                                        std::size_t count) const {
  // The double recurrence term for term in float: float CSR values, float
  // coefficients, float workspace, with c and 1/h narrowed once up front.
  ensure_f32();
  const ChebyshevRail<float> rail{a_->dimension(),
                                  values_f32_.size(),
                                  a_->offsets.data(),
                                  a_->cols.data(),
                                  values_f32_.data(),
                                  coefficients_f32_.data(),
                                  coefficients_f32_.size(),
                                  static_cast<float>(center_),
                                  1.0f / static_cast<float>(half_width_),
                                  a_->members.data(),
                                  a_->begin.data(),
                                  a_->components(),
                                  zero_outputs_f32_.data()};
  chebyshev_batch(rail, x, y, count);
}

ComplexVector expm_multiply(const SparseMatrix& a, double theta,
                            const ComplexVector& x, double lambda_min,
                            double lambda_max, const ExpmOptions& options) {
  QTDA_REQUIRE(x.size() == a.cols(), "expm_multiply shape mismatch");
  const SparseExpOperator op(a, theta, lambda_min, lambda_max, options);
  ComplexVector y(x.size());
  op.apply(x.data(), y.data());
  return y;
}

}  // namespace qtda
