#include "linalg/expm_multiply.hpp"

#include <algorithm>
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

SparseExpOperator::SparseExpOperator(SparseMatrix a, double theta,
                                     double lambda_min, double lambda_max,
                                     const ExpmOptions& options)
    : SparseExpOperator(std::make_shared<const SparseMatrix>(std::move(a)),
                        theta, lambda_min, lambda_max, options) {}

SparseExpOperator::SparseExpOperator(std::shared_ptr<const SparseMatrix> a,
                                     double theta, double lambda_min,
                                     double lambda_max,
                                     const ExpmOptions& options)
    : a_(std::move(a)), theta_(theta) {
  QTDA_REQUIRE(a_ != nullptr, "exponential action needs a matrix");
  QTDA_REQUIRE(a_->rows() == a_->cols() && a_->rows() > 0,
               "exponential action needs a non-empty square matrix");
  QTDA_REQUIRE(lambda_max >= lambda_min, "spectral bounds out of order");
  center_ = 0.5 * (lambda_max + lambda_min);
  half_width_ = 0.5 * (lambda_max - lambda_min);
  coefficients_ = shared_exp_coefficients(theta_ * half_width_,
                                          theta_ * center_, options.tolerance);
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

/// One rail's view of a SparseExpOperator: the CSR arrays and Chebyshev
/// coefficients at Real, and B = (A − c·I)/h as (center, 1/h).
template <typename Real>
struct ChebyshevRail {
  std::size_t d;
  std::size_t nonzeros;
  const std::size_t* offsets;
  const std::size_t* cols;
  const Real* values;
  const std::complex<Real>* coefficients;
  std::size_t terms;
  Real center;
  Real inv_h;  ///< infinite when h = 0, but then terms = 1 and it is unused
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

/// Term k on rows [lo, hi) of the tile with kBytes-wide vectors: groups of
/// 8 blocks, then single vectors, then single blocks.
template <typename Real, bool kFirst, std::size_t kBytes>
QTDA_CHEBYSHEV_INLINE void chebyshev_rows_body(
    const ChebyshevRail<Real>& rail, std::size_t k, std::size_t m,
    const Real* src_re, const Real* src_im, Real* dst_re, Real* dst_im,
    Real* y_re, Real* y_im, std::size_t lo, std::size_t hi) {
  using V = typename Lanes<Real, kBytes>::type;
  constexpr std::size_t W = kBytes / sizeof(Real);
  constexpr std::size_t N = W >= 8 ? 1 : 8 / W;
  for (std::size_t r = lo; r < hi; ++r) {
    std::size_t j0 = 0;
    for (; j0 + N * W <= m; j0 += N * W)
      chebyshev_lanes<Real, kFirst, V, N>(rail, k, m, r, j0, src_re, src_im,
                                          dst_re, dst_im, y_re, y_im);
    for (; j0 + W <= m; j0 += W)
      chebyshev_lanes<Real, kFirst, V, 1>(rail, k, m, r, j0, src_re, src_im,
                                          dst_re, dst_im, y_re, y_im);
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

/// y = e^{iθA}·x for the m consecutive blocks at x: transpose them into
/// \p workspace (three d × m arrays: T_{k−1}, T_k and y), run every term
/// across the whole tile, transpose y back.  With \p split_rows each term's
/// rows are split across the shared pool above kParallelRows.
template <typename Real>
void chebyshev_tile(const ChebyshevRail<Real>& rail,
                    const std::complex<Real>* x, std::complex<Real>* y,
                    std::size_t m, Real* workspace, bool split_rows) {
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
    for (std::size_t r = 0; r < d; ++r) {
      const std::complex<Real> v = x[j * d + r];
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
  for (std::size_t j = 0; j < m; ++j)
    for (std::size_t r = 0; r < d; ++r)
      y[j * d + r] = {y_re[r * m + j], y_im[r * m + j]};
}

/// The exponential action on \p count consecutive blocks.  One block runs
/// as a single tile with its rows split for large d.  A batch is cut into
/// tiles of about kTileAmplitudes; it runs on the calling thread below
/// kSerialWork and otherwise spreads its tiles over the shared pool, cut
/// small enough that every worker gets one.
template <typename Real>
void chebyshev_batch(const ChebyshevRail<Real>& rail,
                     const std::complex<Real>* x, std::complex<Real>* y,
                     std::size_t count) {
  if (count == 0) return;
  const std::size_t d = rail.d;
  std::size_t tile = std::clamp<std::size_t>(kTileAmplitudes / d, 1, count);
  const std::size_t work = (rail.nonzeros + d) * rail.terms * count;
  const std::size_t workers = ThreadPool::shared().size();
  const bool parallel = count > 1 && work >= kSerialWork && workers > 1;
  if (parallel) tile = std::min(tile, (count + workers - 1) / workers);
  const std::size_t tiles = (count + tile - 1) / tile;
  const auto run = [&](std::size_t lo, std::size_t hi) {
    const std::unique_ptr<Real[]> workspace(new Real[6 * d * tile]);
    for (std::size_t t = lo; t < hi; ++t) {
      const std::size_t first = t * tile;
      chebyshev_tile(rail, x + first * d, y + first * d,
                     std::min(tile, count - first), workspace.get(),
                     /*split_rows=*/count == 1 && d >= kParallelRows);
    }
  };
  if (parallel) {
    parallel_for_chunked(0, tiles, run, /*min_parallel_size=*/2);
  } else {
    run(0, tiles);
  }
}

}  // namespace

void SparseExpOperator::ensure_f32() const {
  std::call_once(f32_once_, [this] {
    const std::vector<double>& vals = a_->values();
    values_f32_.resize(vals.size());
    for (std::size_t i = 0; i < vals.size(); ++i)
      values_f32_[i] = static_cast<float>(vals[i]);
    coefficients_f32_.reserve(coefficients_->size());
    for (const std::complex<double>& c : *coefficients_)
      coefficients_f32_.emplace_back(static_cast<float>(c.real()),
                                     static_cast<float>(c.imag()));
  });
}

void SparseExpOperator::apply(const std::complex<double>* x,
                              std::complex<double>* y) const {
  apply_batch(x, y, 1);
}

void SparseExpOperator::apply_batch(const std::complex<double>* x,
                                    std::complex<double>* y,
                                    std::size_t count) const {
  const ChebyshevRail<double> rail{a_->rows(),
                                   a_->nonzeros(),
                                   a_->row_offsets().data(),
                                   a_->col_indices().data(),
                                   a_->values().data(),
                                   coefficients_->data(),
                                   coefficients_->size(),
                                   center_,
                                   1.0 / half_width_};
  chebyshev_batch(rail, x, y, count);
}

void SparseExpOperator::apply_batch_f32(const std::complex<float>* x,
                                        std::complex<float>* y,
                                        std::size_t count) const {
  // The double recurrence term for term in float: float CSR values, float
  // coefficients, float workspace, with c and 1/h narrowed once up front.
  ensure_f32();
  const ChebyshevRail<float> rail{
      a_->rows(),
      a_->nonzeros(),
      a_->row_offsets().data(),
      a_->col_indices().data(),
      values_f32_.data(),
      coefficients_f32_.data(),
      coefficients_f32_.size(),
      static_cast<float>(center_),
      1.0f / static_cast<float>(half_width_)};
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
