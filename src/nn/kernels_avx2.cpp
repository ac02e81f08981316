// AVX2+FMA backend.  Compiled with -mavx2 -mfma -ffp-contract=off (see
// CMakeLists.txt): vector FMA is used only where this file spells it out
// with _mm256_fmadd_pd, so the plain scalar tail loops below stay
// bitwise-identical to the scalar reference backend.
//
// Parity contract vs the scalar backend (pinned in nn_kernels_test.cpp):
//   * linear elementwise kernels (vadd..vaffine, vrelu, the gru blend's
//     mul+add) — bitwise identical: same per-element IEEE ops, no FMA;
//   * matmul family — same per-cell ascending-p accumulation order, but
//     mul+add contracted to FMA, no av == 0.0 skip, and matmul_nt_acc
//     sums in 4+4 lanes instead of 2, so results agree to a small
//     relative bound instead of bitwise;
//   * vsigmoid/vtanh — Cephes-style polynomial exp instead of libm;
//     agree to a few ulp over the finite range and saturate to the same
//     0/±1 limits.
#include "nn/kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

namespace rnx::nn::kernels {
namespace avx2 {
namespace {

// ---------------------------------------------------------------------------
// matmul_acc: c (n x m) += a (n x k) * b (k x m).
//
// j-tiled register accumulation: a tile of C cells lives in ymm registers
// while p sweeps the reduction ascending, so each C cell sees the exact
// scalar accumulation order (initial value first, then p ascending) with
// mul+add contracted to FMA.  Two A rows share each B load; 8 independent
// FMA chains hide the FMA latency at 2 issues/cycle.
// ---------------------------------------------------------------------------

// bpanel points at the first 16-wide B row of the tile's column panel;
// consecutive reduction rows are bstride apart (m when reading B in
// place, 16 when reading a packed panel — same values either way).
inline void mm_tile_2x16(double* c0, double* c1, const double* a0,
                         const double* a1, const double* bpanel,
                         std::size_t k, std::size_t bstride) {
  __m256d r00 = _mm256_loadu_pd(c0), r01 = _mm256_loadu_pd(c0 + 4);
  __m256d r02 = _mm256_loadu_pd(c0 + 8), r03 = _mm256_loadu_pd(c0 + 12);
  __m256d r10 = _mm256_loadu_pd(c1), r11 = _mm256_loadu_pd(c1 + 4);
  __m256d r12 = _mm256_loadu_pd(c1 + 8), r13 = _mm256_loadu_pd(c1 + 12);
  for (std::size_t p = 0; p < k; ++p) {
    const double* brow = bpanel + p * bstride;
    const __m256d b0 = _mm256_loadu_pd(brow);
    const __m256d b1 = _mm256_loadu_pd(brow + 4);
    const __m256d b2 = _mm256_loadu_pd(brow + 8);
    const __m256d b3 = _mm256_loadu_pd(brow + 12);
    const __m256d va0 = _mm256_broadcast_sd(a0 + p);
    r00 = _mm256_fmadd_pd(va0, b0, r00);
    r01 = _mm256_fmadd_pd(va0, b1, r01);
    r02 = _mm256_fmadd_pd(va0, b2, r02);
    r03 = _mm256_fmadd_pd(va0, b3, r03);
    const __m256d va1 = _mm256_broadcast_sd(a1 + p);
    r10 = _mm256_fmadd_pd(va1, b0, r10);
    r11 = _mm256_fmadd_pd(va1, b1, r11);
    r12 = _mm256_fmadd_pd(va1, b2, r12);
    r13 = _mm256_fmadd_pd(va1, b3, r13);
  }
  _mm256_storeu_pd(c0, r00);
  _mm256_storeu_pd(c0 + 4, r01);
  _mm256_storeu_pd(c0 + 8, r02);
  _mm256_storeu_pd(c0 + 12, r03);
  _mm256_storeu_pd(c1, r10);
  _mm256_storeu_pd(c1 + 4, r11);
  _mm256_storeu_pd(c1 + 8, r12);
  _mm256_storeu_pd(c1 + 12, r13);
}

inline void mm_tile_1x16(double* c0, const double* a0, const double* bpanel,
                         std::size_t k, std::size_t bstride) {
  __m256d r0 = _mm256_loadu_pd(c0), r1 = _mm256_loadu_pd(c0 + 4);
  __m256d r2 = _mm256_loadu_pd(c0 + 8), r3 = _mm256_loadu_pd(c0 + 12);
  for (std::size_t p = 0; p < k; ++p) {
    const double* brow = bpanel + p * bstride;
    const __m256d va = _mm256_broadcast_sd(a0 + p);
    r0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow), r0);
    r1 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + 4), r1);
    r2 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + 8), r2);
    r3 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + 12), r3);
  }
  _mm256_storeu_pd(c0, r0);
  _mm256_storeu_pd(c0 + 4, r1);
  _mm256_storeu_pd(c0 + 8, r2);
  _mm256_storeu_pd(c0 + 12, r3);
}

/// B panels bigger than this (bytes) get copied into a contiguous
/// thread-local pack before the tile sweep: a 16-doubles-wide strided
/// walk over a panel that exceeds half of L1 misses constantly, while
/// the packed copy streams sequentially.  The copy is value-preserving,
/// so packed and in-place paths are bitwise identical.
constexpr std::size_t kPackBytes = 16 * 1024;

inline const double* pack_bpanel(const double* b, std::size_t k,
                                 std::size_t m, std::size_t j) {
  static thread_local std::vector<double> pack;
  pack.resize(k * 16);
  for (std::size_t p = 0; p < k; ++p)
    std::memcpy(pack.data() + p * 16, b + p * m + j, 16 * sizeof(double));
  return pack.data();
}

// Column tail for one row: 4-wide vectors, then scalar FMA.
inline void mm_row_tail(double* crow, const double* arow, const double* b,
                        std::size_t k, std::size_t m, std::size_t j0) {
  std::size_t j = j0;
  for (; j + 4 <= m; j += 4) {
    __m256d r = _mm256_loadu_pd(crow + j);
    for (std::size_t p = 0; p < k; ++p)
      r = _mm256_fmadd_pd(_mm256_broadcast_sd(arow + p),
                          _mm256_loadu_pd(b + p * m + j), r);
    _mm256_storeu_pd(crow + j, r);
  }
  for (; j < m; ++j) {
    double s = crow[j];
    for (std::size_t p = 0; p < k; ++p) s = std::fma(arow[p], b[p * m + j], s);
    crow[j] = s;
  }
}

// Column tail for a row pair: up to three 4-wide column vectors per
// row at once (six independent FMA chains instead of one chain at a
// time), so a narrow panel — m = 12, or the 8 columns past a 16-wide
// tile at H = 12 — is not latency-bound.  Row r's A values are
// ar[p * astride] (astride 1 for matmul_acc, n for matmul_tn_acc's
// column walk).  Each C cell keeps its chain: initial value, then p
// ascending, one FMA per step — as in the single-row tails.
template <std::size_t NV>
inline void tail_2xv(double* c0, double* c1, const double* a0,
                     const double* a1, std::size_t astride, const double* b,
                     std::size_t k, std::size_t m) {
  __m256d r0[NV], r1[NV];
  for (std::size_t v = 0; v < NV; ++v) {
    r0[v] = _mm256_loadu_pd(c0 + 4 * v);
    r1[v] = _mm256_loadu_pd(c1 + 4 * v);
  }
  for (std::size_t p = 0; p < k; ++p) {
    const __m256d va0 = _mm256_broadcast_sd(a0 + p * astride);
    const __m256d va1 = _mm256_broadcast_sd(a1 + p * astride);
    for (std::size_t v = 0; v < NV; ++v) {
      const __m256d bv = _mm256_loadu_pd(b + p * m + 4 * v);
      r0[v] = _mm256_fmadd_pd(va0, bv, r0[v]);
      r1[v] = _mm256_fmadd_pd(va1, bv, r1[v]);
    }
  }
  for (std::size_t v = 0; v < NV; ++v) {
    _mm256_storeu_pd(c0 + 4 * v, r0[v]);
    _mm256_storeu_pd(c1 + 4 * v, r1[v]);
  }
}

/// Columns [j0, m) of a row pair in vector triples, then one pair or
/// single; returns the first column left for the scalar remainder.
inline std::size_t tail_2rows(double* c0, double* c1, const double* a0,
                              const double* a1, std::size_t astride,
                              const double* b, std::size_t k, std::size_t m,
                              std::size_t j0) {
  std::size_t j = j0;
  for (; j + 12 <= m; j += 12)
    tail_2xv<3>(c0 + j, c1 + j, a0, a1, astride, b + j, k, m);
  if (j + 8 <= m) {
    tail_2xv<2>(c0 + j, c1 + j, a0, a1, astride, b + j, k, m);
    j += 8;
  } else if (j + 4 <= m) {
    tail_2xv<1>(c0 + j, c1 + j, a0, a1, astride, b + j, k, m);
    j += 4;
  }
  return j;
}

void matmul_acc(double* c, const double* a, const double* b, std::size_t n,
                std::size_t k, std::size_t m) {
  // j-panel outer: the (k x 16) B panel a tile sweeps stays hot across
  // every row pair instead of being re-streamed per pair.  Tile order
  // does not touch per-cell accumulation order (each C cell is still
  // initial value, then p ascending).
  const std::size_t j16 = m - m % 16;
  const bool pack = k * m * sizeof(double) > kPackBytes && n >= 8;
  for (std::size_t j = 0; j < j16; j += 16) {
    const double* bpanel = pack ? pack_bpanel(b, k, m, j) : b + j;
    const std::size_t bstride = pack ? 16 : m;
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2)
      mm_tile_2x16(c + i * m + j, c + (i + 1) * m + j, a + i * k,
                   a + (i + 1) * k, bpanel, k, bstride);
    if (i < n) mm_tile_1x16(c + i * m + j, a + i * k, bpanel, k, bstride);
  }
  if (j16 < m) {
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      double* c0 = c + i * m;
      double* c1 = c0 + m;
      const double* a0 = a + i * k;
      const std::size_t j =
          tail_2rows(c0, c1, a0, a0 + k, 1, b, k, m, j16);
      mm_row_tail(c0, a0, b, k, m, j);
      mm_row_tail(c1, a0 + k, b, k, m, j);
    }
    if (i < n) mm_row_tail(c + i * m, a + i * k, b, k, m, j16);
  }
}

// ---------------------------------------------------------------------------
// matmul_tn_acc: c (n x m) += a^T (a: k x n) * b (k x m).
//
// Same register-tile scheme; the A operand is walked down a column
// (a[p*n + i]), and two adjacent columns i, i+1 are adjacent in memory,
// so the two broadcasts of each p iteration touch one cache line.
// ---------------------------------------------------------------------------

inline void tn_tile_2x16(double* c0, double* c1, const double* a,
                         const double* bpanel, std::size_t k, std::size_t n,
                         std::size_t bstride, std::size_t i) {
  __m256d r00 = _mm256_loadu_pd(c0), r01 = _mm256_loadu_pd(c0 + 4);
  __m256d r02 = _mm256_loadu_pd(c0 + 8), r03 = _mm256_loadu_pd(c0 + 12);
  __m256d r10 = _mm256_loadu_pd(c1), r11 = _mm256_loadu_pd(c1 + 4);
  __m256d r12 = _mm256_loadu_pd(c1 + 8), r13 = _mm256_loadu_pd(c1 + 12);
  for (std::size_t p = 0; p < k; ++p) {
    const double* brow = bpanel + p * bstride;
    const __m256d b0 = _mm256_loadu_pd(brow);
    const __m256d b1 = _mm256_loadu_pd(brow + 4);
    const __m256d b2 = _mm256_loadu_pd(brow + 8);
    const __m256d b3 = _mm256_loadu_pd(brow + 12);
    const double* acol = a + p * n + i;
    const __m256d va0 = _mm256_broadcast_sd(acol);
    r00 = _mm256_fmadd_pd(va0, b0, r00);
    r01 = _mm256_fmadd_pd(va0, b1, r01);
    r02 = _mm256_fmadd_pd(va0, b2, r02);
    r03 = _mm256_fmadd_pd(va0, b3, r03);
    const __m256d va1 = _mm256_broadcast_sd(acol + 1);
    r10 = _mm256_fmadd_pd(va1, b0, r10);
    r11 = _mm256_fmadd_pd(va1, b1, r11);
    r12 = _mm256_fmadd_pd(va1, b2, r12);
    r13 = _mm256_fmadd_pd(va1, b3, r13);
  }
  _mm256_storeu_pd(c0, r00);
  _mm256_storeu_pd(c0 + 4, r01);
  _mm256_storeu_pd(c0 + 8, r02);
  _mm256_storeu_pd(c0 + 12, r03);
  _mm256_storeu_pd(c1, r10);
  _mm256_storeu_pd(c1 + 4, r11);
  _mm256_storeu_pd(c1 + 8, r12);
  _mm256_storeu_pd(c1 + 12, r13);
}

inline void tn_tile_1x16(double* c0, const double* a, const double* bpanel,
                         std::size_t k, std::size_t n, std::size_t bstride,
                         std::size_t i) {
  __m256d r0 = _mm256_loadu_pd(c0), r1 = _mm256_loadu_pd(c0 + 4);
  __m256d r2 = _mm256_loadu_pd(c0 + 8), r3 = _mm256_loadu_pd(c0 + 12);
  for (std::size_t p = 0; p < k; ++p) {
    const double* brow = bpanel + p * bstride;
    const __m256d va = _mm256_broadcast_sd(a + p * n + i);
    r0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow), r0);
    r1 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + 4), r1);
    r2 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + 8), r2);
    r3 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + 12), r3);
  }
  _mm256_storeu_pd(c0, r0);
  _mm256_storeu_pd(c0 + 4, r1);
  _mm256_storeu_pd(c0 + 8, r2);
  _mm256_storeu_pd(c0 + 12, r3);
}

inline void tn_row_tail(double* crow, const double* a, const double* b,
                        std::size_t k, std::size_t n, std::size_t m,
                        std::size_t i, std::size_t j0) {
  std::size_t j = j0;
  for (; j + 4 <= m; j += 4) {
    __m256d r = _mm256_loadu_pd(crow + j);
    for (std::size_t p = 0; p < k; ++p)
      r = _mm256_fmadd_pd(_mm256_broadcast_sd(a + p * n + i),
                          _mm256_loadu_pd(b + p * m + j), r);
    _mm256_storeu_pd(crow + j, r);
  }
  for (; j < m; ++j) {
    double s = crow[j];
    for (std::size_t p = 0; p < k; ++p)
      s = std::fma(a[p * n + i], b[p * m + j], s);
    crow[j] = s;
  }
}

void matmul_tn_acc(double* c, const double* a, const double* b, std::size_t n,
                   std::size_t k, std::size_t m) {
  // j-panel outer with the same B-panel packing as matmul_acc.
  const std::size_t j16 = m - m % 16;
  const bool pack = k * m * sizeof(double) > kPackBytes && n >= 8;
  for (std::size_t j = 0; j < j16; j += 16) {
    const double* bpanel = pack ? pack_bpanel(b, k, m, j) : b + j;
    const std::size_t bstride = pack ? 16 : m;
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2)
      tn_tile_2x16(c + i * m + j, c + (i + 1) * m + j, a, bpanel, k, n,
                   bstride, i);
    if (i < n) tn_tile_1x16(c + i * m + j, a, bpanel, k, n, bstride, i);
  }
  if (j16 < m) {
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      double* c0 = c + i * m;
      const std::size_t j =
          tail_2rows(c0, c0 + m, a + i, a + i + 1, n, b, k, m, j16);
      tn_row_tail(c0, a, b, k, n, m, i, j);
      tn_row_tail(c0 + m, a, b, k, n, m, i + 1, j);
    }
    if (i < n) tn_row_tail(c + i * m, a, b, k, n, m, i, j16);
  }
}

// ---------------------------------------------------------------------------
// matmul_nt_acc: c (n x m) += a (n x k) * b^T (b: m x k).
//
// Row-times-row dot products.  Four B rows at a time against one A row:
// each of the 4 accumulators reduces its own row in 4 lanes (ascending p
// within a lane), then a transpose-reduce folds them into one 4-wide
// update of C.  Lane count differs from the scalar backend's 2, so this
// kernel is relative-bound, not bitwise.
// ---------------------------------------------------------------------------

inline __m256d hsum4(__m256d acc0, __m256d acc1, __m256d acc2, __m256d acc3) {
  // [a01, b01, a23, b23] / [c01, d01, c23, d23] -> per-row totals [a,b,c,d]
  const __m256d t0 = _mm256_hadd_pd(acc0, acc1);
  const __m256d t1 = _mm256_hadd_pd(acc2, acc3);
  const __m256d lo = _mm256_permute2f128_pd(t0, t1, 0x20);
  const __m256d hi = _mm256_permute2f128_pd(t0, t1, 0x31);
  return _mm256_add_pd(lo, hi);
}

void matmul_nt_acc(double* c, const double* a, const double* b, std::size_t n,
                   std::size_t k, std::size_t m) {
  const std::size_t k4 = k - k % 4;
  for (std::size_t i = 0; i < n; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * m;
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      const double* b0 = b + j * k;
      const double* b1 = b0 + k;
      const double* b2 = b1 + k;
      const double* b3 = b2 + k;
      __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
      __m256d acc2 = _mm256_setzero_pd(), acc3 = _mm256_setzero_pd();
      for (std::size_t p = 0; p < k4; p += 4) {
        const __m256d va = _mm256_loadu_pd(arow + p);
        acc0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b0 + p), acc0);
        acc1 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b1 + p), acc1);
        acc2 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b2 + p), acc2);
        acc3 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b3 + p), acc3);
      }
      __m256d sums = hsum4(acc0, acc1, acc2, acc3);
      if (k4 < k) {
        // Reduction tail: finish each dot scalar, lane-extracted.
        alignas(32) double s[4];
        _mm256_store_pd(s, sums);
        for (std::size_t p = k4; p < k; ++p) {
          const double av = arow[p];
          s[0] = std::fma(av, b0[p], s[0]);
          s[1] = std::fma(av, b1[p], s[1]);
          s[2] = std::fma(av, b2[p], s[2]);
          s[3] = std::fma(av, b3[p], s[3]);
        }
        sums = _mm256_load_pd(s);
      }
      _mm256_storeu_pd(crow + j,
                       _mm256_add_pd(_mm256_loadu_pd(crow + j), sums));
    }
    for (; j < m; ++j) {
      const double* brow = b + j * k;
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) s = std::fma(arow[p], brow[p], s);
      crow[j] += s;
    }
  }
}

// ---------------------------------------------------------------------------
// Elementwise linear kernels: 4-wide mul/add only (no FMA), so every
// element goes through exactly the scalar backend's IEEE ops — bitwise
// identical, just four at a time.
// ---------------------------------------------------------------------------

void vadd(double* y, const double* a, const double* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  for (; i < n; ++i) y[i] = a[i] + b[i];
}

void vsub(double* y, const double* a, const double* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(
        y + i, _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  for (; i < n; ++i) y[i] = a[i] - b[i];
}

void vmul(double* y, const double* a, const double* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(
        y + i, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  for (; i < n; ++i) y[i] = a[i] * b[i];
}

void vmacc(double* y, const double* a, const double* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod =
        _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += a[i] * b[i];
}

void vaxpy(double* y, double alpha, const double* x, std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void vaffine(double* y, const double* a, double alpha, double beta,
             std::size_t n) {
  const __m256d valpha = _mm256_set1_pd(alpha);
  const __m256d vbeta = _mm256_set1_pd(beta);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(
        y + i,
        _mm256_add_pd(_mm256_mul_pd(valpha, _mm256_loadu_pd(a + i)), vbeta));
  for (; i < n; ++i) y[i] = alpha * a[i] + beta;
}

void vrelu(double* y, const double* a, std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(a + i);
    // a > 0 ? a : 0 — blend keeps the scalar branch semantics (so -0.0
    // maps to +0.0 exactly like the reference).
    _mm256_storeu_pd(y + i,
                     _mm256_and_pd(v, _mm256_cmp_pd(v, zero, _CMP_GT_OQ)));
  }
  for (; i < n; ++i) y[i] = a[i] > 0.0 ? a[i] : 0.0;
}

// ---------------------------------------------------------------------------
// Vector exp, Cephes style (expm1-free range reduction + rational
// polynomial), accurate to ~1-2 ulp over the finite range.  sigmoid/tanh
// build on it.  This is where the GRU's elementwise time goes — libm exp
// is the single hottest scalar op in the GRU step.
//
// exp(x) = 2^n · (Q + P) / (Q − P) is returned as its three factors, so
// sigmoid and tanh can fold the quotient into their own single division
// instead of dividing once here and again (twice, for tanh) on top.
// ---------------------------------------------------------------------------

constexpr double kMaxLog = 709.782712893383996843;   // log(DBL_MAX)
constexpr double kMinLog = -708.396418532264078749;  // log(DBL_MIN), normal
// tanh(x) rounds to exactly ±1 beyond this: 1 - tanh(x) = 2e^{-2x} drops
// below half an ulp of 1 (2^-54) at x = 55 ln2 / 2.
constexpr double kTanhSaturate = 19.0626152592;

struct ExpParts {
  __m256d num;   ///< Q + P
  __m256d den;   ///< Q − P  (both within [1.6, 2.4] after range reduction)
  __m256d pow2;  ///< 2^n
};

/// exp(x) = pow2 · num / den for x already clamped to [kMinLog, kMaxLog]
/// (n reaches 1024 at the top, where pow2 is +inf).
inline ExpParts vexp_parts(__m256d x) {
  // n = round(x * log2(e)); r = x - n*ln2 in two pieces for accuracy.
  const __m256d vlog2e = _mm256_set1_pd(1.4426950408889634073599);
  const __m256d n = _mm256_round_pd(
      _mm256_mul_pd(x, vlog2e), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d c1 = _mm256_set1_pd(6.93145751953125e-1);
  const __m256d c2 = _mm256_set1_pd(1.42860682030941723212e-6);
  x = _mm256_fnmadd_pd(n, c1, x);
  x = _mm256_fnmadd_pd(n, c2, x);

  // exp(r) = (Q(r²) + r·P(r²)) / (Q(r²) − r·P(r²)), |r| <= ln2/2.
  const __m256d xx = _mm256_mul_pd(x, x);
  __m256d px = _mm256_set1_pd(1.26177193074810590878e-4);
  px = _mm256_fmadd_pd(px, xx, _mm256_set1_pd(3.02994407707441961300e-2));
  px = _mm256_fmadd_pd(px, xx, _mm256_set1_pd(9.99999999999999999910e-1));
  px = _mm256_mul_pd(px, x);
  __m256d qx = _mm256_set1_pd(3.00198505138664455042e-6);
  qx = _mm256_fmadd_pd(qx, xx, _mm256_set1_pd(2.52448340349684104192e-3));
  qx = _mm256_fmadd_pd(qx, xx, _mm256_set1_pd(2.27265548208155028766e-1));
  qx = _mm256_fmadd_pd(qx, xx, _mm256_set1_pd(2.0));

  // 2^n via direct exponent-field construction (|n| <= 1024, so the
  // int32 path is exact).
  const __m128i n32 = _mm256_cvtpd_epi32(n);
  const __m256i n64 = _mm256_cvtepi32_epi64(n32);
  const __m256i pow2 =
      _mm256_slli_epi64(_mm256_add_epi64(n64, _mm256_set1_epi64x(1023)), 52);
  return {_mm256_add_pd(qx, px), _mm256_sub_pd(qx, px),
          _mm256_castsi256_pd(pow2)};
}

// sigmoid(x) = 1 / (1 + 2^n N/D) = D / (D + 2^n N) with e^{-x} = 2^n N/D:
// one division.  Saturates without a blend: below -kMaxLog 2^n is +inf
// and the quotient is exactly 0; above -kMinLog 2^n N is far below half
// an ulp of D and the quotient is exactly 1.
inline __m256d vsigmoid_pd(__m256d x) {
  __m256d t = _mm256_sub_pd(_mm256_setzero_pd(), x);
  t = _mm256_min_pd(_mm256_set1_pd(kMaxLog), t);
  t = _mm256_max_pd(_mm256_set1_pd(kMinLog), t);
  const ExpParts e = vexp_parts(t);
  return _mm256_div_pd(e.den, _mm256_fmadd_pd(e.pow2, e.num, e.den));
}

void vsigmoid(double* y, const double* a, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(y + i, vsigmoid_pd(_mm256_loadu_pd(a + i)));
  if (i < n) {
    // Ragged tail goes through the same vector pipeline (padded), so a
    // value's result never depends on where the row boundary fell.
    alignas(32) double buf[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t t = i; t < n; ++t) buf[t - i] = a[t];
    alignas(32) double out[4];
    _mm256_store_pd(out, vsigmoid_pd(_mm256_load_pd(buf)));
    for (std::size_t t = i; t < n; ++t) y[t] = out[t - i];
  }
}

// tanh, Cephes style: polynomial on |x| < 0.625, exp-based beyond — each
// branch's numerator and denominator are selected first, then divided
// once.  Small: x + x·z·P(z)/Q(z) = (x·Q + x·z·P) / Q, z = x² (no
// cancellation near 0).  Large: with e^{2|x|} = 2^n N/D,
// tanh|x| = (2^n N − D) / (2^n N + D).  Beyond kTanhSaturate the result
// is exactly ±1, and clamping the exp argument there keeps 2^n N finite.
inline __m256d vtanh_pd(__m256d x) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d sign = _mm256_and_pd(x, sign_mask);
  const __m256d ax = _mm256_andnot_pd(sign_mask, x);
  const __m256d sat = _mm256_set1_pd(kTanhSaturate);

  const __m256d a2 = _mm256_min_pd(_mm256_add_pd(ax, ax),
                                   _mm256_add_pd(sat, sat));
  const ExpParts e = vexp_parts(a2);
  const __m256d big = _mm256_mul_pd(e.pow2, e.num);
  const __m256d big_num = _mm256_or_pd(_mm256_sub_pd(big, e.den), sign);
  const __m256d big_den = _mm256_add_pd(big, e.den);

  const __m256d z = _mm256_mul_pd(x, x);
  __m256d p = _mm256_set1_pd(-9.64399179425052238628e-1);
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(-9.92877231001918586564e1));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(-1.61468768441708447952e3));
  __m256d q = _mm256_add_pd(z, _mm256_set1_pd(1.12811678491632931402e2));
  q = _mm256_fmadd_pd(q, z, _mm256_set1_pd(2.23548839060100448583e3));
  q = _mm256_fmadd_pd(q, z, _mm256_set1_pd(4.84406305325125486048e3));
  const __m256d small_num =
      _mm256_fmadd_pd(_mm256_mul_pd(x, z), p, _mm256_mul_pd(x, q));

  const __m256d use_small =
      _mm256_cmp_pd(ax, _mm256_set1_pd(0.625), _CMP_LT_OQ);
  const __m256d t =
      _mm256_div_pd(_mm256_blendv_pd(big_num, small_num, use_small),
                    _mm256_blendv_pd(big_den, q, use_small));
  return _mm256_blendv_pd(t, _mm256_or_pd(one, sign),
                          _mm256_cmp_pd(ax, sat, _CMP_GE_OQ));
}

void vtanh(double* y, const double* a, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(y + i, vtanh_pd(_mm256_loadu_pd(a + i)));
  if (i < n) {
    alignas(32) double buf[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t t = i; t < n; ++t) buf[t - i] = a[t];
    alignas(32) double out[4];
    _mm256_store_pd(out, vtanh_pd(_mm256_load_pd(buf)));
    for (std::size_t t = i; t < n; ++t) y[t] = out[t - i];
  }
}

// ---------------------------------------------------------------------------
// GRU gate and blend passes.
// ---------------------------------------------------------------------------

void gru_gates(double* z, double* r, double* rh, const double* a_zr,
               const double* h, std::size_t rows, std::size_t hid) {
  if (hid % 4 == 0) {
    // Whole vectors per half-row: one pass over the panel, z, r and r.*h
    // of a column block produced together.
    for (std::size_t row = 0; row < rows; ++row) {
      const double* azr = a_zr + row * 2 * hid;
      const std::size_t off = row * hid;
      for (std::size_t c = 0; c < hid; c += 4) {
        _mm256_storeu_pd(z + off + c, vsigmoid_pd(_mm256_loadu_pd(azr + c)));
        const __m256d rv = vsigmoid_pd(_mm256_loadu_pd(azr + hid + c));
        _mm256_storeu_pd(r + off + c, rv);
        _mm256_storeu_pd(rh + off + c,
                         _mm256_mul_pd(rv, _mm256_loadu_pd(h + off + c)));
      }
    }
    return;
  }
  // Ragged widths: padded vector tails per half-row (same per-element
  // results — the sigmoid is lane-independent).
  for (std::size_t row = 0; row < rows; ++row) {
    const double* azr = a_zr + row * 2 * hid;
    const double* hrow = h + row * hid;
    double* zrow = z + row * hid;
    double* rrow = r + row * hid;
    vsigmoid(zrow, azr, hid);
    vsigmoid(rrow, azr + hid, hid);
    vmul(rh + row * hid, rrow, hrow, hid);
  }
}

void gru_blend(double* nout, double* y, const double* an, const double* z,
               const double* h, std::size_t n) {
  // Blend uses mul+add (not FMA): identical IEEE ops to the scalar
  // reference, so given the same nout the blend is bitwise-stable.
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d nf = vtanh_pd(_mm256_loadu_pd(an + i));
    _mm256_storeu_pd(nout + i, nf);
    const __m256d zf = _mm256_loadu_pd(z + i);
    const __m256d hv = _mm256_loadu_pd(h + i);
    const __m256d blended = _mm256_add_pd(
        _mm256_mul_pd(_mm256_sub_pd(one, zf), nf), _mm256_mul_pd(zf, hv));
    _mm256_storeu_pd(y + i, blended);
  }
  for (; i < n; ++i) {
    vtanh(nout + i, an + i, 1);
    y[i] = (1.0 - z[i]) * nout[i] + z[i] * h[i];
  }
}

}  // namespace
}  // namespace avx2

const Backend* detail::avx2_backend() noexcept {
  static const Backend backend = {
      Isa::kAvx2Fma,
      "avx2+fma",
      &avx2::matmul_acc,
      &avx2::matmul_tn_acc,
      &avx2::matmul_nt_acc,
      &avx2::vadd,
      &avx2::vsub,
      &avx2::vmul,
      &avx2::vmacc,
      &avx2::vaxpy,
      &avx2::vaffine,
      &avx2::vrelu,
      &avx2::vsigmoid,
      &avx2::vtanh,
      &avx2::gru_gates,
      &avx2::gru_blend,
  };
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported ? &backend : nullptr;
}

}  // namespace rnx::nn::kernels

#else  // non-x86: this translation unit contributes only the stub.

namespace rnx::nn::kernels {
const Backend* detail::avx2_backend() noexcept { return nullptr; }
}  // namespace rnx::nn::kernels

#endif
