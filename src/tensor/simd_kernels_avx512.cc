// AVX-512 microkernels (fp32 8x32 FMA tile and its accumulating twin,
// int8 VPDPBUSD tile, int8 row quantization). Compiled with
// -mavx512{f,bw,vl,vnni} regardless of the build's baseline arch and
// dispatched only behind the CPUID checks in cpu_features.h.

#include "tensor/simd_kernels.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__AVX512VNNI__)

// GCC 12's unmasked AVX-512 intrinsics pass a self-initialized "undefined"
// vector as the merge source, and -Wmaybe-uninitialized flags it once they
// inline (GCC bug 105593).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>

#include <cstring>
#include <utility>

namespace apots::tensor::simd {

namespace {

inline __mmask16 LaneMask(size_t live) {
  return live >= 16 ? static_cast<__mmask16>(0xFFFFu)
                    : static_cast<__mmask16>((1u << live) - 1u);
}

/// Rows [0, sizeof...(r)) of an 8x32 register tile (a and out point at the
/// tile's first row) over the panel's `width` live columns. The row count
/// is a compile-time constant and every row step is a fold over its index
/// sequence, so each row's two accumulators are named values the compiler
/// keeps in zmm registers: the k loop is two panel loads and, per row, one
/// broadcast of A into two FMAs, with no accumulator load or store. A full
/// tile holds 16 accumulators and 2 panel vectors of the 32 registers, 16
/// independent chains to cover the FMA latency on two ports. Lanes past
/// `width` are never written.
template <size_t... r>
void Tile(std::index_sequence<r...>, const float* a, size_t a_rs,
          size_t a_cs, const float* panel, size_t k, float* out,
          size_t out_ld, size_t width) {
  constexpr size_t kRows = sizeof...(r);
  __m512 lo[kRows] = {(static_cast<void>(r), _mm512_setzero_ps())...};
  __m512 hi[kRows] = {(static_cast<void>(r), _mm512_setzero_ps())...};
  for (size_t kk = 0; kk < k; ++kk) {
    const __m512 b0 = _mm512_load_ps(panel + kk * kNrAvx512);
    const __m512 b1 = _mm512_load_ps(panel + kk * kNrAvx512 + 16);
    const float* a_k = a + kk * a_cs;
    ((lo[r] = _mm512_fmadd_ps(_mm512_set1_ps(a_k[r * a_rs]), b0, lo[r]),
      hi[r] = _mm512_fmadd_ps(_mm512_set1_ps(a_k[r * a_rs]), b1, hi[r])),
     ...);
  }
  if (width == kNrAvx512) {
    ((_mm512_storeu_ps(out + r * out_ld, lo[r]),
      _mm512_storeu_ps(out + r * out_ld + 16, hi[r])),
     ...);
    return;
  }
  const __mmask16 m0 = LaneMask(width);
  const __mmask16 m1 = width > 16 ? LaneMask(width - 16) : 0;
  ((_mm512_mask_storeu_ps(out + r * out_ld, m0, lo[r]),
    _mm512_mask_storeu_ps(out + r * out_ld + 16, m1, hi[r])),
   ...);
}

template <size_t kRows>
void TileRows(const float* a, size_t a_rs, size_t a_cs, const float* panel,
              size_t k, float* out, size_t out_ld, size_t width) {
  Tile(std::make_index_sequence<kRows>(), a, a_rs, a_cs, panel, k, out,
       out_ld, width);
}

}  // namespace

void GemmPanelAvx512(const float* a, size_t a_rs, size_t a_cs,
                     const float* panel, size_t k, size_t nr, float* out,
                     size_t out_ld, size_t r0, size_t r1, size_t width) {
  (void)nr;  // the AVX-512 panel width is kNrAvx512 by construction
  size_t i = r0;
  for (; i + kMrAvx512 <= r1; i += kMrAvx512) {
    TileRows<kMrAvx512>(a + i * a_rs, a_rs, a_cs, panel, k, out + i * out_ld,
                        out_ld, width);
  }
  const float* a_i = a + i * a_rs;
  float* out_i = out + i * out_ld;
  switch (r1 - i) {
    case 7:
      return TileRows<7>(a_i, a_rs, a_cs, panel, k, out_i, out_ld, width);
    case 6:
      return TileRows<6>(a_i, a_rs, a_cs, panel, k, out_i, out_ld, width);
    case 5:
      return TileRows<5>(a_i, a_rs, a_cs, panel, k, out_i, out_ld, width);
    case 4:
      return TileRows<4>(a_i, a_rs, a_cs, panel, k, out_i, out_ld, width);
    case 3:
      return TileRows<3>(a_i, a_rs, a_cs, panel, k, out_i, out_ld, width);
    case 2:
      return TileRows<2>(a_i, a_rs, a_cs, panel, k, out_i, out_ld, width);
    case 1:
      return TileRows<1>(a_i, a_rs, a_cs, panel, k, out_i, out_ld, width);
  }
}

namespace {

/// Rows [0, sizeof...(r)) of the accumulating tile over kPanels adjacent
/// kNrSum-column panels (the second at panel + k*kNrSum), folded like
/// Tile: the k loop is kPanels panel loads and, per row, one broadcast
/// into kPanels FMAs. Two panels take 8 rows, as the serving tile does, so
/// a broadcast feeds two FMAs; a lone panel (narrow products, such as a
/// conv layer's taps) takes kMrSumAvx512 rows. Each chain runs from zero
/// and is added into `out` at store (masked past `width`), as out + chain.
template <size_t kPanels, size_t... r>
void AddTile(std::index_sequence<r...>, const float* a, size_t a_rs,
             size_t a_cs, const float* panel, size_t k, float* out,
             size_t out_ld, size_t width) {
  constexpr size_t kRows = sizeof...(r);
  __m512 lo[kRows] = {(static_cast<void>(r), _mm512_setzero_ps())...};
  __m512 hi[kRows] = {(static_cast<void>(r), _mm512_setzero_ps())...};
  const float* panel1 = panel + k * kNrSum;
  for (size_t kk = 0; kk < k; ++kk) {
    const __m512 b0 = _mm512_load_ps(panel + kk * kNrSum);
    const float* a_k = a + kk * a_cs;
    if constexpr (kPanels == 2) {
      const __m512 b1 = _mm512_load_ps(panel1 + kk * kNrSum);
      ((lo[r] = _mm512_fmadd_ps(_mm512_set1_ps(a_k[r * a_rs]), b0, lo[r]),
        hi[r] = _mm512_fmadd_ps(_mm512_set1_ps(a_k[r * a_rs]), b1, hi[r])),
       ...);
    } else {
      ((lo[r] = _mm512_fmadd_ps(_mm512_set1_ps(a_k[r * a_rs]), b0, lo[r])),
       ...);
    }
  }
  const __mmask16 m0 = LaneMask(width);
  ((_mm512_mask_storeu_ps(
       out + r * out_ld, m0,
       _mm512_add_ps(_mm512_maskz_loadu_ps(m0, out + r * out_ld), lo[r]))),
   ...);
  if constexpr (kPanels == 2) {
    const __mmask16 m1 = LaneMask(width - kNrSum);
    ((_mm512_mask_storeu_ps(
         out + r * out_ld + kNrSum, m1,
         _mm512_add_ps(_mm512_maskz_loadu_ps(m1, out + r * out_ld + kNrSum),
                       hi[r]))),
     ...);
  }
}

/// Rows [r0, r1) of the accumulating tile: full tiles of kRows rows, then
/// one tile of the rows left, one instantiation per count.
template <size_t kPanels, size_t kRows>
void AddTileRows(const float* a, size_t a_rs, size_t a_cs, const float* panel,
                 size_t k, float* out, size_t out_ld, size_t r0, size_t r1,
                 size_t width) {
  size_t i = r0;
  for (; i + kRows <= r1; i += kRows) {
    AddTile<kPanels>(std::make_index_sequence<kRows>(), a + i * a_rs, a_rs,
                     a_cs, panel, k, out + i * out_ld, out_ld, width);
  }
  if constexpr (kRows > 1) {
    AddTileRows<kPanels, kRows - 1>(a, a_rs, a_cs, panel, k, out, out_ld, i,
                                    r1, width);
  }
}

}  // namespace

void GemmPanelAddAvx512(const float* a, size_t a_rs, size_t a_cs,
                        const float* panel, size_t k, size_t nr, float* out,
                        size_t out_ld, size_t r0, size_t r1, size_t width) {
  (void)nr;  // the accumulating panel width is kNrSum by construction
  if (width > kNrSum) {
    AddTileRows<2, kMrAvx512>(a, a_rs, a_cs, panel, k, out, out_ld, r0, r1,
                              width);
  } else {
    AddTileRows<1, kMrSumAvx512>(a, a_rs, a_cs, panel, k, out, out_ld, r0, r1,
                                 width);
  }
}

namespace {

/// Loads one 4-byte k-group of a quantized activation row as a broadcast
/// dword (unaligned-safe).
inline __m512i BroadcastA4(const uint8_t* a4) {
  uint32_t dword;
  std::memcpy(&dword, a4, sizeof(dword));
  return _mm512_set1_epi32(static_cast<int>(dword));
}

/// Rows [i0, i0 + sizeof...(r)) of the int8 tile over one panel: one
/// VPDPBUSD chain per row, folded like the fp32 Tile. The integer sums
/// are exact, so the accumulators equal Int8PanelScalar's.
/// The dequantization is DequantInt8Acc lane for lane: the same products
/// in the same order, the same int-to-float rounding and one fused
/// multiply-add, so it returns its floats.
template <size_t... r>
void Int8Tile(std::index_sequence<r...>, const uint8_t* qa, size_t qa_ld,
              const float* row_scale, const float* row_min,
              const int8_t* panel, size_t groups, const float* col_scale,
              const int32_t* col_zsum, float* out, size_t out_ld, size_t i0,
              size_t width) {
  constexpr size_t kRows = sizeof...(r);
  __m512i acc[kRows] = {(static_cast<void>(r), _mm512_setzero_si512())...};
  const uint8_t* a0 = qa + i0 * qa_ld;
  for (size_t g = 0; g < groups; ++g) {
    const __m512i bv = _mm512_load_si512(panel + g * kNrInt8 * 4);
    ((acc[r] = _mm512_dpbusd_epi32(acc[r],
                                   BroadcastA4(a0 + r * qa_ld + g * 4), bv)),
     ...);
  }
  const __mmask16 mask = LaneMask(width);
  const __m512 scale = _mm512_maskz_loadu_ps(mask, col_scale);
  const __m512 zsum =
      _mm512_cvtepi32_ps(_mm512_maskz_loadu_epi32(mask, col_zsum));
  (_mm512_mask_storeu_ps(
       out + (i0 + r) * out_ld, mask,
       _mm512_fmadd_ps(
           _mm512_mul_ps(_mm512_set1_ps(row_scale[i0 + r]), scale),
           _mm512_cvtepi32_ps(acc[r]),
           _mm512_mul_ps(
               _mm512_mul_ps(_mm512_set1_ps(row_min[i0 + r]), scale),
               zsum))),
   ...);
}

template <size_t kRows>
void Int8TileRows(const uint8_t* qa, size_t qa_ld, const float* row_scale,
                  const float* row_min, const int8_t* panel, size_t groups,
                  const float* col_scale, const int32_t* col_zsum, float* out,
                  size_t out_ld, size_t i0, size_t width) {
  Int8Tile(std::make_index_sequence<kRows>(), qa, qa_ld, row_scale, row_min,
           panel, groups, col_scale, col_zsum, out, out_ld, i0, width);
}

}  // namespace

void Int8PanelVnni(const uint8_t* qa, size_t qa_ld, const float* row_scale,
                   const float* row_min, const int8_t* panel, size_t kp,
                   const float* col_scale, const int32_t* col_zsum, float* out,
                   size_t out_ld, size_t r0, size_t r1, size_t width) {
  const size_t groups = kp / 4;
  size_t i = r0;
  for (; i + kMrInt8 <= r1; i += kMrInt8) {
    Int8TileRows<kMrInt8>(qa, qa_ld, row_scale, row_min, panel, groups,
                          col_scale, col_zsum, out, out_ld, i, width);
  }
  for (; i + 4 <= r1; i += 4) {
    Int8TileRows<4>(qa, qa_ld, row_scale, row_min, panel, groups, col_scale,
                    col_zsum, out, out_ld, i, width);
  }
  for (; i < r1; ++i) {
    Int8TileRows<1>(qa, qa_ld, row_scale, row_min, panel, groups, col_scale,
                    col_zsum, out, out_ld, i, width);
  }
}

namespace {

/// The first element of a[0, k) that compares equal to zero: the one a
/// sequential std::min or std::max keeps when the extreme is a zero, whose
/// sign a lane-parallel fold does not know.
float FirstZero(const float* a, size_t k) {
  for (size_t kk = 0; kk < k; ++kk) {
    if (a[kk] == 0.0f) return a[kk];
  }
  return 0.0f;
}

}  // namespace

void QuantizeRowsAvx512(const float* a, size_t m, size_t k, size_t kp,
                        float* row_scale, float* row_min, uint8_t* qa) {
  if (k == 0) {
    QuantizeRowsScalar(a, m, k, kp, row_scale, row_min, qa);
    return;
  }
  for (size_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    // Each lane folds its elements in order from a_row[0] with the
    // operand order of std::min(lo, x) = MINPS(x, lo) and std::max(hi, x)
    // = MAXPS(x, hi): a NaN x keeps the bound, and a NaN a_row[0] stays
    // in every lane. Lanes past k keep a_row[0], which is already folded.
    __m512 lo = _mm512_set1_ps(a_row[0]);
    __m512 hi = lo;
    for (size_t kk = 0; kk < k; kk += 16) {
      const __mmask16 mask = LaneMask(k - kk);
      const __m512 x = _mm512_mask_loadu_ps(lo, mask, a_row + kk);
      const __m512 y = _mm512_mask_loadu_ps(hi, mask, a_row + kk);
      lo = _mm512_min_ps(x, lo);
      hi = _mm512_max_ps(y, hi);
    }
    // Away from zero an extreme has one bit pattern, so the lane order
    // does not matter; for a zero extreme the sequential fold keeps the
    // row's first zero.
    float row_lo = _mm512_reduce_min_ps(lo);
    float row_hi = _mm512_reduce_max_ps(hi);
    if (row_lo == 0.0f) row_lo = FirstZero(a_row, k);
    if (row_hi == 0.0f) row_hi = FirstZero(a_row, k);
    const float range = row_hi - row_lo;
    const float inv_scale = range > 0.0f ? 255.0f / range : 0.0f;
    row_scale[i] = range > 0.0f ? range / 255.0f : 0.0f;
    row_min[i] = row_lo;
    // (a - lo) * inv, then max(0, .) and min(255, .) in std::max(0, s) =
    // MAXPS(s, 0) and std::min(255, c) = MINPS(c, 255) order (NaN -> 0),
    // rounded to nearest even like std::nearbyintf.
    const __m512 vlo = _mm512_set1_ps(row_lo);
    const __m512 vinv = _mm512_set1_ps(inv_scale);
    const __m512 zero = _mm512_setzero_ps();
    const __m512 top = _mm512_set1_ps(255.0f);
    uint8_t* q_row = qa + i * kp;
    for (size_t kk = 0; kk < k; kk += 16) {
      const __mmask16 mask = LaneMask(k - kk);
      const __m512 scaled = _mm512_mul_ps(
          _mm512_sub_ps(_mm512_maskz_loadu_ps(mask, a_row + kk), vlo), vinv);
      const __m512 clamped =
          _mm512_min_ps(_mm512_max_ps(scaled, zero), top);
      _mm_mask_storeu_epi8(q_row + kk, mask,
                           _mm512_cvtepi32_epi8(_mm512_cvtps_epi32(clamped)));
    }
    for (size_t kk = k; kk < kp; ++kk) q_row[kk] = 0;
  }
}

}  // namespace apots::tensor::simd

#else  // toolchain cannot target AVX-512: forward to the scalar paths.

namespace apots::tensor::simd {

void GemmPanelAvx512(const float* a, size_t a_rs, size_t a_cs,
                     const float* panel, size_t k, size_t nr, float* out,
                     size_t out_ld, size_t r0, size_t r1, size_t width) {
  GemmPanelScalar(a, a_rs, a_cs, panel, k, nr, out, out_ld, r0, r1, width);
}

void GemmPanelAddAvx512(const float* a, size_t a_rs, size_t a_cs,
                        const float* panel, size_t k, size_t nr, float* out,
                        size_t out_ld, size_t r0, size_t r1, size_t width) {
  GemmPanelAddScalar(a, a_rs, a_cs, panel, k, nr, out, out_ld, r0, r1, width);
}

void Int8PanelVnni(const uint8_t* qa, size_t qa_ld, const float* row_scale,
                   const float* row_min, const int8_t* panel, size_t kp,
                   const float* col_scale, const int32_t* col_zsum, float* out,
                   size_t out_ld, size_t r0, size_t r1, size_t width) {
  Int8PanelScalar(qa, qa_ld, row_scale, row_min, panel, kp, col_scale,
                  col_zsum, out, out_ld, r0, r1, width);
}

void QuantizeRowsAvx512(const float* a, size_t m, size_t k, size_t kp,
                        float* row_scale, float* row_min, uint8_t* qa) {
  QuantizeRowsScalar(a, m, k, kp, row_scale, row_min, qa);
}

}  // namespace apots::tensor::simd

#endif
