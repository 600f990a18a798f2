// AVX2/FMA microkernels. This translation unit is compiled with
// -mavx2 -mfma -mf16c regardless of the build's baseline arch; nothing in
// it runs unless cpu_features.h saw the matching CPUID bits, so the binary
// stays safe on plain x86-64 hosts.

#include "tensor/simd_kernels.h"

#if defined(__AVX2__) && defined(__FMA__) && defined(__F16C__)

#include <immintrin.h>

#include <cstring>
#include <utility>

namespace apots::tensor::simd {

namespace {

/// Rows [0, sizeof...(r)) of a 6x16 register tile (a and out point at the
/// tile's first row) over the panel's `width` live columns. As in the
/// AVX-512 tile, the compile-time row count and the fold over its index
/// sequence make each row's two accumulators named ymm values: the k loop
/// is two panel loads and, per row, one broadcast and two FMAs, with no
/// accumulator load or store. A full tile holds 12 accumulators, 2 panel
/// vectors and 1 broadcast of the 16 registers. Each output element is one
/// k-ascending FMA chain. Narrow stores go through an aligned spill so no
/// lane past `width` is touched.
/// kAdd (the accumulating kernel) adds each chain into `out` at store, as
/// out + chain; the narrow store adds lane by lane from the spill.
template <bool kAdd, size_t... r>
void Tile(std::index_sequence<r...>, const float* a, size_t a_rs,
          size_t a_cs, const float* panel, size_t k, float* out,
          size_t out_ld, size_t width) {
  constexpr size_t kRows = sizeof...(r);
  __m256 lo[kRows] = {(static_cast<void>(r), _mm256_setzero_ps())...};
  __m256 hi[kRows] = {(static_cast<void>(r), _mm256_setzero_ps())...};
  for (size_t kk = 0; kk < k; ++kk) {
    const __m256 b0 = _mm256_load_ps(panel + kk * kNrAvx2);
    const __m256 b1 = _mm256_load_ps(panel + kk * kNrAvx2 + 8);
    const float* a_k = a + kk * a_cs;
    ((lo[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(a_k + r * a_rs), b0, lo[r]),
      hi[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(a_k + r * a_rs), b1, hi[r])),
     ...);
  }
  if (width == kNrAvx2) {
    if constexpr (kAdd) {
      ((lo[r] = _mm256_add_ps(_mm256_loadu_ps(out + r * out_ld), lo[r]),
        hi[r] = _mm256_add_ps(_mm256_loadu_ps(out + r * out_ld + 8), hi[r])),
       ...);
    }
    ((_mm256_storeu_ps(out + r * out_ld, lo[r]),
      _mm256_storeu_ps(out + r * out_ld + 8, hi[r])),
     ...);
    return;
  }
  alignas(32) float spill[kNrAvx2];
  const auto store = [&](float* row) {
    if constexpr (kAdd) {
      for (size_t c = 0; c < width; ++c) row[c] = row[c] + spill[c];
    } else {
      std::memcpy(row, spill, width * sizeof(float));
    }
  };
  ((_mm256_store_ps(spill, lo[r]), _mm256_store_ps(spill + 8, hi[r]),
    store(out + r * out_ld)),
   ...);
}

template <bool kAdd, size_t kRows>
void TileRows(const float* a, size_t a_rs, size_t a_cs, const float* panel,
              size_t k, float* out, size_t out_ld, size_t width) {
  Tile<kAdd>(std::make_index_sequence<kRows>(), a, a_rs, a_cs, panel, k, out,
             out_ld, width);
}

template <bool kAdd>
void PanelRows(const float* a, size_t a_rs, size_t a_cs, const float* panel,
               size_t k, float* out, size_t out_ld, size_t r0, size_t r1,
               size_t width) {
  size_t i = r0;
  for (; i + kMrAvx2 <= r1; i += kMrAvx2) {
    TileRows<kAdd, kMrAvx2>(a + i * a_rs, a_rs, a_cs, panel, k,
                            out + i * out_ld, out_ld, width);
  }
  const float* a_i = a + i * a_rs;
  float* out_i = out + i * out_ld;
  switch (r1 - i) {
    case 5:
      return TileRows<kAdd, 5>(a_i, a_rs, a_cs, panel, k, out_i, out_ld,
                               width);
    case 4:
      return TileRows<kAdd, 4>(a_i, a_rs, a_cs, panel, k, out_i, out_ld,
                               width);
    case 3:
      return TileRows<kAdd, 3>(a_i, a_rs, a_cs, panel, k, out_i, out_ld,
                               width);
    case 2:
      return TileRows<kAdd, 2>(a_i, a_rs, a_cs, panel, k, out_i, out_ld,
                               width);
    case 1:
      return TileRows<kAdd, 1>(a_i, a_rs, a_cs, panel, k, out_i, out_ld,
                               width);
  }
}

}  // namespace

void GemmPanelAvx2(const float* a, size_t a_rs, size_t a_cs,
                   const float* panel, size_t k, size_t nr, float* out,
                   size_t out_ld, size_t r0, size_t r1, size_t width) {
  (void)nr;  // the AVX2 panel width is kNrAvx2 by construction
  PanelRows<false>(a, a_rs, a_cs, panel, k, out, out_ld, r0, r1, width);
}

void GemmPanelAddAvx2(const float* a, size_t a_rs, size_t a_cs,
                      const float* panel, size_t k, size_t nr, float* out,
                      size_t out_ld, size_t r0, size_t r1, size_t width) {
  (void)nr;  // kNrSum is kNrAvx2
  PanelRows<true>(a, a_rs, a_cs, panel, k, out, out_ld, r0, r1, width);
}

namespace {

/// The one-lane ExpNonPositive/Sigmoid/Tanh of simd_kernels.cc operation
/// for operation, so every lane returns the one-lane bits.
__m256 ExpNonPositive8(__m256 x) {
  x = _mm256_max_ps(_mm256_set1_ps(kExpLo), x);
  const __m256 shifter = _mm256_set1_ps(kExpShifter);
  const __m256 t = _mm256_fmadd_ps(x, _mm256_set1_ps(kLog2e), shifter);
  const __m256 n = _mm256_sub_ps(t, shifter);
  __m256 r = _mm256_fmadd_ps(n, _mm256_set1_ps(-kLn2Hi), x);
  r = _mm256_fmadd_ps(n, _mm256_set1_ps(-kLn2Lo), r);
  const __m256 z = _mm256_mul_ps(r, r);
  __m256 y = _mm256_set1_ps(kExpP[0]);
  for (size_t i = 1; i < 6; ++i) {
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpP[i]));
  }
  y = _mm256_add_ps(_mm256_fmadd_ps(y, z, r), _mm256_set1_ps(1.0f));
  const __m256i pow2n = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_castps_si256(t),
                       _mm256_set1_epi32(static_cast<int32_t>(
                           127u - kExpShifterBits))),
      23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2n));
}

__m256 Sigmoid8(__m256 x) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = ExpNonPositive8(_mm256_or_ps(x, sign));
  const __m256 nonneg = _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_GE_OQ);
  return _mm256_div_ps(_mm256_blendv_ps(e, one, nonneg),
                       _mm256_add_ps(one, e));
}

__m256 Tanh8(__m256 x) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 a = _mm256_andnot_ps(sign, x);
  const __m256 z = _mm256_mul_ps(a, a);
  __m256 p = _mm256_set1_ps(kTanhP[0]);
  for (size_t i = 1; i < 5; ++i) {
    p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(kTanhP[i]));
  }
  const __m256 small = _mm256_fmadd_ps(_mm256_mul_ps(p, z), a, a);
  const __m256 e = ExpNonPositive8(_mm256_mul_ps(_mm256_set1_ps(-2.0f), a));
  const __m256 large = _mm256_sub_ps(
      one, _mm256_div_ps(_mm256_add_ps(e, e), _mm256_add_ps(one, e)));
  const __m256 is_small =
      _mm256_cmp_ps(a, _mm256_set1_ps(kTanhSmall), _CMP_LT_OQ);
  const __m256 magnitude = _mm256_blendv_ps(large, small, is_small);
  return _mm256_or_ps(_mm256_andnot_ps(sign, magnitude),
                      _mm256_and_ps(sign, x));
}

/// (gx + gh) + bias for the eight units at `j`.
__m256 PreActivation8(const float* gx, const float* gh, const float* bias,
                      size_t j) {
  return _mm256_add_ps(
      _mm256_add_ps(_mm256_loadu_ps(gx + j), _mm256_loadu_ps(gh + j)),
      _mm256_loadu_ps(bias + j));
}

}  // namespace

void LstmCellAvx2(const LstmCellArgs& args) {
  const size_t hidden = args.hidden;
  for (size_t row = 0; row < args.rows; ++row) {
    const float* gx = args.gx + row * 4 * hidden;
    const float* gh = args.gh + row * 4 * hidden;
    const float* c_prev = args.c_prev + row * hidden;
    float* act = args.act == nullptr ? nullptr : args.act + row * 4 * hidden;
    float* c_out = args.c + row * hidden;
    float* tanh_c_out =
        args.tanh_c == nullptr ? nullptr : args.tanh_c + row * hidden;
    float* h_out = args.h + row * hidden;
    size_t j = 0;
    for (; j + 8 <= hidden; j += 8) {
      const size_t jf = hidden + j, jg = 2 * hidden + j, jo = 3 * hidden + j;
      const __m256 i = Sigmoid8(PreActivation8(gx, gh, args.bias, j));
      const __m256 f = Sigmoid8(PreActivation8(gx, gh, args.bias, jf));
      const __m256 g = Tanh8(PreActivation8(gx, gh, args.bias, jg));
      const __m256 o = Sigmoid8(PreActivation8(gx, gh, args.bias, jo));
      const __m256 c =
          _mm256_fmadd_ps(f, _mm256_loadu_ps(c_prev + j), _mm256_mul_ps(i, g));
      const __m256 tanh_c = Tanh8(c);
      if (act != nullptr) {
        _mm256_storeu_ps(act + j, i);
        _mm256_storeu_ps(act + jf, f);
        _mm256_storeu_ps(act + jg, g);
        _mm256_storeu_ps(act + jo, o);
      }
      _mm256_storeu_ps(c_out + j, c);
      if (tanh_c_out != nullptr) _mm256_storeu_ps(tanh_c_out + j, tanh_c);
      _mm256_storeu_ps(h_out + j, _mm256_mul_ps(o, tanh_c));
    }
    if (j < hidden) LstmCellTail(args, row, j);
  }
}

void HalfToFloatF16c(const uint16_t* src, float* dst, size_t count) {
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
  }
  if (i < count) {
    alignas(16) uint16_t hin[8] = {};
    alignas(32) float fout[8];
    std::memcpy(hin, src + i, (count - i) * sizeof(uint16_t));
    _mm256_store_ps(
        fout, _mm256_cvtph_ps(_mm_load_si128(reinterpret_cast<__m128i*>(hin))));
    std::memcpy(dst + i, fout, (count - i) * sizeof(float));
  }
}

void FloatToHalfF16c(const float* src, uint16_t* dst, size_t count) {
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m128i h = _mm256_cvtps_ph(_mm256_loadu_ps(src + i),
                                      _MM_FROUND_TO_NEAREST_INT);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), h);
  }
  if (i < count) {
    alignas(32) float fin[8] = {};
    alignas(16) uint16_t hout[8];
    std::memcpy(fin, src + i, (count - i) * sizeof(float));
    _mm_store_si128(
        reinterpret_cast<__m128i*>(hout),
        _mm256_cvtps_ph(_mm256_load_ps(fin), _MM_FROUND_TO_NEAREST_INT));
    std::memcpy(dst + i, hout, (count - i) * sizeof(uint16_t));
  }
}

}  // namespace apots::tensor::simd

#else  // toolchain cannot target AVX2+FMA+F16C: forward to the scalar path.

namespace apots::tensor::simd {

void GemmPanelAvx2(const float* a, size_t a_rs, size_t a_cs,
                   const float* panel, size_t k, size_t nr, float* out,
                   size_t out_ld, size_t r0, size_t r1, size_t width) {
  GemmPanelScalar(a, a_rs, a_cs, panel, k, nr, out, out_ld, r0, r1, width);
}

void GemmPanelAddAvx2(const float* a, size_t a_rs, size_t a_cs,
                      const float* panel, size_t k, size_t nr, float* out,
                      size_t out_ld, size_t r0, size_t r1, size_t width) {
  GemmPanelAddScalar(a, a_rs, a_cs, panel, k, nr, out, out_ld, r0, r1, width);
}

void LstmCellAvx2(const LstmCellArgs& args) { LstmCellScalar(args); }

void HalfToFloatF16c(const uint16_t* src, float* dst, size_t count) {
  HalfToFloatScalar(src, dst, count);
}

void FloatToHalfF16c(const float* src, uint16_t* dst, size_t count) {
  FloatToHalfScalar(src, dst, count);
}

}  // namespace apots::tensor::simd

#endif
