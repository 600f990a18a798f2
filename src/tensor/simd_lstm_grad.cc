// The LSTM cell's gate-gradient pass (simd::LstmCellGradArgs): a scalar
// rung and an AVX2 rung. The arithmetic is unfused by contract, and GCC
// contracts a multiply feeding an add into an FMA wherever the target has
// one (its default -ffp-contract=fast, for _mm256_add_ps(_mm256_mul_ps(...))
// and for a scalar product added in a later statement alike). So this TU,
// and only this one, is built with -ffp-contract=off; the AVX2 rung takes
// its ISA from a function attribute rather than TU flags.

#include "tensor/simd_kernels.h"

#include "tensor/cpu_features.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define APOTS_LSTM_GRAD_AVX2 1
#endif

namespace apots::tensor::simd {

namespace {

/// Units [j0, hidden) of row `row`, one lane at a time.
void GradTail(const LstmCellGradArgs& args, size_t row, size_t j0) {
  const size_t H = args.hidden;
  const float* g_row = args.act + row * 4 * H;
  const float* tc = args.tanh_c + row * H;
  const float* cp = args.c_prev + row * H;
  const float* dhn = args.dh_next + row * H;
  const float* dho =
      args.dh_out == nullptr ? nullptr : args.dh_out + row * args.dh_out_ld;
  float* dc_row = args.dc + row * H;
  float* dg = args.dgates + row * 4 * H;
  for (size_t j = j0; j < H; ++j) {
    const float i_gate = g_row[j];
    const float f_gate = g_row[H + j];
    const float g_cand = g_row[2 * H + j];
    const float o_gate = g_row[3 * H + j];
    const float dh = dho == nullptr ? dhn[j] : dhn[j] + dho[j];
    const float dc = dh * o_gate * (1.0f - tc[j] * tc[j]) + dc_row[j];
    const float do_gate = dh * tc[j];
    const float di = dc * g_cand;
    const float df = dc * cp[j];
    const float dg_cand = dc * i_gate;
    dc_row[j] = dc * f_gate;
    dg[j] = di * i_gate * (1.0f - i_gate);
    dg[H + j] = df * f_gate * (1.0f - f_gate);
    dg[2 * H + j] = dg_cand * (1.0f - g_cand * g_cand);
    dg[3 * H + j] = do_gate * o_gate * (1.0f - o_gate);
  }
}

}  // namespace

void LstmCellGradScalar(const LstmCellGradArgs& args) {
  for (size_t row = 0; row < args.rows; ++row) GradTail(args, row, 0);
}

#ifdef APOTS_LSTM_GRAD_AVX2

/// GradTail eight units at a time, operation for operation.
__attribute__((target("avx2"))) void LstmCellGradAvx2(
    const LstmCellGradArgs& args) {
  const size_t H = args.hidden;
  const __m256 one = _mm256_set1_ps(1.0f);
  for (size_t row = 0; row < args.rows; ++row) {
    const float* g_row = args.act + row * 4 * H;
    const float* tc = args.tanh_c + row * H;
    const float* cp = args.c_prev + row * H;
    const float* dhn = args.dh_next + row * H;
    const float* dho =
        args.dh_out == nullptr ? nullptr : args.dh_out + row * args.dh_out_ld;
    float* dc_row = args.dc + row * H;
    float* dg = args.dgates + row * 4 * H;
    size_t j = 0;
    for (; j + 8 <= H; j += 8) {
      const __m256 i_gate = _mm256_loadu_ps(g_row + j);
      const __m256 f_gate = _mm256_loadu_ps(g_row + H + j);
      const __m256 g_cand = _mm256_loadu_ps(g_row + 2 * H + j);
      const __m256 o_gate = _mm256_loadu_ps(g_row + 3 * H + j);
      const __m256 t = _mm256_loadu_ps(tc + j);
      __m256 dh = _mm256_loadu_ps(dhn + j);
      if (dho != nullptr) dh = _mm256_add_ps(dh, _mm256_loadu_ps(dho + j));
      const __m256 dc = _mm256_add_ps(
          _mm256_mul_ps(_mm256_mul_ps(dh, o_gate),
                        _mm256_sub_ps(one, _mm256_mul_ps(t, t))),
          _mm256_loadu_ps(dc_row + j));
      const __m256 do_gate = _mm256_mul_ps(dh, t);
      const __m256 di = _mm256_mul_ps(dc, g_cand);
      const __m256 df = _mm256_mul_ps(dc, _mm256_loadu_ps(cp + j));
      const __m256 dg_cand = _mm256_mul_ps(dc, i_gate);
      _mm256_storeu_ps(dc_row + j, _mm256_mul_ps(dc, f_gate));
      _mm256_storeu_ps(dg + j,
                       _mm256_mul_ps(_mm256_mul_ps(di, i_gate),
                                     _mm256_sub_ps(one, i_gate)));
      _mm256_storeu_ps(dg + H + j,
                       _mm256_mul_ps(_mm256_mul_ps(df, f_gate),
                                     _mm256_sub_ps(one, f_gate)));
      _mm256_storeu_ps(
          dg + 2 * H + j,
          _mm256_mul_ps(dg_cand,
                        _mm256_sub_ps(one, _mm256_mul_ps(g_cand, g_cand))));
      _mm256_storeu_ps(dg + 3 * H + j,
                       _mm256_mul_ps(_mm256_mul_ps(do_gate, o_gate),
                                     _mm256_sub_ps(one, o_gate)));
    }
    if (j < H) GradTail(args, row, j);
  }
}

#else  // no AVX2 rung on this toolchain: forward to the scalar loop.

void LstmCellGradAvx2(const LstmCellGradArgs& args) {
  LstmCellGradScalar(args);
}

#endif

LstmCellGradFn PickLstmCellGradKernel() {
  return DetectedIsa() == SimdIsa::kScalar ? LstmCellGradScalar
                                           : LstmCellGradAvx2;
}

}  // namespace apots::tensor::simd
