#ifndef APOTS_TENSOR_SIMD_KERNELS_H_
#define APOTS_TENSOR_SIMD_KERNELS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/thread_pool.h"

namespace apots::tensor::simd {

/// Internal microkernel interface behind the matmul family's products of
/// 16 rows or more (tensor_ops.h), the quantized inference paths and the
/// LSTM cell (tensor::LstmCell). A product packs the right-hand operand
/// into zero-padded column panels (PackPanels), then sweeps row ranges of
/// the output through an ISA-dispatched register-tiled kernel (RunPanels);
/// see cpu_features.h for the dispatch ladder and DESIGN.md §15 for the
/// numerics contract.
///
/// Panel layout (fp32): panel `p` covers output columns [p*nr, p*nr+width)
/// and stores k rows of nr floats, `panel[kk*nr + c]` = B(kk, p*nr + c),
/// columns beyond `width` zero-padded. nr is an ISA choice: 16 floats (two
/// ymm) for AVX2 and the scalar fallback, 32 (two zmm) for AVX-512. Pack
/// buffers are 64-byte aligned so full panel rows take aligned loads.
/// The vector rungs' register tiles are kMr rows by one panel: 6x16 (12
/// ymm accumulators) on AVX2, 8x32 (16 zmm) on AVX-512.
inline constexpr size_t kNrAvx2 = 16;
inline constexpr size_t kNrAvx512 = 32;
inline constexpr size_t kNrMax = 32;
inline constexpr size_t kMrAvx2 = 6;
inline constexpr size_t kMrAvx512 = 8;

/// int8 panels use a fixed nr of 16 columns with the k dimension grouped in
/// fours: element (g, c, t) of a panel — column c, kk = 4*g + t — lives at
/// `panel[(g*kNrInt8 + c)*4 + t]`, matching the VPDPBUSD operand layout.
inline constexpr size_t kNrInt8 = 16;

/// fp32 GEMM over one packed panel. The left operand is strided:
/// A(i, kk) = a[i*a_rs + kk*a_cs], which expresses both plain (rs=k, cs=1)
/// and transposed (rs=1, cs=m) operands without materializing anything.
/// Writes out rows [r0, r1) x panel columns [0, width); `out` points at the
/// panel's first output column of row 0 and has leading dimension out_ld.
/// Every output element accumulates its k products in ascending-k order in
/// a single FMA chain, so results are identical across row partitions (and
/// therefore across thread counts) for a fixed ISA.
using GemmPanelFn = void (*)(const float* a, size_t a_rs, size_t a_cs,
                             const float* panel, size_t k, size_t nr,
                             float* out, size_t out_ld, size_t r0, size_t r1,
                             size_t width);

void GemmPanelScalar(const float* a, size_t a_rs, size_t a_cs,
                     const float* panel, size_t k, size_t nr, float* out,
                     size_t out_ld, size_t r0, size_t r1, size_t width);
/// Defined in simd_kernels_avx2.cc / simd_kernels_avx512.cc; those TUs are
/// compiled with their ISA flags and forward to the scalar kernel when the
/// toolchain cannot target the ISA at all (non-x86). Call only when
/// DetectedIsa() admits the ISA.
void GemmPanelAvx2(const float* a, size_t a_rs, size_t a_cs,
                   const float* panel, size_t k, size_t nr, float* out,
                   size_t out_ld, size_t r0, size_t r1, size_t width);
void GemmPanelAvx512(const float* a, size_t a_rs, size_t a_cs,
                     const float* panel, size_t k, size_t nr, float* out,
                     size_t out_ld, size_t r0, size_t r1, size_t width);

/// The fp32 kernel the current dispatch ladder selects, the panel width it
/// reads and the rows of its register tile.
struct GemmKernel {
  GemmPanelFn fn;
  size_t nr;
  size_t mr;
};
GemmKernel PickGemmKernel();

/// The accumulating twins of the panel kernels, which every weight and
/// bias gradient runs (tensor::AddProduct): each output element's
/// k-ascending FMA chain from zero is added into `out` at store,
/// out + chain, instead of overwriting it. They read panels of
/// kNrSum = 16 columns at every rung, so a packed operand does not depend
/// on the rung. The AVX-512 rung takes two adjacent panels (`width` up to
/// 32; the second panel starts k*kNrSum floats after the first) in 8x32
/// tiles, or one in kMrSumAvx512 x 16 tiles; the AVX2 tile is the 6x16
/// serving tile; the scalar rung is GemmPanelScalar's loop, which fuses
/// only by contraction (FMA builds).
inline constexpr size_t kNrSum = 16;
inline constexpr size_t kMrSumAvx512 = 16;
void GemmPanelAddScalar(const float* a, size_t a_rs, size_t a_cs,
                        const float* panel, size_t k, size_t nr, float* out,
                        size_t out_ld, size_t r0, size_t r1, size_t width);
void GemmPanelAddAvx2(const float* a, size_t a_rs, size_t a_cs,
                      const float* panel, size_t k, size_t nr, float* out,
                      size_t out_ld, size_t r0, size_t r1, size_t width);
void GemmPanelAddAvx512(const float* a, size_t a_rs, size_t a_cs,
                        const float* panel, size_t k, size_t nr, float* out,
                        size_t out_ld, size_t r0, size_t r1, size_t width);
/// The accumulating kernel the ladder selects; nr is the columns one call
/// covers (32 on AVX-512, else kNrSum).
GemmKernel PickGemmAddKernel();

/// The grain rule of every GEMM region: the fp32 tiles and panels and the
/// int8 panels. A region of `m` rows of `fma_per_row` multiply-adds each
/// runs on the calling thread when it has fewer than kGemmForkMinFma
/// multiply-adds, because waking parked workers costs more than such a
/// product (DESIGN.md §9.1). Larger regions go to the global pool in
/// chunks of whole `tile_rows`-row tiles of about kGemmGrainFma
/// multiply-adds. Rows are independent, so the partition never changes a
/// bit.
inline constexpr size_t kGemmGrainFma = size_t{1} << 15;
inline constexpr size_t kGemmForkMinFma = size_t{1} << 25;

/// Row grain for the other row-parallel loops: about kGemmGrainFma units
/// of work per chunk.
size_t RowGrain(size_t work_per_row);

/// Calls fn(r0, r1) over row ranges covering [0, m) under the rule above.
/// A region below the minimum is one direct call, with no pool region and
/// no std::function.
template <typename Fn>
void ParallelGemmRows(size_t m, size_t fma_per_row, size_t tile_rows,
                      const Fn& fn) {
  if (m * fma_per_row < kGemmForkMinFma) {
    fn(size_t{0}, m);
    return;
  }
  apots::GlobalPool().ParallelFor(
      0, (m + tile_rows - 1) / tile_rows, RowGrain(fma_per_row * tile_rows),
      [&](size_t t0, size_t t1, size_t) {
        fn(t0 * tile_rows, std::min(m, t1 * tile_rows));
      });
}

/// int8 GEMM over one packed panel. `qa` holds unsigned asymmetric
/// (min/max affine) row-major quantized activations with leading dimension
/// qa_ld >= kp (kp = k rounded up to a multiple of 4, zero weight codes in
/// the pad); row i dequantizes as a ~= row_min[i] + row_scale[i] * code.
/// col_scale / col_zsum point at this panel's per-column weight scale and
/// column sum of the signed weight codes (the affine activation offset is
/// compensated exactly via the row_min * zsum term). Integer accumulation
/// is exact, so the scalar and VNNI kernels produce bit-identical floats.
using Int8PanelFn = void (*)(const uint8_t* qa, size_t qa_ld,
                             const float* row_scale, const float* row_min,
                             const int8_t* panel, size_t kp,
                             const float* col_scale, const int32_t* col_zsum,
                             float* out, size_t out_ld, size_t r0, size_t r1,
                             size_t width);

void Int8PanelScalar(const uint8_t* qa, size_t qa_ld, const float* row_scale,
                     const float* row_min, const int8_t* panel, size_t kp,
                     const float* col_scale, const int32_t* col_zsum,
                     float* out, size_t out_ld, size_t r0, size_t r1,
                     size_t width);
/// AVX-512 VNNI (VPDPBUSD). No AVX2 variant on purpose: VPMADDUBSW
/// saturates its 16-bit intermediate sums (2*255*128 > 32767), which would
/// silently corrupt accumulators — non-VNNI hosts take the scalar kernel.
/// Its tile is kMrInt8 rows of one panel: that many independent VPDPBUSD
/// chains per panel load, enough to cover the instruction's latency.
void Int8PanelVnni(const uint8_t* qa, size_t qa_ld, const float* row_scale,
                   const float* row_min, const int8_t* panel, size_t kp,
                   const float* col_scale, const int32_t* col_zsum, float* out,
                   size_t out_ld, size_t r0, size_t r1, size_t width);
inline constexpr size_t kMrInt8 = 16;

Int8PanelFn PickInt8Kernel();

/// Quantizes the rows of a row-major [m, k] activation matrix for the int8
/// kernels. Row i's lo and hi are std::min and std::max folded over the row
/// from its first element (so a NaN first element is both, and later NaNs
/// are skipped); row_scale[i] = (hi - lo)/255 and row_min[i] = lo; code kk
/// is nearbyint(min(255, max(0, (a - lo) * (255/(hi - lo))))), with a zero
/// scale and inverse scale when hi - lo is not positive. Row i's codes go
/// to qa + i*kp, zero-padded from k to kp. Every rung writes the same
/// bytes and floats.
using QuantizeRowsFn = void (*)(const float* a, size_t m, size_t k, size_t kp,
                                float* row_scale, float* row_min, uint8_t* qa);
void QuantizeRowsScalar(const float* a, size_t m, size_t k, size_t kp,
                        float* row_scale, float* row_min, uint8_t* qa);
/// Sixteen elements per step; the AVX-512 rung.
void QuantizeRowsAvx512(const float* a, size_t m, size_t k, size_t kp,
                        float* row_scale, float* row_min, uint8_t* qa);
QuantizeRowsFn PickQuantizeRowsKernel();

/// Shared dequantization of one int8 accumulator — a single expression so
/// every kernel produces identical floats from identical accumulators:
/// sum_k a*w = sum_k (min + s_a*u) * (s_b*q) = s_a*s_b*acc + min*s_b*zsum.
/// The multiply-add is an explicit std::fma, not a contraction candidate:
/// this header is inlined into TUs built with different target flags (the
/// generic library may lack FMA while the per-ISA kernel TUs have it), and
/// letting the compiler contract in some TUs but not others breaks the
/// scalar==VNNI bitwise guarantee. std::fma is correctly rounded whether it
/// lowers to vfmadd or libm, so every build produces the same bits.
inline float DequantInt8Acc(int32_t acc, int32_t col_zsum, float row_scale,
                            float row_min, float col_scale) {
  return std::fma(row_scale * col_scale, static_cast<float>(acc),
                  row_min * col_scale * static_cast<float>(col_zsum));
}

/// IEEE binary16 conversions. Half -> float is exact in any implementation;
/// float -> half rounds to nearest-even in both the software and the F16C
/// path, so packed bits never depend on the host ISA.
void HalfToFloatScalar(const uint16_t* src, float* dst, size_t count);
void FloatToHalfScalar(const float* src, uint16_t* dst, size_t count);
void HalfToFloatF16c(const uint16_t* src, float* dst, size_t count);
void FloatToHalfF16c(const float* src, uint16_t* dst, size_t count);

/// Converts with the F16C units when the host has them, else in software.
void HalfToFloat(const uint16_t* src, float* dst, size_t count);
void FloatToHalf(const float* src, uint16_t* dst, size_t count);

/// Floats that the panels of a [k, n] operand take at panel width nr.
size_t PanelFloats(size_t k, size_t n, size_t nr);

/// Packs the strided B(kk, j) = b[kk*b_rs + j*b_cs] ([k, n]) into
/// PanelFloats(k, n, nr) floats at `packed`, panel p at p*k*nr.
void PackPanels(const float* b, size_t b_rs, size_t b_cs, size_t k, size_t n,
                size_t nr, float* packed);

/// out[m,n] = A x B over panels that PackPanels packed at width nr, with
/// A(i,kk) = a[i*a_rs + kk*a_cs]. Checks that nr is the width of the
/// kernel the ladder selects now: panels packed for another rung hold
/// other columns per panel. Sweeps disjoint output row ranges through
/// ParallelGemmRows.
void RunPanels(const float* a, size_t a_rs, size_t a_cs, const float* packed,
               size_t nr, size_t m, size_t k, size_t n, float* out);

/// out[m,n] += A x B over panels that PackPanels packed at width kNrSum,
/// through PickGemmAddKernel, with RunPanels's row partition.
void AddPanels(const float* a, size_t a_rs, size_t a_cs, const float* packed,
               size_t m, size_t k, size_t n, float* out);

/// out[m,n] = A x B with both operands strided: PackPanels into
/// thread-local scratch on the calling thread, then RunPanels. Matmul
/// (b_rs=n, b_cs=1), MatmulTransposeA (a_rs=1, a_cs=m) and
/// MatmulTransposeB (b_rs=1, b_cs=k) call it for products of 16 rows or
/// more in FMA builds.
void GemmStrided(const float* a, size_t a_rs, size_t a_cs, const float* b,
                 size_t b_rs, size_t b_cs, float* out, size_t m, size_t k,
                 size_t n);

/// out[m,n] = A x B where B is a row-major [k,n] matrix of binary16 bits.
/// Panels are dequantized into the fp32 pack buffer at pack time and the
/// fp32 microkernels run unchanged.
void GemmHalfB(const float* a, size_t a_rs, size_t a_cs, const uint16_t* b,
               float* out, size_t m, size_t k, size_t n);

/// One LSTM cell step over `rows` rows of `hidden` units (tensor::LstmCell
/// checks shapes and dispatches). gx and gh are the [rows, 4*hidden] x- and
/// h-products in gate order i|f|g|o, bias is [4*hidden] and c_prev is
/// [rows, hidden]. Per unit: the pre-activation is (gx + gh) + bias; i, f
/// and o are sigmoids and g a tanh; c = fma(f, c_prev, i*g) and
/// h = o*tanh(c). Writes c and h ([rows, hidden]), plus the activated
/// gates `act` ([rows, 4*hidden]) and `tanh_c` ([rows, hidden]) when they
/// are non-null. c may alias c_prev and act may alias gx: every unit reads
/// its inputs before it writes.
struct LstmCellArgs {
  const float* gx;
  const float* gh;
  const float* bias;
  const float* c_prev;
  size_t rows;
  size_t hidden;
  float* act;
  float* c;
  float* tanh_c;
  float* h;
};
using LstmCellFn = void (*)(const LstmCellArgs& args);

/// The one-lane form: every rung returns its bits for every input, NaN
/// included. Multiply-adds are explicit std::fma (or _mm256_fmadd_ps) and
/// division is true division, so no rung depends on contraction or on an
/// approximate reciprocal.
void LstmCellScalar(const LstmCellArgs& args);
/// Units [j0, hidden) of row `row` in the one-lane form: the vector rungs'
/// column tails.
void LstmCellTail(const LstmCellArgs& args, size_t row, size_t j0);
/// Eight units per step; AVX-512 hosts run it too.
void LstmCellAvx2(const LstmCellArgs& args);
LstmCellFn PickLstmCellKernel();

/// One LSTM cell step backward over `rows` rows of `hidden` units
/// (tensor::LstmCellBackward checks shapes and dispatches). act ([rows,
/// 4*hidden], i|f|g|o), tanh_c and c_prev ([rows, hidden]) are the step's
/// record. The step's dh is dh_next + dh_out, or dh_next where dh_out is
/// null; dh_out's rows are dh_out_ld floats apart. dc holds the gradient
/// from step t + 1 and is overwritten, unit by unit, with the one for step
/// t - 1 (dc * f). Writes the pre-activation gate gradients `dgates`
/// ([rows, 4*hidden]). Per unit, unfused and in this order:
///   dc' = ((dh * o) * (1 - tanh_c * tanh_c)) + dc
///   di = (dc' * g) * i * (1 - i)      df = (dc' * c_prev) * f * (1 - f)
///   dg = (dc' * i) * (1 - g * g)      do = (dh * tanh_c) * o * (1 - o)
/// Its TU is built with -ffp-contract=off, so no rung fuses a multiply
/// into an add; every rung returns the scalar loop's bits.
struct LstmCellGradArgs {
  const float* act;
  const float* tanh_c;
  const float* c_prev;
  const float* dh_next;
  const float* dh_out;
  size_t dh_out_ld;
  size_t rows;
  size_t hidden;
  float* dc;
  float* dgates;
};
using LstmCellGradFn = void (*)(const LstmCellGradArgs& args);
void LstmCellGradScalar(const LstmCellGradArgs& args);
/// Eight units per step; AVX-512 hosts run it too.
void LstmCellGradAvx2(const LstmCellGradArgs& args);
LstmCellGradFn PickLstmCellGradKernel();

/// The cell's one-lane sigmoid, which the BCE loss also uses
/// (nn::SigmoidScalar).
float SigmoidLane(float x);

/// Constants the rungs share. e^x runs on x in [kExpLo, 0] only (sigmoid
/// and tanh need e^-|x|): n = round(x*log2e) comes from adding the
/// 1.5*2^23 shifter, which rounds exactly and leaves n in the low mantissa
/// bits, so no float-to-int conversion is needed (one of NaN is undefined
/// in C++); r = x - n*ln2 in two Cody-Waite steps; e^r from Cephes expf's
/// polynomial; 2^n from n's bits. The clamp at kExpLo keeps n >= -127, and
/// n = -127 (x below about -87.7) gives 2^n = 0, so e^x is 0 where it is
/// below FLT_MIN anyway. The clamp is max(kExpLo, x) in MAXPS operand
/// order, which passes a NaN x through.
inline constexpr float kExpLo = -88.0f;
inline constexpr float kLog2e = 1.44269504088896341f;
inline constexpr float kExpShifter = 12582912.0f;  // 1.5 * 2^23
inline constexpr uint32_t kExpShifterBits = 0x4B400000u;
inline constexpr float kLn2Hi = 0.693359375f;
inline constexpr float kLn2Lo = -2.12194440e-4f;
inline constexpr float kExpP[6] = {1.9875691500e-4f, 1.3981999507e-3f,
                                   8.3334519073e-3f, 4.1665795894e-2f,
                                   1.6666665459e-1f, 5.0000001201e-1f};
/// tanh(|x|) is Cephes tanhf's odd polynomial below kTanhSmall and
/// 1 - 2e/(1 + e) with e = e^-2|x| from there; the sign is copied last.
/// (1 - e)/(1 + e) rounds worse: 1.8e-7 from std::tanh against 1.2e-7.
inline constexpr float kTanhSmall = 0.625f;
inline constexpr float kTanhP[5] = {-5.70498872745e-3f, 2.06390887954e-2f,
                                    -5.37397155531e-2f, 1.33314422036e-1f,
                                    -3.33332819422e-1f};

/// Grow-only, 64-byte-aligned thread-local scratch for Int8MatmulInto's
/// activation codes (quant.cc).
uint8_t* PackBufferBytes(size_t bytes);

}  // namespace apots::tensor::simd

#endif  // APOTS_TENSOR_SIMD_KERNELS_H_
