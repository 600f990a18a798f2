#include "tensor/simd_kernels.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "tensor/cpu_features.h"
#include "tensor/tensor.h"

namespace apots::tensor::simd {

namespace {

/// Packs fp32 panel `p` (columns [j0, j0+width)) of a strided B into
/// `panel` ([k][nr], zero-padded to nr columns).
void PackPanelFp32(const float* b, size_t b_rs, size_t b_cs, size_t k,
                   size_t j0, size_t width, size_t nr, float* panel) {
  for (size_t kk = 0; kk < k; ++kk) {
    const float* src = b + kk * b_rs + j0 * b_cs;
    float* dst = panel + kk * nr;
    if (b_cs == 1) {
      std::memcpy(dst, src, width * sizeof(float));
    } else {
      for (size_t c = 0; c < width; ++c) dst[c] = src[c * b_cs];
    }
    for (size_t c = width; c < nr; ++c) dst[c] = 0.0f;
  }
}

/// Packs panel `p` of a row-major binary16 B, dequantizing at pack time.
void PackPanelHalf(const uint16_t* b, size_t k, size_t n, size_t j0,
                   size_t width, size_t nr, float* panel) {
  for (size_t kk = 0; kk < k; ++kk) {
    float* dst = panel + kk * nr;
    HalfToFloat(b + kk * n + j0, dst, width);
    for (size_t c = width; c < nr; ++c) dst[c] = 0.0f;
  }
}

using AlignedByteVector = std::vector<uint8_t, AlignedAllocator<uint8_t>>;

/// Grow-only, 64-byte-aligned thread-local scratch for the panels of the
/// products that pack per call: steady-state shapes stop touching the heap
/// after warm-up, and a non-empty floor keeps `data() + 0` valid for k==0
/// calls.
float* PackBufferFp32(size_t floats) {
  thread_local AlignedFloatVector buffer;
  if (buffer.size() < std::max<size_t>(floats, 16)) {
    buffer.resize(std::max<size_t>(floats, 16));
  }
  return buffer.data();
}

}  // namespace

size_t RowGrain(size_t work_per_row) {
  return std::max<size_t>(1, kGemmGrainFma / std::max<size_t>(1, work_per_row));
}

uint8_t* PackBufferBytes(size_t bytes) {
  thread_local AlignedByteVector buffer;
  if (buffer.size() < std::max<size_t>(bytes, 64)) {
    buffer.resize(std::max<size_t>(bytes, 64));
  }
  return buffer.data();
}

size_t PanelFloats(size_t k, size_t n, size_t nr) {
  return (n + nr - 1) / nr * k * nr;
}

void PackPanels(const float* b, size_t b_rs, size_t b_cs, size_t k, size_t n,
                size_t nr, float* packed) {
  for (size_t j0 = 0; j0 < n; j0 += nr) {
    PackPanelFp32(b, b_rs, b_cs, k, j0, std::min(nr, n - j0), nr,
                  packed + j0 * k);
  }
}

void RunPanels(const float* a, size_t a_rs, size_t a_cs, const float* packed,
               size_t nr, size_t m, size_t k, size_t n, float* out) {
  const GemmKernel kernel = PickGemmKernel();
  APOTS_CHECK_EQ(nr, kernel.nr);
  ParallelGemmRows(m, k * n, kernel.mr, [&](size_t r0, size_t r1) {
    for (size_t j0 = 0; j0 < n; j0 += nr) {
      kernel.fn(a, a_rs, a_cs, packed + j0 * k, k, nr, out + j0, n, r0, r1,
                std::min(nr, n - j0));
    }
  });
}

namespace {

/// The scalar rung's one-row loop; kAdd adds each chain into `out`.
template <bool kAdd>
void PanelScalar(const float* a, size_t a_rs, size_t a_cs, const float* panel,
                 size_t k, size_t nr, float* out, size_t out_ld, size_t r0,
                 size_t r1, size_t width) {
  for (size_t i = r0; i < r1; ++i) {
    float acc[kNrMax] = {};
    const float* a_row = a + i * a_rs;
    for (size_t kk = 0; kk < k; ++kk) {
      const float a_ik = a_row[kk * a_cs];
      const float* b_row = panel + kk * nr;
      for (size_t c = 0; c < nr; ++c) acc[c] += a_ik * b_row[c];
    }
    float* out_row = out + i * out_ld;
    for (size_t c = 0; c < width; ++c) {
      out_row[c] = kAdd ? out_row[c] + acc[c] : acc[c];
    }
  }
}

}  // namespace

void GemmPanelScalar(const float* a, size_t a_rs, size_t a_cs,
                     const float* panel, size_t k, size_t nr, float* out,
                     size_t out_ld, size_t r0, size_t r1, size_t width) {
  PanelScalar<false>(a, a_rs, a_cs, panel, k, nr, out, out_ld, r0, r1, width);
}

void GemmPanelAddScalar(const float* a, size_t a_rs, size_t a_cs,
                        const float* panel, size_t k, size_t nr, float* out,
                        size_t out_ld, size_t r0, size_t r1, size_t width) {
  PanelScalar<true>(a, a_rs, a_cs, panel, k, nr, out, out_ld, r0, r1, width);
}

GemmKernel PickGemmKernel() {
  switch (DetectedIsa()) {
    case SimdIsa::kAvx512:
      return {GemmPanelAvx512, kNrAvx512, kMrAvx512};
    case SimdIsa::kAvx2:
      return {GemmPanelAvx2, kNrAvx2, kMrAvx2};
    case SimdIsa::kScalar:
      break;
  }
  return {GemmPanelScalar, kNrAvx2, 1};
}

GemmKernel PickGemmAddKernel() {
  switch (DetectedIsa()) {
    case SimdIsa::kAvx512:
      return {GemmPanelAddAvx512, 2 * kNrSum, kMrAvx512};
    case SimdIsa::kAvx2:
      return {GemmPanelAddAvx2, kNrSum, kMrAvx2};
    case SimdIsa::kScalar:
      break;
  }
  return {GemmPanelAddScalar, kNrSum, 1};
}

void AddPanels(const float* a, size_t a_rs, size_t a_cs, const float* packed,
               size_t m, size_t k, size_t n, float* out) {
  const GemmKernel kernel = PickGemmAddKernel();
  ParallelGemmRows(m, k * n, kernel.mr, [&](size_t r0, size_t r1) {
    for (size_t j0 = 0; j0 < n; j0 += kernel.nr) {
      kernel.fn(a, a_rs, a_cs, packed + j0 * k, k, kNrSum, out + j0, n, r0,
                r1, std::min(kernel.nr, n - j0));
    }
  });
}

void Int8PanelScalar(const uint8_t* qa, size_t qa_ld, const float* row_scale,
                     const float* row_min, const int8_t* panel, size_t kp,
                     const float* col_scale, const int32_t* col_zsum,
                     float* out, size_t out_ld, size_t r0, size_t r1,
                     size_t width) {
  const size_t groups = kp / 4;
  for (size_t i = r0; i < r1; ++i) {
    int32_t acc[kNrInt8] = {};
    const uint8_t* a_row = qa + i * qa_ld;
    for (size_t g = 0; g < groups; ++g) {
      const int8_t* blk = panel + g * kNrInt8 * 4;
      const uint8_t* a4 = a_row + g * 4;
      for (size_t c = 0; c < kNrInt8; ++c) {
        const int8_t* b4 = blk + c * 4;
        acc[c] += static_cast<int32_t>(a4[0]) * b4[0] +
                  static_cast<int32_t>(a4[1]) * b4[1] +
                  static_cast<int32_t>(a4[2]) * b4[2] +
                  static_cast<int32_t>(a4[3]) * b4[3];
      }
    }
    float* out_row = out + i * out_ld;
    for (size_t c = 0; c < width; ++c) {
      out_row[c] = DequantInt8Acc(acc[c], col_zsum[c], row_scale[i],
                                  row_min[i], col_scale[c]);
    }
  }
}

Int8PanelFn PickInt8Kernel() {
  return HasVnni() ? Int8PanelVnni : Int8PanelScalar;
}

void QuantizeRowsScalar(const float* a, size_t m, size_t k, size_t kp,
                        float* row_scale, float* row_min, uint8_t* qa) {
  for (size_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float lo = 0.0f, hi = 0.0f;  // k == 0 reduces to the empty range
    if (k > 0) {
      lo = hi = a_row[0];
      for (size_t kk = 1; kk < k; ++kk) {
        lo = std::min(lo, a_row[kk]);
        hi = std::max(hi, a_row[kk]);
      }
    }
    const float range = hi - lo;
    const float inv_scale = range > 0.0f ? 255.0f / range : 0.0f;
    row_scale[i] = range > 0.0f ? range / 255.0f : 0.0f;
    row_min[i] = lo;
    uint8_t* q_row = qa + i * kp;
    for (size_t kk = 0; kk < k; ++kk) {
      const float scaled = (a_row[kk] - lo) * inv_scale;
      const float clamped = std::min(255.0f, std::max(0.0f, scaled));
      q_row[kk] = static_cast<uint8_t>(std::nearbyintf(clamped));
    }
    // Pad codes meet zero weight codes in the padded k range, so their
    // value is irrelevant; zero keeps the scratch deterministic.
    for (size_t kk = k; kk < kp; ++kk) q_row[kk] = 0;
  }
}

QuantizeRowsFn PickQuantizeRowsKernel() {
  return DetectedIsa() == SimdIsa::kAvx512 ? QuantizeRowsAvx512
                                           : QuantizeRowsScalar;
}

namespace {

/// e^x for x <= 0, NaN in and NaN out; simd_kernels.h gives the method.
/// These three functions are the AVX2 rung's *8 forms operation for
/// operation, in the same order.
inline float ExpNonPositive(float x) {
  x = kExpLo > x ? kExpLo : x;
  const float t = std::fma(x, kLog2e, kExpShifter);
  const float n = t - kExpShifter;
  float r = std::fma(n, -kLn2Hi, x);
  r = std::fma(n, -kLn2Lo, r);
  const float z = r * r;
  float y = kExpP[0];
  for (size_t i = 1; i < 6; ++i) y = std::fma(y, r, kExpP[i]);
  y = std::fma(y, z, r) + 1.0f;
  const uint32_t pow2n = (std::bit_cast<uint32_t>(t) - kExpShifterBits + 127u)
                         << 23;
  return y * std::bit_cast<float>(pow2n);
}

/// 1/(1 + e) for x >= 0 and e/(1 + e) below, with e = e^-|x|.
inline float Sigmoid(float x) {
  const float e = ExpNonPositive(-std::fabs(x));
  return (x >= 0.0f ? 1.0f : e) / (1.0f + e);
}

inline float Tanh(float x) {
  const float a = std::fabs(x);
  const float z = a * a;
  float p = kTanhP[0];
  for (size_t i = 1; i < 5; ++i) p = std::fma(p, z, kTanhP[i]);
  const float small = std::fma(p * z, a, a);
  const float e = ExpNonPositive(-2.0f * a);
  const float large = 1.0f - (e + e) / (1.0f + e);
  return std::copysign(a < kTanhSmall ? small : large, x);
}

}  // namespace

float SigmoidLane(float x) { return Sigmoid(x); }

void LstmCellTail(const LstmCellArgs& args, size_t row, size_t j0) {
  const size_t hidden = args.hidden;
  const float* gx = args.gx + row * 4 * hidden;
  const float* gh = args.gh + row * 4 * hidden;
  const float* b = args.bias;
  const size_t off = row * hidden;
  float* act = args.act == nullptr ? nullptr : args.act + row * 4 * hidden;
  for (size_t j = j0; j < hidden; ++j) {
    const size_t jf = hidden + j, jg = 2 * hidden + j, jo = 3 * hidden + j;
    const float i = Sigmoid((gx[j] + gh[j]) + b[j]);
    const float f = Sigmoid((gx[jf] + gh[jf]) + b[jf]);
    const float g = Tanh((gx[jg] + gh[jg]) + b[jg]);
    const float o = Sigmoid((gx[jo] + gh[jo]) + b[jo]);
    const float c = std::fma(f, args.c_prev[off + j], i * g);
    const float tanh_c = Tanh(c);
    if (act != nullptr) {
      act[j] = i;
      act[jf] = f;
      act[jg] = g;
      act[jo] = o;
    }
    args.c[off + j] = c;
    if (args.tanh_c != nullptr) args.tanh_c[off + j] = tanh_c;
    args.h[off + j] = o * tanh_c;
  }
}

void LstmCellScalar(const LstmCellArgs& args) {
  for (size_t row = 0; row < args.rows; ++row) LstmCellTail(args, row, 0);
}

LstmCellFn PickLstmCellKernel() {
  return DetectedIsa() == SimdIsa::kScalar ? LstmCellScalar : LstmCellAvx2;
}

namespace {

/// Software IEEE binary16 -> binary32: exact for every half bit pattern
/// (subnormals, infinities, NaN payload top bits preserved).
inline float HalfBitsToFloat(uint16_t h) {
  const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  const uint32_t exp = (h >> 10) & 0x1Fu;
  uint32_t mant = h & 0x3FFu;
  uint32_t bits;
  if (exp == 0) {
    if (mant == 0) {
      bits = sign;  // +-0
    } else {
      // Subnormal half: normalize into the float exponent range.
      int shift = 0;
      while ((mant & 0x400u) == 0) {
        mant <<= 1;
        ++shift;
      }
      mant &= 0x3FFu;
      bits = sign | ((127 - 15 - shift + 1) << 23) | (mant << 13);
    }
  } else if (exp == 31) {
    bits = sign | 0x7F800000u | (mant << 13);  // inf / NaN
  } else {
    bits = sign | ((exp - 15 + 127) << 23) | (mant << 13);
  }
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

/// Software binary32 -> binary16, round to nearest, ties to even — the
/// same rounding VCVTPS2PH uses, so packed weights are host-independent.
inline uint16_t FloatToHalfBits(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  const uint16_t sign = static_cast<uint16_t>((bits >> 16) & 0x8000u);
  const uint32_t abs = bits & 0x7FFFFFFFu;
  if (abs >= 0x7F800000u) {  // inf / NaN (preserve the quiet bit)
    const uint16_t mant = abs > 0x7F800000u ? 0x200u : 0u;
    return static_cast<uint16_t>(sign | 0x7C00u | mant);
  }
  if (abs >= 0x47800000u) {  // >= 2^16 overflows to infinity
    return static_cast<uint16_t>(sign | 0x7C00u);
  }
  if (abs < 0x33000000u) {  // < 2^-25 underflows to zero
    return sign;
  }
  const uint32_t exp = abs >> 23;
  if (abs >= 0x38800000u) {
    // Normal half. Rebias and shift out 13 mantissa bits with RNE; a
    // mantissa carry ripples into the exponent field (and, at the very
    // top, rolls cleanly into the infinity encoding).
    uint32_t h = ((exp - 112u) << 10) | ((abs & 0x7FFFFFu) >> 13);
    const uint32_t rem = abs & 0x1FFFu;
    if (rem > 0x1000u || (rem == 0x1000u && (h & 1u))) ++h;
    return static_cast<uint16_t>(sign | h);
  }
  // Subnormal half: shift the full 24-bit significand down to a 2^-24 ulp.
  const uint32_t mant = (abs & 0x7FFFFFu) | 0x800000u;
  const int shift = 126 - static_cast<int>(exp);  // in [14, 24] here
  uint32_t h = mant >> shift;
  const uint32_t rem = mant & ((1u << shift) - 1u);
  const uint32_t halfway = 1u << (shift - 1);
  if (rem > halfway || (rem == halfway && (h & 1u))) ++h;
  return static_cast<uint16_t>(sign | h);  // overflow -> smallest normal
}

}  // namespace

void HalfToFloatScalar(const uint16_t* src, float* dst, size_t count) {
  for (size_t i = 0; i < count; ++i) dst[i] = HalfBitsToFloat(src[i]);
}

void FloatToHalfScalar(const float* src, uint16_t* dst, size_t count) {
  for (size_t i = 0; i < count; ++i) dst[i] = FloatToHalfBits(src[i]);
}

void HalfToFloat(const uint16_t* src, float* dst, size_t count) {
  if (HasF16c()) {
    HalfToFloatF16c(src, dst, count);
  } else {
    HalfToFloatScalar(src, dst, count);
  }
}

void FloatToHalf(const float* src, uint16_t* dst, size_t count) {
  if (HasF16c()) {
    FloatToHalfF16c(src, dst, count);
  } else {
    FloatToHalfScalar(src, dst, count);
  }
}

void GemmStrided(const float* a, size_t a_rs, size_t a_cs, const float* b,
                 size_t b_rs, size_t b_cs, float* out, size_t m, size_t k,
                 size_t n) {
  if (m == 0 || n == 0) return;
  const size_t nr = PickGemmKernel().nr;
  // Pack B on the calling thread (O(k*n) against the O(m*k*n) multiply);
  // workers only read the packed panels.
  float* packed = PackBufferFp32(PanelFloats(k, n, nr));
  PackPanels(b, b_rs, b_cs, k, n, nr, packed);
  RunPanels(a, a_rs, a_cs, packed, nr, m, k, n, out);
}

void GemmHalfB(const float* a, size_t a_rs, size_t a_cs, const uint16_t* b,
               float* out, size_t m, size_t k, size_t n) {
  if (m == 0 || n == 0) return;
  const size_t nr = PickGemmKernel().nr;
  float* packed = PackBufferFp32(PanelFloats(k, n, nr));
  for (size_t j0 = 0; j0 < n; j0 += nr) {
    PackPanelHalf(b, k, n, j0, std::min(nr, n - j0), nr, packed + j0 * k);
  }
  RunPanels(a, a_rs, a_cs, packed, nr, m, k, n, out);
}

}  // namespace apots::tensor::simd
