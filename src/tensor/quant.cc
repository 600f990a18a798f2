#include "tensor/quant.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/simd_kernels.h"
#include "tensor/workspace.h"

namespace apots::tensor {

namespace {

constexpr size_t kNr = simd::kNrInt8;

/// Symmetric absmax code for one value: round-to-nearest-even into
/// [-127, 127] (never -128, keeping the code range symmetric).
inline int8_t QuantizeCode(float value, float inv_scale) {
  const float scaled = value * inv_scale;
  const float clamped = std::min(127.0f, std::max(-127.0f, scaled));
  return static_cast<int8_t>(std::nearbyintf(clamped));
}

}  // namespace

const char* QuantModeName(QuantMode mode) {
  switch (mode) {
    case QuantMode::kOff:
      return "off";
    case QuantMode::kFp16:
      return "fp16";
    case QuantMode::kInt8:
      return "int8";
  }
  return "unknown";
}

Int8Matrix PackInt8Weights(const Tensor& w) {
  APOTS_CHECK_EQ(w.rank(), 2u);
  const size_t k = w.rows(), n = w.cols();
  Int8Matrix packed;
  packed.k = k;
  packed.kp = (k + 3) / 4 * 4;
  packed.n = n;
  packed.col_scale.assign(n, 0.0f);
  packed.col_zsum.assign(n, 0);
  const size_t num_panels = (n + kNr - 1) / kNr;
  packed.panels.assign(num_panels * packed.kp * kNr, 0);
  const float* pw = w.data();
  for (size_t j = 0; j < n; ++j) {
    float absmax = 0.0f;
    for (size_t kk = 0; kk < k; ++kk) {
      absmax = std::max(absmax, std::fabs(pw[kk * n + j]));
    }
    const float scale = absmax > 0.0f ? absmax / 127.0f : 0.0f;
    const float inv_scale = absmax > 0.0f ? 127.0f / absmax : 0.0f;
    packed.col_scale[j] = scale;
    const size_t p = j / kNr;
    const size_t c = j % kNr;
    int8_t* panel = packed.panels.data() + p * packed.kp * kNr;
    int32_t zsum = 0;
    for (size_t kk = 0; kk < k; ++kk) {
      const int8_t code = QuantizeCode(pw[kk * n + j], inv_scale);
      // VPDPBUSD layout: (group, column, lane) for kk = 4*group + lane.
      panel[((kk / 4) * kNr + c) * 4 + (kk % 4)] = code;
      zsum += code;
    }
    packed.col_zsum[j] = zsum;
  }
  return packed;
}

Fp16Matrix PackFp16Weights(const Tensor& w) {
  APOTS_CHECK_EQ(w.rank(), 2u);
  Fp16Matrix packed;
  packed.k = w.rows();
  packed.n = w.cols();
  packed.half.resize(packed.k * packed.n);
  simd::FloatToHalf(w.data(), packed.half.data(), packed.k * packed.n);
  return packed;
}

void Int8MatmulInto(const Tensor& a, const Int8Matrix& w, Tensor* out,
                    Workspace* ws) {
  APOTS_CHECK_EQ(a.rank(), 2u);
  APOTS_CHECK_EQ(a.cols(), w.k);
  const size_t m = a.rows(), k = w.k, kp = w.kp, n = w.n;
  APOTS_CHECK_EQ(out->rank(), 2u);
  APOTS_CHECK_EQ(out->rows(), m);
  APOTS_CHECK_EQ(out->cols(), n);
  if (m == 0 || n == 0) return;
  // Activation scratch: per-row scale + min (floats, 64B-aligned base)
  // followed by the unsigned codes, one padded row each. Borrowed from the
  // workspace on the zero-alloc path, thread-local otherwise.
  const size_t scale_bytes = (2 * m * sizeof(float) + 63) / 64 * 64;
  const size_t total_bytes = scale_bytes + m * kp;
  uint8_t* scratch = ws != nullptr
                         ? static_cast<uint8_t*>(ws->AcquireBytes(total_bytes))
                         : simd::PackBufferBytes(total_bytes);
  float* row_scale = reinterpret_cast<float*>(scratch);
  float* row_min = row_scale + m;
  uint8_t* qa = scratch + scale_bytes;
  // Asymmetric min/max affine quantization: a ~= min + scale * code with
  // code in [0, 255]. Unlike symmetric absmax (+128 zero point), the full
  // code range covers the actual value range — for the all-positive ReLU
  // activations that feed most inference matmuls this doubles the
  // effective resolution.
  simd::PickQuantizeRowsKernel()(a.data(), m, k, kp, row_scale, row_min, qa);
  const simd::Int8PanelFn kernel = simd::PickInt8Kernel();
  const size_t num_panels = (n + kNr - 1) / kNr;
  const int8_t* panels = w.panels.data();
  const float* col_scale = w.col_scale.data();
  const int32_t* col_zsum = w.col_zsum.data();
  float* po = out->data();
  simd::ParallelGemmRows(m, k * n, simd::kMrInt8, [&](size_t r0, size_t r1) {
    for (size_t p = 0; p < num_panels; ++p) {
      const size_t j0 = p * kNr;
      const size_t width = std::min(kNr, n - j0);
      kernel(qa, kp, row_scale, row_min, panels + p * kp * kNr, kp,
             col_scale + j0, col_zsum + j0, po + j0, n, r0, r1, width);
    }
  });
}

void Fp16MatmulInto(const Tensor& a, const Fp16Matrix& w, Tensor* out) {
  APOTS_CHECK_EQ(a.rank(), 2u);
  APOTS_CHECK_EQ(a.cols(), w.k);
  APOTS_CHECK_EQ(out->rank(), 2u);
  APOTS_CHECK_EQ(out->rows(), a.rows());
  APOTS_CHECK_EQ(out->cols(), w.n);
  simd::GemmHalfB(a.data(), a.cols(), 1, w.half.data(), out->data(), a.rows(),
                  w.k, w.n);
}

}  // namespace apots::tensor
