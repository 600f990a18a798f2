// Quantized inference kernels: int8 packing/dequant accuracy, exactness of
// the scalar-vs-VNNI integer accumulation, fp16 conversion bit contracts,
// and the workspace byte-arena scratch path (DESIGN.md §15).

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/cpu_features.h"
#include "tensor/quant.h"
#include "tensor/simd_kernels.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace apots::tensor {
namespace {

Tensor Random(std::vector<size_t> shape, uint64_t seed, float lo = -1.0f,
              float hi = 1.0f) {
  Tensor t(std::move(shape));
  apots::Rng rng(seed);
  FillUniform(&t, &rng, lo, hi);
  return t;
}

/// Max |a-b| over the matrix. Quantization error is absolute per dot
/// product (bounded by the operand absmaxes and k), not relative to the
/// output, which can be near zero from cancellation.
float MatrixMaxAbsError(const Tensor& a, const Tensor& b) {
  float worst = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  }
  return worst;
}

class QuantKernelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    internal::ClearIsaOverrideForTesting();
    ResetGlobalPool(1);
  }
};

TEST_F(QuantKernelTest, Int8MatmulTracksFloatWithinQuantNoise) {
  for (size_t m : {1u, 9u, 64u}) {
    for (size_t k : {1u, 7u, 65u, 128u}) {
      for (size_t n : {1u, 16u, 33u}) {
        const Tensor a = Random({m, k}, 100 + m + k + n);
        const Tensor w = Random({k, n}, 200 + m + k + n);
        const Int8Matrix packed = PackInt8Weights(w);
        Tensor out({m, n});
        Int8MatmulInto(a, packed, &out, nullptr);
        const Tensor expect = Matmul(a, w);
        // Symmetric 8-bit absmax with inputs in [-1, 1]: per-product error
        // is <= (amax + wmax)/127 and the k-term sum random-walks, so
        // ~sqrt(k)/64 bounds it with slack to spare.
        const float tol = 0.03f * std::sqrt(static_cast<float>(k)) + 0.01f;
        EXPECT_LT(MatrixMaxAbsError(out, expect), tol)
            << m << "x" << k << "x" << n;
      }
    }
  }
}

TEST_F(QuantKernelTest, ScalarAndVnniKernelsAgreeBitwise) {
  if (!HasVnni()) {
    GTEST_SKIP() << "host has no AVX-512 VNNI; scalar kernel is the only arm";
  }
  const Tensor a = Random({33, 67}, 7);
  const Tensor w = Random({67, 45}, 8);
  const Int8Matrix packed = PackInt8Weights(w);
  Tensor vnni({33, 45});
  Int8MatmulInto(a, packed, &vnni, nullptr);
  internal::OverrideIsaForTesting(SimdIsa::kScalar);  // disables VNNI too
  ASSERT_FALSE(HasVnni());
  Tensor scalar({33, 45});
  Int8MatmulInto(a, packed, &scalar, nullptr);
  internal::ClearIsaOverrideForTesting();
  for (size_t i = 0; i < vnni.size(); ++i) {
    ASSERT_EQ(vnni[i], scalar[i]) << "at " << i;
  }
}

TEST_F(QuantKernelTest, VnniTileRowsMatchScalarKernel) {
  // Every row remainder of the 16-row VNNI tile and its 4- and 1-row
  // steps, over a ragged last panel.
  if (!HasVnni()) GTEST_SKIP() << "host has no AVX-512 VNNI";
  const Tensor w = Random({67, 45}, 8);
  const Int8Matrix packed = PackInt8Weights(w);
  for (size_t m : {1u, 3u, 4u, 5u, 15u, 16u, 17u, 20u, 31u, 64u, 70u}) {
    const Tensor a = Random({m, 67}, 40 + m);
    Tensor vnni({m, 45}), scalar({m, 45});
    Int8MatmulInto(a, packed, &vnni, nullptr);
    internal::OverrideIsaForTesting(SimdIsa::kScalar);
    Int8MatmulInto(a, packed, &scalar, nullptr);
    internal::ClearIsaOverrideForTesting();
    for (size_t i = 0; i < vnni.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(vnni[i]),
                std::bit_cast<uint32_t>(scalar[i]))
          << "m=" << m << " at " << i;
    }
  }
}

/// Rows that reach every branch of the scalar row quantization: a NaN
/// first element (min and max stay NaN), later NaNs (skipped), infinities,
/// a constant row (zero range), and zero extremes whose first zero is -0
/// or +0 (the sequential fold keeps the first).
std::vector<std::vector<float>> QuantizationRows(size_t k) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<std::vector<float>> rows;
  apots::Rng rng(k);
  auto random_row = [&](float lo, float hi) {
    std::vector<float> row(k);
    for (float& x : row) x = static_cast<float>(rng.Uniform(lo, hi));
    return row;
  };
  rows.push_back(random_row(-1.0f, 1.0f));
  rows.push_back(random_row(-3e4f, 2e4f));
  std::vector<float> tiny = random_row(-1.0f, 1.0f);
  for (size_t i = 0; i < k; i += 2) tiny[i] *= 1e-38f;  // subnormals
  rows.push_back(tiny);
  std::vector<float> row = random_row(-1.0f, 1.0f);
  row[0] = nan;
  rows.push_back(row);
  row = random_row(-1.0f, 1.0f);
  row[k / 2] = nan;
  row[k - 1] = -nan;
  rows.push_back(row);
  row = random_row(-1.0f, 1.0f);
  row[k - 1] = inf;
  rows.push_back(row);
  row = random_row(-1.0f, 1.0f);
  row[k / 3] = -inf;
  rows.push_back(row);
  row = random_row(-1.0f, 1.0f);
  row[k / 3] = -inf;
  row[k / 2] = inf;
  rows.push_back(row);
  rows.push_back(std::vector<float>(k, 0.37f));
  for (float first : {-0.0f, 0.0f}) {
    // Non-negative with a zero minimum, non-positive with a zero maximum,
    // and all zeros, each with `first` as the first zero and the other
    // sign after it.
    row = random_row(0.1f, 1.0f);
    row[k / 2] = first;
    row[k - 1] = -first;
    rows.push_back(row);
    row = random_row(-1.0f, -0.1f);
    row[k / 2] = first;
    row[k - 1] = -first;
    rows.push_back(row);
    row.assign(k, -first);
    row[0] = first;
    rows.push_back(row);
  }
  return rows;
}

TEST_F(QuantKernelTest, VectorQuantizationMatchesScalarCodes) {
  if (DetectedIsa() != SimdIsa::kAvx512) {
    GTEST_SKIP() << "host has no AVX-512; the scalar rung is the only one";
  }
  for (size_t k : {1u, 2u, 15u, 16u, 17u, 33u, 67u, 104u}) {
    const std::vector<std::vector<float>> rows = QuantizationRows(k);
    const size_t m = rows.size();
    const size_t kp = (k + 3) / 4 * 4;
    std::vector<float> a;
    for (const auto& row : rows) a.insert(a.end(), row.begin(), row.end());
    std::vector<float> scale_s(m), min_s(m), scale_v(m), min_v(m);
    std::vector<uint8_t> codes_s(m * kp, 7), codes_v(m * kp, 9);
    simd::QuantizeRowsScalar(a.data(), m, k, kp, scale_s.data(), min_s.data(),
                             codes_s.data());
    simd::QuantizeRowsAvx512(a.data(), m, k, kp, scale_v.data(),
                             min_v.data(), codes_v.data());
    for (size_t i = 0; i < m; ++i) {
      SCOPED_TRACE(::testing::Message() << "k " << k << " row " << i);
      EXPECT_EQ(std::bit_cast<uint32_t>(scale_v[i]),
                std::bit_cast<uint32_t>(scale_s[i]));
      EXPECT_EQ(std::bit_cast<uint32_t>(min_v[i]),
                std::bit_cast<uint32_t>(min_s[i]));
      for (size_t kk = 0; kk < kp; ++kk) {
        ASSERT_EQ(codes_v[i * kp + kk], codes_s[i * kp + kk]) << "code " << kk;
      }
    }
  }
}

TEST_F(QuantKernelTest, Int8StableAcrossPoolSizesAndWorkspaceScratch) {
  // The second shape is past the fork minimum, so four threads run it in
  // whole 16-row tiles, with a 3-row remainder.
  for (auto [m, k, n] : {std::tuple<size_t, size_t, size_t>{65, 63, 40},
                         {259, 520, 250}}) {
    const Tensor a = Random({m, k}, 21);
    const Tensor w = Random({k, n}, 22);
    const Int8Matrix packed = PackInt8Weights(w);
    ResetGlobalPool(1);
    Tensor base({m, n});
    Int8MatmulInto(a, packed, &base, nullptr);
    Workspace ws;
    for (size_t threads : {1u, 4u}) {
      ResetGlobalPool(threads);
      ws.Reset();
      Tensor out({m, n});
      Int8MatmulInto(a, packed, &out, &ws);
      for (size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i], base[i]) << "m=" << m << " threads=" << threads
                                   << " at " << i;
      }
      EXPECT_GE(ws.byte_slots_in_use(), 1u);
    }
  }
  ASSERT_GE(size_t{259} * 520 * 250, simd::kGemmForkMinFma);
}

TEST_F(QuantKernelTest, Int8EdgeShapes) {
  // k == 0: zero products; all-zero row/column: zero scales, no NaNs.
  const Tensor a0 = Tensor::Zeros({3, 0});
  const Int8Matrix w0 = PackInt8Weights(Tensor::Zeros({0, 5}));
  Tensor out0({3, 5});
  out0.Fill(42.0f);
  Int8MatmulInto(a0, w0, &out0, nullptr);
  for (size_t i = 0; i < out0.size(); ++i) EXPECT_EQ(out0[i], 0.0f);

  Tensor a = Random({4, 8}, 31);
  for (size_t kk = 0; kk < 8; ++kk) a.At(2, kk) = 0.0f;  // zero row
  Tensor w = Random({8, 6}, 32);
  for (size_t kk = 0; kk < 8; ++kk) w.At(kk, 3) = 0.0f;  // zero column
  Tensor out({4, 6});
  Int8MatmulInto(a, PackInt8Weights(w), &out, nullptr);
  for (size_t j = 0; j < 6; ++j) EXPECT_EQ(out.At(2, j), 0.0f);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(out.At(i, 3), 0.0f);
}

TEST_F(QuantKernelTest, HalfConversionRoundTripsAndMatchesHardware) {
  // Exhaustive float->half->float over a mix of magnitudes, plus the
  // software/F16C bit-for-bit agreement that makes packed weights
  // host-independent.
  std::vector<float> values = {0.0f,    -0.0f,   1.0f,     -1.0f,   0.5f,
                               65504.0f, -65504.0f, 1e-8f,  -1e-8f, 3.1415f,
                               1e5f,    -1e5f,   6.1e-5f,  5.9e-5f, 2.44e-4f};
  apots::Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    values.push_back(static_cast<float>(rng.Uniform(-100.0, 100.0)));
  }
  std::vector<uint16_t> sw(values.size());
  simd::FloatToHalfScalar(values.data(), sw.data(), values.size());
  std::vector<float> back(values.size());
  simd::HalfToFloatScalar(sw.data(), back.data(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (std::fabs(values[i]) > 65504.0f) {
      // Beyond the largest finite half: RNE overflows to infinity.
      ASSERT_TRUE(std::isinf(back[i])) << values[i];
      ASSERT_EQ(std::signbit(back[i]), std::signbit(values[i])) << values[i];
      continue;
    }
    // Half has ~2^-11 relative precision for normals.
    const float tol =
        std::max(6.2e-5f, std::fabs(values[i]) * (1.0f / 1024.0f));
    ASSERT_NEAR(back[i], values[i], tol) << values[i];
  }
  if (HasF16c()) {
    std::vector<uint16_t> hw(values.size());
    simd::FloatToHalfF16c(values.data(), hw.data(), values.size());
    ASSERT_EQ(0, std::memcmp(sw.data(), hw.data(),
                             sw.size() * sizeof(uint16_t)));
    std::vector<float> hw_back(values.size());
    simd::HalfToFloatF16c(sw.data(), hw_back.data(), sw.size());
    ASSERT_EQ(0, std::memcmp(back.data(), hw_back.data(),
                             back.size() * sizeof(float)));
  }
}

TEST_F(QuantKernelTest, Fp16MatmulTracksFloatTightly) {
  const Tensor a = Random({31, 65}, 41);
  const Tensor w = Random({65, 33}, 42);
  const Fp16Matrix packed = PackFp16Weights(w);
  Tensor out({31, 33});
  Fp16MatmulInto(a, packed, &out);
  const Tensor expect = Matmul(a, w);
  // binary16 weights carry ~2^-11 relative error; activations stay fp32,
  // so the absolute error is ~sqrt(k) * 2^-11 for inputs in [-1, 1].
  EXPECT_LT(MatrixMaxAbsError(out, expect), 2e-2f);
  EXPECT_EQ(packed.half.size(), 65u * 33u);
}

TEST_F(QuantKernelTest, WorkspaceByteArenaRecyclesSlots) {
  Workspace ws;
  void* p1 = ws.AcquireBytes(100);
  void* p2 = ws.AcquireBytes(10);
  EXPECT_NE(p1, p2);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p1) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p2) % 64, 0u);
  EXPECT_EQ(ws.byte_slots_in_use(), 2u);
  const size_t cap = ws.capacity_bytes();
  EXPECT_GE(cap, 110u);
  ws.Reset();
  EXPECT_EQ(ws.byte_slots_in_use(), 0u);
  // Same generation order, bigger request: slot grows in place.
  void* p1b = ws.AcquireBytes(200);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p1b) % 64, 0u);
  EXPECT_GE(ws.capacity_bytes(), cap);
  // Tensor slots and byte slots are independent cursors.
  ws.Acquire({4, 4});
  EXPECT_EQ(ws.slots_in_use(), 1u);
  EXPECT_EQ(ws.byte_slots_in_use(), 1u);
}

TEST_F(QuantKernelTest, QuantModeNames) {
  EXPECT_STREQ(QuantModeName(QuantMode::kOff), "off");
  EXPECT_STREQ(QuantModeName(QuantMode::kFp16), "fp16");
  EXPECT_STREQ(QuantModeName(QuantMode::kInt8), "int8");
}

}  // namespace
}  // namespace apots::tensor
