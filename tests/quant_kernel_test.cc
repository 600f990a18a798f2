// Quantized inference kernels: int8 packing/dequant accuracy, exactness of
// the scalar-vs-VNNI integer accumulation, fp16 conversion bit contracts,
// and the workspace byte-arena scratch path (DESIGN.md §15).

#include <cmath>
#include <cstring>
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

TEST_F(QuantKernelTest, Int8StableAcrossPoolSizesAndWorkspaceScratch) {
  const Tensor a = Random({65, 63}, 21);
  const Tensor w = Random({63, 40}, 22);
  const Int8Matrix packed = PackInt8Weights(w);
  Tensor base({65, 40});
  Int8MatmulInto(a, packed, &base, nullptr);
  Workspace ws;
  for (size_t threads : {1u, 4u}) {
    ResetGlobalPool(threads);
    ws.Reset();
    Tensor out({65, 40});
    Int8MatmulInto(a, packed, &out, &ws);
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], base[i]) << "threads=" << threads << " at " << i;
    }
    EXPECT_GE(ws.byte_slots_in_use(), 1u);
  }
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
