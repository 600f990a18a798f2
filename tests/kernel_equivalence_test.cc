// Property-style equivalence suite for the KernelMode::kSimd microkernels:
// every matmul op, swept over odd/aligned/ragged shapes, against the
// reference oracle and the blocked path, across forced ISA rungs and pool
// sizes. The numerics contract under test (DESIGN.md §15):
//  - blocked == reference bitwise (unchanged from PR 2);
//  - simd == reference within a small relative epsilon (FMA contraction
//    and panel padding may differ, the accumulation order may not);
//  - simd is bitwise self-consistent across pool sizes and row partitions
//    for a fixed ISA, and *Into forms match allocating forms bitwise.

#include <cmath>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/cpu_features.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace apots::tensor {
namespace {

/// Relative tolerance for simd-vs-reference float accumulation. Both sides
/// sum k products in ascending order; they differ only in FMA contraction
/// (one rounding per step vs two), so the error is a few ULPs per step —
/// 1e-4 relative at k <= 65 with inputs in [-1, 1] is generous.
constexpr float kRelEps = 1e-4f;

const size_t kDims[] = {1, 7, 8, 9, 63, 64, 65};

Tensor Random(std::vector<size_t> shape, uint64_t seed) {
  Tensor t(std::move(shape));
  apots::Rng rng(seed);
  FillUniform(&t, &rng, -1.0f, 1.0f);
  return t;
}

void ExpectBitwise(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_TRUE(a.SameShape(b)) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " at " << i;
  }
}

void ExpectRelNear(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_TRUE(a.SameShape(b)) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    const float tol = kRelEps * std::max(1.0f, std::fabs(b[i]));
    ASSERT_NEAR(a[i], b[i], tol) << what << " at " << i;
  }
}

/// Runs one op in a given mode. op: 0=Matmul, 1=TransposeA, 2=TransposeB.
Tensor RunOp(int op, const Tensor& a, const Tensor& b, KernelMode mode) {
  const KernelMode prev = GetKernelMode();
  SetKernelMode(mode);
  Tensor out;
  switch (op) {
    case 0:
      out = Matmul(a, b);
      break;
    case 1:
      out = MatmulTransposeA(a, b);
      break;
    default:
      out = MatmulTransposeB(a, b);
      break;
  }
  SetKernelMode(prev);
  return out;
}

/// Operand shapes for op x (m, k, n).
void MakeOperands(int op, size_t m, size_t k, size_t n, Tensor* a, Tensor* b) {
  switch (op) {
    case 0:
      *a = Random({m, k}, 1000 + m * 31 + k * 7 + n);
      *b = Random({k, n}, 2000 + m + k * 13 + n * 3);
      break;
    case 1:
      *a = Random({k, m}, 3000 + m * 31 + k * 7 + n);
      *b = Random({k, n}, 4000 + m + k * 13 + n * 3);
      break;
    default:
      *a = Random({m, k}, 5000 + m * 31 + k * 7 + n);
      *b = Random({n, k}, 6000 + m + k * 13 + n * 3);
      break;
  }
}

class KernelEquivalenceTest : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override {
    SetKernelMode(KernelMode::kBlocked);
    internal::ClearIsaOverrideForTesting();
    ResetGlobalPool(1);
  }
};

TEST_P(KernelEquivalenceTest, ShapeSweepAgainstReference) {
  const int op = GetParam();
  for (size_t m : kDims) {
    for (size_t k : kDims) {
      for (size_t n : kDims) {
        Tensor a, b;
        MakeOperands(op, m, k, n, &a, &b);
        const Tensor ref = RunOp(op, a, b, KernelMode::kReference);
        const Tensor blocked = RunOp(op, a, b, KernelMode::kBlocked);
        ExpectBitwise(blocked, ref, "blocked vs reference");
        const Tensor simd = RunOp(op, a, b, KernelMode::kSimd);
        ExpectRelNear(simd, ref, "simd vs reference");
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST_P(KernelEquivalenceTest, EveryIsaRungMatchesReference) {
  const int op = GetParam();
  const SimdIsa rungs[] = {SimdIsa::kScalar, SimdIsa::kAvx2, SimdIsa::kAvx512};
  for (SimdIsa rung : rungs) {
    internal::OverrideIsaForTesting(rung);
    for (size_t m : {3u, 64u, 65u}) {
      Tensor a, b;
      MakeOperands(op, m, 63, 33, &a, &b);
      const Tensor ref = RunOp(op, a, b, KernelMode::kReference);
      const Tensor simd = RunOp(op, a, b, KernelMode::kSimd);
      ExpectRelNear(simd, ref, IsaName(rung));
      if (HasFatalFailure()) return;
    }
  }
  internal::ClearIsaOverrideForTesting();
}

TEST_P(KernelEquivalenceTest, BitwiseStableAcrossPoolSizes) {
  const int op = GetParam();
  Tensor a, b;
  MakeOperands(op, 65, 64, 63, &a, &b);
  ResetGlobalPool(1);
  const Tensor base = RunOp(op, a, b, KernelMode::kSimd);
  for (size_t threads : {2u, 3u, 4u}) {
    ResetGlobalPool(threads);
    const Tensor again = RunOp(op, a, b, KernelMode::kSimd);
    ExpectBitwise(again, base, "simd across pool sizes");
    if (HasFatalFailure()) break;
  }
  ResetGlobalPool(1);
}

INSTANTIATE_TEST_SUITE_P(AllOps, KernelEquivalenceTest,
                         ::testing::Values(0, 1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           switch (info.param) {
                             case 0:
                               return "Matmul";
                             case 1:
                               return "TransposeA";
                             default:
                               return "TransposeB";
                           }
                         });

TEST(KernelEquivalenceEdgeTest, BlockedTailsMatchReference) {
  // Every blocked tile shape against the reference: m = 1..9 leaves each
  // row remainder (4x16, 3x16, 2x32, 1x64 tiles) twice, the n values run
  // the 8-wide and single-column tails at the workloads' widths (conv dW
  // 9, conv depth 36, LSTM 104 and 256, conv output 156), and pool size 4
  // cuts the deeper products into 1-, 2- and 3-row chunks.
  for (size_t threads : {1u, 4u}) {
    ResetGlobalPool(threads);
    for (int op = 0; op < 3; ++op) {
      for (size_t m = 1; m <= 9; ++m) {
        for (size_t k : {9u, 64u, 156u}) {
          for (size_t n : {1u, 8u, 9u, 12u, 36u, 104u, 156u, 256u}) {
            SCOPED_TRACE(::testing::Message()
                         << "op " << op << " m " << m << " k " << k << " n "
                         << n << " threads " << threads);
            Tensor a, b;
            MakeOperands(op, m, k, n, &a, &b);
            const Tensor ref = RunOp(op, a, b, KernelMode::kReference);
            const Tensor blocked = RunOp(op, a, b, KernelMode::kBlocked);
            ExpectBitwise(blocked, ref, "blocked tail vs reference");
            if (HasFatalFailure()) {
              ResetGlobalPool(1);
              return;
            }
          }
        }
      }
    }
  }
  ResetGlobalPool(1);
}

TEST(KernelEquivalenceEdgeTest, ZeroDepthProducesZeros) {
  SetKernelMode(KernelMode::kSimd);
  const Tensor a = Tensor::Zeros({5, 0});
  const Tensor b = Tensor::Zeros({0, 9});
  const Tensor out = Matmul(a, b);
  SetKernelMode(KernelMode::kBlocked);
  ASSERT_EQ(out.rows(), 5u);
  ASSERT_EQ(out.cols(), 9u);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 0.0f);
}

TEST(KernelEquivalenceEdgeTest, MatmulIntoMatchesAllocatingForm) {
  for (KernelMode mode :
       {KernelMode::kReference, KernelMode::kBlocked, KernelMode::kSimd}) {
    SetKernelMode(mode);
    const Tensor a = Random({9, 65}, 77);
    const Tensor b = Random({65, 17}, 78);
    const Tensor expect = Matmul(a, b);
    Tensor out({9, 17});
    out.Fill(123.0f);  // dirty contents must be fully overwritten
    MatmulInto(a, b, &out);
    ExpectBitwise(out, expect, KernelModeName(mode));
  }
  SetKernelMode(KernelMode::kBlocked);
}

TEST(KernelEquivalenceEdgeTest, WorkspaceSlotReuseIsAliasingFree) {
  // Two *Into calls into recycled workspace slots across generations: the
  // second result must not see the first call's bytes.
  SetKernelMode(KernelMode::kSimd);
  Workspace ws;
  const Tensor a1 = Random({7, 64}, 91);
  const Tensor b1 = Random({64, 33}, 92);
  const Tensor a2 = Random({7, 64}, 93);
  const Tensor b2 = Random({64, 33}, 94);
  Tensor* out = ws.Acquire({7, 33});
  MatmulInto(a1, b1, out);
  const Tensor first = *out;
  ws.Reset();
  out = ws.Acquire({7, 33});
  MatmulInto(a2, b2, out);
  const Tensor expect2 = Matmul(a2, b2);
  SetKernelMode(KernelMode::kBlocked);
  ExpectBitwise(*out, expect2, "recycled slot");
  // And the first result recomputed still matches (pack buffers are not
  // corrupted by interleaved calls).
  SetKernelMode(KernelMode::kSimd);
  const Tensor again = Matmul(a1, b1);
  SetKernelMode(KernelMode::kBlocked);
  ExpectBitwise(again, first, "first result recomputed");
}

TEST(KernelEquivalenceEdgeTest, Im2ColMatchesReferenceInSimdMode) {
  const Tensor input = Random({3, 9, 7}, 55);
  SetKernelMode(KernelMode::kReference);
  const Tensor ref = Im2Col(input, 3, 3, 1);
  SetKernelMode(KernelMode::kSimd);
  const Tensor simd = Im2Col(input, 3, 3, 1);
  SetKernelMode(KernelMode::kBlocked);
  ExpectBitwise(simd, ref, "im2col");
}

TEST(KernelEquivalenceEdgeTest, DispatchLadderNeverExceedsHost) {
  // Forcing an ISA above the host must clamp, not crash: run a matmul at
  // every override and confirm a sane result each time.
  const Tensor a = Random({33, 65}, 11);
  const Tensor b = Random({65, 31}, 12);
  SetKernelMode(KernelMode::kReference);
  const Tensor ref = Matmul(a, b);
  SetKernelMode(KernelMode::kSimd);
  for (SimdIsa rung : {SimdIsa::kAvx512, SimdIsa::kAvx2, SimdIsa::kScalar}) {
    internal::OverrideIsaForTesting(rung);
    const Tensor out = Matmul(a, b);
    ExpectRelNear(out, ref, IsaName(DetectedIsa()));
  }
  internal::ClearIsaOverrideForTesting();
  SetKernelMode(KernelMode::kBlocked);
}

TEST(KernelEquivalenceEdgeTest, KernelModeNamesRoundTrip) {
  EXPECT_STREQ(KernelModeName(KernelMode::kBlocked), "blocked");
  EXPECT_STREQ(KernelModeName(KernelMode::kReference), "reference");
  EXPECT_STREQ(KernelModeName(KernelMode::kSimd), "simd");
  EXPECT_STREQ(IsaName(SimdIsa::kScalar), "scalar");
  EXPECT_STREQ(IsaName(SimdIsa::kAvx2), "avx2");
  EXPECT_STREQ(IsaName(SimdIsa::kAvx512), "avx512");
}

}  // namespace
}  // namespace apots::tensor
