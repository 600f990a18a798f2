// Property-style equivalence suite for the matmul family's two kernels: the
// register tiles (products under 16 rows) and the packed-panel microkernels
// of simd::GemmStrided (16 rows and up in FMA builds), swept over odd,
// aligned and ragged shapes, every row count of the panels' register
// tiles, forced ISA rungs and pool sizes, and the prepared right operand
// (tensor::PrepareRhs). The numerics contract under test (DESIGN.md §15):
//  - the public entry points == reference bitwise, in every build, at
//    every ISA rung and pool size;
//  - the panels called directly == reference bitwise where the library
//    targets FMA (GetKernelMode() == kTilesAndPanels), and within a small
//    relative epsilon elsewhere: the panels always fuse multiply-adds, the
//    reference loops of a build without FMA do not;
//  - the panels are bitwise self-consistent across pool sizes and row
//    partitions, and *Into forms match allocating forms bitwise.
// It also holds the LSTM cell kernel (tensor::LstmCell) to its one-lane
// form bitwise at every rung, and the one-lane form to the libm forms
// within a bound; lstm_cell_exhaustive_test does both on all 2^32 inputs.

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lstm_cell_reference.h"
#include "nn/lstm.h"
#include "tensor/cpu_features.h"
#include "tensor/simd_kernels.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace apots::tensor {
namespace {

/// Relative tolerance for panels-vs-reference in builds without FMA. Both
/// sides sum k products in ascending order; they differ only in FMA
/// contraction (one rounding per step vs two), so the error is a few ULPs
/// per step — 1e-4 relative at k <= 65 with inputs in [-1, 1] is generous.
constexpr float kRelEps = 1e-4f;

const size_t kDims[] = {1, 7, 8, 9, 63, 64, 65};
const SimdIsa kRungs[] = {SimdIsa::kScalar, SimdIsa::kAvx2, SimdIsa::kAvx512};

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

/// Panels against the reference: bitwise when the library fuses its
/// multiply-adds like the panels do, within kRelEps otherwise.
void ExpectPanelsMatch(const Tensor& a, const Tensor& b, const char* what) {
  if (GetKernelMode() == KernelMode::kTilesAndPanels) {
    ExpectBitwise(a, b, what);
    return;
  }
  ASSERT_TRUE(a.SameShape(b)) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    const float tol = kRelEps * std::max(1.0f, std::fabs(b[i]));
    ASSERT_NEAR(a[i], b[i], tol) << what << " at " << i;
  }
}

/// Runs one op through the public dispatch. op: 0=Matmul, 1=TransposeA,
/// 2=TransposeB.
Tensor RunOp(int op, const Tensor& a, const Tensor& b) {
  switch (op) {
    case 0:
      return Matmul(a, b);
    case 1:
      return MatmulTransposeA(a, b);
    default:
      return MatmulTransposeB(a, b);
  }
}

Tensor RunReference(int op, const Tensor& a, const Tensor& b) {
  switch (op) {
    case 0:
      return reference::Matmul(a, b);
    case 1:
      return reference::MatmulTransposeA(a, b);
    default:
      return reference::MatmulTransposeB(a, b);
  }
}

/// Runs one op on the panel kernel directly, whatever its row count, with
/// the strides the public entry points pass.
Tensor RunPanels(int op, const Tensor& a, const Tensor& b) {
  const bool ta = op == 1;
  const bool tb = op == 2;
  const size_t m = ta ? a.cols() : a.rows();
  const size_t k = ta ? a.rows() : a.cols();
  const size_t n = tb ? b.rows() : b.cols();
  Tensor out({m, n});
  simd::GemmStrided(a.data(), ta ? 1 : k, ta ? m : 1, b.data(), tb ? 1 : n,
                    tb ? k : 1, out.data(), m, k, n);
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
        const Tensor ref = RunReference(op, a, b);
        ExpectBitwise(RunOp(op, a, b), ref, "dispatch vs reference");
        ExpectPanelsMatch(RunPanels(op, a, b), ref, "panels vs reference");
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST_P(KernelEquivalenceTest, EveryIsaRungMatchesReference) {
  const int op = GetParam();
  for (SimdIsa rung : kRungs) {
    internal::OverrideIsaForTesting(rung);
    for (size_t m : {3u, 64u, 65u}) {
      Tensor a, b;
      MakeOperands(op, m, 63, 33, &a, &b);
      ExpectPanelsMatch(RunPanels(op, a, b), RunReference(op, a, b),
                        IsaName(rung));
      if (HasFatalFailure()) return;
    }
  }
}

TEST_P(KernelEquivalenceTest, PanelTilesMatchReferenceAtEveryRung) {
  // Every row count of both register tiles: m = 16..24 and 31 leave each
  // remainder of the 8-row (AVX-512) and the 6-row (AVX2) tile after full
  // ones, 64, 65 and 192 are the training, what-if and adversarial
  // batches. The n values run one-column, ragged, full and multi-panel
  // widths at both panel widths (16 and 32); k = 1 is a one-step chain.
  // The last shape is past the fork minimum (simd::kGemmForkMinFma), so
  // pool size 4 runs it in whole-tile chunks, with a remainder of 5 rows
  // on AVX-512 and 3 on AVX2. Both the public dispatch and the panels
  // called directly.
  const int op = GetParam();
  struct Shape {
    size_t m, k, n;
  };
  std::vector<Shape> shapes;
  std::vector<size_t> rows;
  for (size_t m = 16; m <= 24; ++m) rows.push_back(m);
  for (size_t m : {31u, 64u, 65u, 192u}) rows.push_back(m);
  for (size_t m : rows) {
    for (size_t k : {1u, 9u, 64u, 104u}) {
      for (size_t n : {1u, 15u, 16u, 17u, 31u, 32u, 33u, 104u, 256u}) {
        shapes.push_back({m, k, n});
      }
    }
  }
  shapes.push_back({333, 320, 320});
  ASSERT_GE(size_t{333} * 320 * 320, simd::kGemmForkMinFma);
  for (const Shape& s : shapes) {
    Tensor a, b;
    MakeOperands(op, s.m, s.k, s.n, &a, &b);
    const Tensor ref = RunReference(op, a, b);
    for (size_t threads : {1u, 4u}) {
      ResetGlobalPool(threads);
      for (SimdIsa rung : kRungs) {
        internal::OverrideIsaForTesting(rung);
        SCOPED_TRACE(::testing::Message()
                     << "m " << s.m << " k " << s.k << " n " << s.n
                     << " threads " << threads << " isa "
                     << IsaName(DetectedIsa()));
        ExpectBitwise(RunOp(op, a, b), ref, "dispatch vs reference");
        ExpectPanelsMatch(RunPanels(op, a, b), ref, "panels vs reference");
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST_P(KernelEquivalenceTest, BitwiseStableAcrossPoolSizes) {
  const int op = GetParam();
  Tensor a, b;
  MakeOperands(op, 65, 64, 63, &a, &b);
  ResetGlobalPool(1);
  const Tensor base = RunPanels(op, a, b);
  for (size_t threads : {2u, 3u, 4u}) {
    ResetGlobalPool(threads);
    ExpectBitwise(RunPanels(op, a, b), base, "panels across pool sizes");
    if (HasFatalFailure()) return;
  }
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

class KernelEquivalenceEdgeTest : public ::testing::Test {
 protected:
  void TearDown() override {
    internal::ClearIsaOverrideForTesting();
    ResetGlobalPool(1);
  }
};

TEST_F(KernelEquivalenceEdgeTest, BlockedTailsMatchReference) {
  // Every tile shape and the switch to the panels, against the reference
  // through the public entry points. m = 1..9 leaves each row remainder
  // (4x16, 3x16, 2x32, 1x64 tiles) twice; m = 15, 16, 17 straddle the
  // 16-row switch and m = 64 is the training and what-if batch, each at
  // every ISA rung the panels dispatch on. The n values run the 8-wide and
  // single-column tails at the workloads' widths (conv dW 9, conv depth
  // 36, LSTM 104 and 256, conv output 156), and pool size 4 cuts the
  // deeper products into 1-, 2- and 3-row chunks.
  for (size_t threads : {1u, 4u}) {
    ResetGlobalPool(threads);
    for (SimdIsa rung : kRungs) {
      internal::OverrideIsaForTesting(rung);
      std::vector<size_t> rows = {15, 16, 17, 64};
      if (rung == SimdIsa::kAvx512) {
        for (size_t m = 1; m <= 9; ++m) rows.push_back(m);
      }
      for (int op = 0; op < 3; ++op) {
        for (size_t m : rows) {
          for (size_t k : {9u, 64u, 156u}) {
            for (size_t n : {1u, 8u, 9u, 12u, 36u, 104u, 156u, 256u}) {
              SCOPED_TRACE(::testing::Message()
                           << "op " << op << " m " << m << " k " << k
                           << " n " << n << " threads " << threads << " isa "
                           << IsaName(rung));
              Tensor a, b;
              MakeOperands(op, m, k, n, &a, &b);
              ExpectBitwise(RunOp(op, a, b), RunReference(op, a, b),
                            "dispatch vs reference");
              if (HasFatalFailure()) return;
            }
          }
        }
      }
    }
  }
}

TEST_F(KernelEquivalenceEdgeTest, ZeroDepthProducesZeros) {
  for (size_t m : {5u, 17u}) {  // tiles, then panels
    const Tensor a = Tensor::Zeros({m, 0});
    const Tensor b = Tensor::Zeros({0, 9});
    Tensor out({m, 9});
    out.Fill(123.0f);  // dirty contents must be fully overwritten
    MatmulInto(a, b, &out);
    for (size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], 0.0f) << m;
  }
}

TEST_F(KernelEquivalenceEdgeTest, MatmulIntoMatchesAllocatingForm) {
  for (size_t m : {9u, 17u}) {  // tiles, then panels
    const Tensor a = Random({m, 65}, 77);
    const Tensor b = Random({65, 17}, 78);
    const Tensor expect = Matmul(a, b);
    Tensor out({m, 17});
    out.Fill(123.0f);  // dirty contents must be fully overwritten
    MatmulInto(a, b, &out);
    ExpectBitwise(out, expect, m < 16 ? "tiles" : "panels");
  }
}

TEST_F(KernelEquivalenceEdgeTest, WorkspaceSlotReuseIsAliasingFree) {
  // Two *Into calls into recycled workspace slots across generations: the
  // second result must not see the first call's bytes. 17 rows take the
  // panel path where the build has one.
  Workspace ws;
  const Tensor a1 = Random({17, 64}, 91);
  const Tensor b1 = Random({64, 33}, 92);
  const Tensor a2 = Random({17, 64}, 93);
  const Tensor b2 = Random({64, 33}, 94);
  Tensor* out = ws.Acquire({17, 33});
  MatmulInto(a1, b1, out);
  const Tensor first = *out;
  ws.Reset();
  out = ws.Acquire({17, 33});
  MatmulInto(a2, b2, out);
  ExpectBitwise(*out, reference::Matmul(a2, b2), "recycled slot");
  // And the first result recomputed still matches (pack buffers are not
  // corrupted by interleaved calls).
  ExpectBitwise(Matmul(a1, b1), first, "first result recomputed");
}

TEST_F(KernelEquivalenceEdgeTest, DispatchLadderNeverExceedsHost) {
  // Forcing an ISA above the host must clamp, not crash: run a matmul at
  // every override and confirm the reference's bits each time.
  const Tensor a = Random({33, 65}, 11);
  const Tensor b = Random({65, 31}, 12);
  const Tensor ref = reference::Matmul(a, b);
  for (SimdIsa rung : {SimdIsa::kAvx512, SimdIsa::kAvx2, SimdIsa::kScalar}) {
    internal::OverrideIsaForTesting(rung);
    ExpectBitwise(Matmul(a, b), ref, IsaName(DetectedIsa()));
  }
}

TEST_F(KernelEquivalenceEdgeTest, KernelModeNamesRoundTrip) {
  EXPECT_STREQ(KernelModeName(KernelMode::kTiles), "tiles");
  EXPECT_STREQ(KernelModeName(KernelMode::kTilesAndPanels), "tiles+panels");
  EXPECT_STREQ(IsaName(SimdIsa::kScalar), "scalar");
  EXPECT_STREQ(IsaName(SimdIsa::kAvx2), "avx2");
  EXPECT_STREQ(IsaName(SimdIsa::kAvx512), "avx512");
}

/// Products against one prepared right operand, on left operands that
/// differ per call, return MatmulInto's bits (plain) or MatmulTransposeB's
/// (transposed) at every rung, on both sides of the 16-row switch.
TEST_F(KernelEquivalenceEdgeTest, PreparedRhsMatchesUnpreparedProducts) {
  for (SimdIsa rung : kRungs) {
    internal::OverrideIsaForTesting(rung);
    for (size_t m : {1u, 15u, 16u, 17u, 64u}) {
      for (auto [k, n] : {std::pair<size_t, size_t>{104, 256}, {9, 33}}) {
        SCOPED_TRACE(::testing::Message()
                     << "isa " << IsaName(DetectedIsa()) << " m " << m
                     << " k " << k << " n " << n);
        const Tensor b = Random({k, n}, 700 + m + k);
        const Tensor b_rows = Random({n, k}, 800 + m + k);  // b^T's rows
        Tensor storage, storage_t;
        const PreparedRhs prepared = PrepareRhs(b, m, &storage);
        const PreparedRhs prepared_t =
            PrepareRhsTransposed(b_rows, m, &storage_t);
        EXPECT_EQ(prepared.nr != 0, GetKernelMode() ==
                                        KernelMode::kTilesAndPanels &&
                                    m >= 16);
        for (uint64_t call = 0; call < 3; ++call) {
          const Tensor a = Random({m, k}, 900 + call * 17 + m);
          Tensor expect({m, n}), got({m, n});
          MatmulInto(a, b, &expect);
          got.Fill(123.0f);  // dirty contents must be fully overwritten
          MatmulInto(a, prepared, &got);
          ExpectBitwise(got, expect, "prepared vs MatmulInto");
          got.Fill(123.0f);
          MatmulInto(a, prepared_t, &got);
          ExpectBitwise(got, MatmulTransposeB(a, b_rows),
                        "prepared transpose vs MatmulTransposeB");
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST_F(KernelEquivalenceEdgeTest, PreparedRhsRefusesAnotherPanelWidth) {
  // Panels packed 32 wide (AVX-512) hold other columns than the AVX2
  // kernel's 16-wide panels expect, and the other way round: a run under
  // a rung of another width must stop at a check, not return numbers.
  if (GetKernelMode() != KernelMode::kTilesAndPanels ||
      DetectedIsa() != SimdIsa::kAvx512) {
    GTEST_SKIP() << "needs AVX-512 and a build whose products run panels";
  }
#ifdef GTEST_FLAG_SET
  GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
#endif
  const Tensor a = Random({64, 104}, 1);
  const Tensor b = Random({104, 256}, 2);
  Tensor out({64, 256});
  for (SimdIsa pack_rung : {SimdIsa::kAvx512, SimdIsa::kAvx2}) {
    const SimdIsa run_rung =
        pack_rung == SimdIsa::kAvx512 ? SimdIsa::kAvx2 : SimdIsa::kAvx512;
    internal::OverrideIsaForTesting(pack_rung);
    Tensor storage;
    const PreparedRhs prepared = PrepareRhs(b, 64, &storage);
    internal::OverrideIsaForTesting(run_rung);
    EXPECT_DEATH(MatmulInto(a, prepared, &out), "kernel.nr")
        << IsaName(pack_rung);
  }
}

class LstmCellKernelTest : public ::testing::Test {
 protected:
  void TearDown() override { internal::ClearIsaOverrideForTesting(); }
};

/// Equality of bit patterns: NaN payloads and signed zeros count.
void ExpectSameBits(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_TRUE(a.SameShape(b)) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(a[i]), std::bit_cast<uint32_t>(b[i]))
        << what << " at " << i << ": " << a[i] << " vs " << b[i];
  }
}

struct CellOutputs {
  Tensor act, c, tanh_c, h;
};

CellOutputs EmptyOutputs(size_t rows, size_t hidden) {
  return {Tensor({rows, 4 * hidden}), Tensor({rows, hidden}),
          Tensor({rows, hidden}), Tensor({rows, hidden})};
}

/// One step through the dispatch at the current rung.
CellOutputs RunCell(const Tensor& gx, const Tensor& gh, const Tensor& bias,
                    const Tensor& c_prev) {
  CellOutputs out = EmptyOutputs(c_prev.rows(), c_prev.cols());
  LstmCell(gx, gh, bias, c_prev, &out.c, &out.h, &out.act, &out.tanh_c);
  return out;
}

/// The same step in the one-lane form.
CellOutputs RunCellOneLane(const Tensor& gx, const Tensor& gh,
                           const Tensor& bias, const Tensor& c_prev) {
  CellOutputs out = EmptyOutputs(c_prev.rows(), c_prev.cols());
  simd::LstmCellScalar({gx.data(), gh.data(), bias.data(), c_prev.data(),
                        c_prev.rows(), c_prev.cols(), out.act.data(),
                        out.c.data(), out.tanh_c.data(), out.h.data()});
  return out;
}

void ExpectSameCell(const CellOutputs& got, const CellOutputs& want) {
  ExpectSameBits(got.act, want.act, "act");
  ExpectSameBits(got.c, want.c, "c");
  ExpectSameBits(got.tanh_c, want.tanh_c, "tanh_c");
  ExpectSameBits(got.h, want.h, "h");
}

/// A stride through all 2^32 bit patterns plus the inputs where the forms
/// branch or saturate: signed zeros, infinities, NaNs (quiet, signaling,
/// negative), subnormals, the tanh switch at +-0.625 and the e^x clamp
/// (-|x| = kExpLo for sigmoid, -2|x| = kExpLo for tanh), with neighbours.
std::vector<float> InterestingInputs() {
  std::vector<float> xs;
  for (uint64_t p = 0; p < (uint64_t{1} << 32); p += 16411) {
    xs.push_back(std::bit_cast<float>(static_cast<uint32_t>(p)));
  }
  const float inf = std::numeric_limits<float>::infinity();
  for (float edge : {0.0f, 0.625f, -simd::kExpLo, -simd::kExpLo / 2, inf}) {
    for (float x : {edge, std::nextafter(edge, 0.0f),
                    std::nextafter(edge, inf)}) {
      xs.push_back(x);
      xs.push_back(-x);
    }
  }
  for (uint32_t bits : {0x7FC00000u, 0xFFC00000u, 0x7F800001u, 0x7FC12345u,
                        0x00000001u, 0x80000001u, 0x007FFFFFu, 0x807FFFFFu,
                        0x00400000u}) {
    xs.push_back(std::bit_cast<float>(bits));
  }
  return xs;
}

/// One row of units, unit j fed xs[j] in all four gates and in c_prev.
/// gh = bias = -0 leaves the pre-activation equal to the input, -0
/// included: (x + -0) + -0 == x. So act holds sigmoid(xs[j]) in the i, f
/// and o blocks and tanh(xs[j]) in the g block.
struct PatternCell {
  explicit PatternCell(const std::vector<float>& xs)
      : hidden(xs.size()),
        gx({1, 4 * hidden}),
        gh({1, 4 * hidden}),
        bias({4 * hidden}),
        c_prev({1, hidden}) {
    for (size_t j = 0; j < hidden; ++j) {
      for (size_t gate = 0; gate < 4; ++gate) gx[gate * hidden + j] = xs[j];
      c_prev[j] = xs[j];
    }
    gh.Fill(-0.0f);
    bias.Fill(-0.0f);
  }
  CellOutputs Run() const { return RunCell(gx, gh, bias, c_prev); }
  CellOutputs RunOneLane() const {
    return RunCellOneLane(gx, gh, bias, c_prev);
  }

  size_t hidden;
  Tensor gx, gh, bias, c_prev;
};

TEST_F(LstmCellKernelTest, EveryRungMatchesOneLaneOnBitPatterns) {
  const PatternCell cell(InterestingInputs());
  const CellOutputs want = cell.RunOneLane();
  for (SimdIsa rung : kRungs) {
    internal::OverrideIsaForTesting(rung);
    SCOPED_TRACE(IsaName(DetectedIsa()));
    ExpectSameCell(cell.Run(), want);
    if (HasFatalFailure()) return;
  }
}

TEST_F(LstmCellKernelTest, ShapeSweepMatchesOneLaneInAndOutOfPlace) {
  // H = 1, 4 and 13 run vector tails (or only the tail), 16 and 64 none,
  // 67 both; single rows and odd row counts too.
  for (size_t hidden : {1u, 4u, 13u, 16u, 64u, 67u}) {
    for (size_t rows : {1u, 3u, 64u}) {
      SCOPED_TRACE(::testing::Message() << "H " << hidden << " rows " << rows);
      Tensor gx({rows, 4 * hidden}), gh({rows, 4 * hidden});
      Tensor bias({4 * hidden}), c_prev({rows, hidden});
      apots::Rng rng(rows * 131 + hidden);
      FillUniform(&gx, &rng, -6.0f, 6.0f);
      FillUniform(&gh, &rng, -3.0f, 3.0f);
      FillUniform(&bias, &rng, -1.0f, 1.0f);
      FillUniform(&c_prev, &rng, -4.0f, 4.0f);
      const CellOutputs want = RunCellOneLane(gx, gh, bias, c_prev);
      for (SimdIsa rung : kRungs) {
        internal::OverrideIsaForTesting(rung);
        SCOPED_TRACE(IsaName(DetectedIsa()));
        ExpectSameCell(RunCell(gx, gh, bias, c_prev), want);
        // The forwards' in-place forms: the gates activate over the
        // x-product, and c replaces c_prev.
        Tensor act = gx;
        Tensor c = c_prev;
        Tensor h({rows, hidden});
        LstmCell(act, gh, bias, c, &c, &h, &act, nullptr);
        ExpectSameBits(act, want.act, "in-place act");
        ExpectSameBits(c, want.c, "in-place c");
        ExpectSameBits(h, want.h, "in-place h");
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST_F(LstmCellKernelTest, OneLaneWithinBoundOfLibm) {
  const std::vector<float> xs = InterestingInputs();
  const PatternCell cell(xs);
  const CellOutputs out = cell.RunOneLane();
  testing::ActivationError sigmoid, tanh;
  for (size_t j = 0; j < xs.size(); ++j) {
    const float got_sigmoid = out.act[j];
    const float got_tanh = out.act[2 * xs.size() + j];
    if (std::isnan(xs[j])) {
      EXPECT_TRUE(std::isnan(got_sigmoid));
      EXPECT_TRUE(std::isnan(got_tanh));
      continue;
    }
    sigmoid.Add(got_sigmoid, testing::LibmSigmoid(xs[j]));
    tanh.Add(got_tanh, testing::LibmTanh(xs[j]));
  }
  EXPECT_LE(sigmoid.abs, testing::kAbsBound);
  EXPECT_LE(sigmoid.rel, testing::kRelBound);
  EXPECT_LE(tanh.abs, testing::kAbsBound);
  EXPECT_LE(tanh.rel, testing::kRelBound);

  // Odd and saturating where libm is.
  const float inf = std::numeric_limits<float>::infinity();
  const CellOutputs edges = PatternCell({-0.0f, inf, -inf}).RunOneLane();
  EXPECT_EQ(edges.act[0], 0.5f);  // sigmoid(-0)
  EXPECT_EQ(edges.act[1], 1.0f);
  EXPECT_EQ(edges.act[2], 0.0f);
  EXPECT_EQ(std::bit_cast<uint32_t>(edges.act[6]),
            std::bit_cast<uint32_t>(-0.0f));  // tanh(-0)
  EXPECT_EQ(edges.act[7], 1.0f);
  EXPECT_EQ(edges.act[8], -1.0f);
}

/// The recorded (training) and the inference forward of an Lstm on one
/// input; H = 13 runs one vector block and a five-unit tail per row.
void RunBothForwards(nn::Lstm* lstm, const Tensor& input, Tensor* recorded,
                     Tensor* inference) {
  Workspace record_ws;
  *recorded = *lstm->RecordForward(input, &record_ws);
  Workspace ws;
  *inference = *lstm->Forward(input, &ws);
}

TEST_F(LstmCellKernelTest, NanWeightOrInputReachesH) {
  // A clamp with its operands swapped, max(x, lo) or min(x, hi), returns
  // the bound for a NaN x and turns a NaN weight into a finite h;
  // TrainGuard's non-finite-loss check needs the NaN to reach the output.
  for (SimdIsa rung : kRungs) {
    internal::OverrideIsaForTesting(rung);
    SCOPED_TRACE(IsaName(DetectedIsa()));
    apots::Rng rng(5);
    nn::Lstm lstm(6, 13, /*return_sequences=*/false, &rng);
    const Tensor input = Random({3, 4, 6}, 17);
    Tensor recorded, inference;

    Tensor nan_input = input;
    nan_input[(1 * 4 + 0) * 6 + 2] = std::numeric_limits<float>::quiet_NaN();
    RunBothForwards(&lstm, nan_input, &recorded, &inference);
    for (const Tensor* h : {&recorded, &inference}) {
      for (size_t n = 0; n < 3; ++n) {
        for (size_t j = 0; j < 13; ++j) {
          EXPECT_EQ(std::isnan(h->At(n, j)), n == 1) << n << "," << j;
        }
      }
    }

    // Unit 0's input-gate column: a lane of the vector block. After one
    // step the recurrence carries the NaN to every unit.
    lstm.Parameters()[0]->value[0] = std::numeric_limits<float>::quiet_NaN();
    RunBothForwards(&lstm, input, &recorded, &inference);
    for (const Tensor* h : {&recorded, &inference}) {
      for (size_t i = 0; i < h->size(); ++i) {
        EXPECT_TRUE(std::isnan((*h)[i])) << i;
      }
    }
  }
}

// The row counts put the gate products on both sides of the 16-row panel
// threshold; 192 is an adversarial round's batch.
TEST_F(LstmCellKernelTest, RecordedForwardMatchesInferenceForward) {
  for (size_t rows : {5u, 15u, 16u, 17u, 192u}) {
    for (bool sequences : {false, true}) {
      for (SimdIsa rung : kRungs) {
        internal::OverrideIsaForTesting(rung);
        SCOPED_TRACE(::testing::Message() << IsaName(DetectedIsa()) << " rows "
                                          << rows << " sequences "
                                          << sequences);
        apots::Rng rng(9);
        nn::Lstm lstm(6, 13, sequences, &rng);
        Tensor recorded, inference;
        RunBothForwards(&lstm, Random({rows, 7, 6}, 23), &recorded,
                        &inference);
        ExpectSameBits(inference, recorded, "inference vs recorded");
      }
    }
  }
}

// AddProduct, the one kernel of every weight and bias gradient, returns
// AddInPlace(out, reference product)'s bits at every rung and row count:
// the accumulating panels in FMA builds, the tiles elsewhere. The left
// operand is read three ways (row-major, transposed, a row of ones) and
// the right one packed from a row-major or a transposed matrix; the rows
// cross every tail of the 8- and 16-row accumulating tiles and the
// columns both one and two 16-column panels.
TEST_F(KernelEquivalenceEdgeTest, AddProductAddsTheReferenceProduct) {
  for (SimdIsa rung : kRungs) {
    internal::OverrideIsaForTesting(rung);
    for (size_t m : {1u, 4u, 9u, 15u, 16u, 17u, 64u, 104u}) {
      for (size_t k : {1u, 7u, 156u}) {
        for (size_t n : {1u, 9u, 16u, 17u, 36u, 40u, 256u}) {
          const uint64_t seed = m * 1000 + k * 10 + n;
          const Tensor a = Random({m, k}, seed);
          const Tensor at = Random({k, m}, seed + 1);
          const Tensor b = Random({k, n}, seed + 2);
          const Tensor bt = Random({n, k}, seed + 3);
          const Tensor start = Random({m, n}, seed + 4);
          Tensor storage;
          const auto add = [&](const Tensor& product) {
            Tensor want = start;
            for (size_t i = 0; i < want.size(); ++i) want[i] += product[i];
            return want;
          };
          Tensor out = start;
          AddProduct(StridedMatrix::Of(a),
                     PrepareSumRhs(StridedMatrix::Of(b), &storage), &out);
          ExpectBitwise(add(reference::Matmul(a, b)), out, "a b");
          out = start;
          AddProduct(StridedMatrix::TransposeOf(at),
                     PrepareSumRhs(StridedMatrix::TransposeOf(bt), &storage),
                     &out);
          ExpectBitwise(add(reference::Matmul(Transpose(at), Transpose(bt))),
                        out, "a^T b^T");
          Tensor sums = Random({1, n}, seed + 5);
          Tensor want = sums;
          for (size_t kk = 0; kk < k; ++kk) {
            Tensor row({1, n});
            for (size_t j = 0; j < n; ++j) row[j] = b.At(kk, j);
            if (kk == 0) {
              want = row;
            } else {
              for (size_t j = 0; j < n; ++j) want[j] += row[j];
            }
          }
          for (size_t j = 0; j < n; ++j) want[j] = sums[j] + want[j];
          AddProduct(StridedMatrix::Ones(k),
                     PrepareSumRhs(StridedMatrix::Of(b), &storage), &sums);
          ExpectBitwise(want, sums, "column sums");
        }
      }
    }
  }
}

// The gate-gradient pass: every rung returns the scalar rung's bits, at
// hidden sizes with and without a vector tail, with and without the
// step's output gradient, and with dc updated in place.
TEST_F(LstmCellKernelTest, GateGradientRungsMatchTheScalarLoop) {
  for (size_t hidden : {3u, 13u, 64u}) {
    for (bool with_output : {false, true}) {
      const size_t rows = 5;
      Tensor act = Random({rows, 4 * hidden}, 40 + hidden);
      for (size_t i = 0; i < act.size(); ++i) act[i] = 0.5f * act[i] + 0.5f;
      const Tensor tanh_c = Random({rows, hidden}, 41 + hidden);
      const Tensor c_prev = Random({rows, hidden}, 42 + hidden);
      const Tensor dh_next = Random({rows, hidden}, 43 + hidden);
      const Tensor grad_h = Random({rows, 3 * hidden}, 44 + hidden);
      const Tensor dc_in = Random({rows, hidden}, 45 + hidden);
      std::vector<Tensor> dc, dgates;
      for (SimdIsa rung : kRungs) {
        internal::OverrideIsaForTesting(rung);
        dc.push_back(dc_in);
        dgates.push_back(Tensor({rows, 4 * hidden}));
        LstmCellBackward(act, tanh_c, c_prev, dh_next,
                         with_output ? grad_h.data() + hidden : nullptr,
                         3 * hidden, &dc.back(), &dgates.back());
      }
      for (size_t r = 1; r < dc.size(); ++r) {
        ExpectSameBits(dc[0], dc[r], "dc");
        ExpectSameBits(dgates[0], dgates[r], "dgates");
      }
    }
  }
}

}  // namespace
}  // namespace apots::tensor
