#include "tensor/tensor_ops.h"

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace apots::tensor {
namespace {

Tensor Random(std::vector<size_t> shape, uint64_t seed) {
  Tensor t(std::move(shape));
  apots::Rng rng(seed);
  FillUniform(&t, &rng, -1.0f, 1.0f);
  return t;
}

// Reference O(n^3) matmul with a different loop order.
Tensor NaiveMatmul(const Tensor& a, const Tensor& b) {
  Tensor out({a.rows(), b.cols()});
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) {
        acc += static_cast<double>(a.At(i, k)) * b.At(k, j);
      }
      out.At(i, j) = static_cast<float>(acc);
    }
  }
  return out;
}

void ExpectNear(const Tensor& a, const Tensor& b, float tolerance = 1e-4f) {
  ASSERT_TRUE(a.SameShape(b)) << a.ShapeString() << " vs " << b.ShapeString();
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], tolerance) << "at " << i;
  }
}

TEST(ElementwiseTest, AddAndScale) {
  const Tensor a = Tensor::FromVector({1, 2, 3});
  const Tensor b = Tensor::FromVector({4, 5, 6});
  ExpectNear(Add(a, b), Tensor::FromVector({5, 7, 9}));
  ExpectNear(Scale(a, 2.0f), Tensor::FromVector({2, 4, 6}));
}

TEST(ElementwiseTest, InPlaceVariants) {
  Tensor a = Tensor::FromVector({1, 2});
  AddInPlace(&a, Tensor::FromVector({10, 20}));
  ExpectNear(a, Tensor::FromVector({11, 22}));
  Axpy(&a, Tensor::FromVector({1, 1}), -11.0f);
  ExpectNear(a, Tensor::FromVector({0, 11}));
}

TEST(MatmulTest, KnownSmallProduct) {
  const Tensor a = Tensor::FromMatrix(2, 2, {1, 2, 3, 4});
  const Tensor b = Tensor::FromMatrix(2, 2, {5, 6, 7, 8});
  ExpectNear(Matmul(a, b), Tensor::FromMatrix(2, 2, {19, 22, 43, 50}));
}

class MatmulShapeSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(MatmulShapeSweep, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  const Tensor a = Random({m, k}, 1);
  const Tensor b = Random({k, n}, 2);
  ExpectNear(Matmul(a, b), NaiveMatmul(a, b));
}

TEST_P(MatmulShapeSweep, TransposeAMatchesExplicit) {
  const auto [m, k, n] = GetParam();
  const Tensor at = Random({k, m}, 3);  // a^T stored as [k, m]
  const Tensor b = Random({k, n}, 4);
  ExpectNear(MatmulTransposeA(at, b), Matmul(Transpose(at), b));
}

TEST_P(MatmulShapeSweep, TransposeBMatchesExplicit) {
  const auto [m, k, n] = GetParam();
  const Tensor a = Random({m, k}, 5);
  const Tensor bt = Random({n, k}, 6);  // b^T stored as [n, k]
  ExpectNear(MatmulTransposeB(a, bt), Matmul(a, Transpose(bt)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulShapeSweep,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 5, 3), std::make_tuple(16, 16, 16),
                      std::make_tuple(1, 32, 8), std::make_tuple(33, 17, 9)));

TEST(TransposeTest, InvolutionAndValues) {
  const Tensor a = Random({4, 7}, 7);
  ExpectNear(Transpose(Transpose(a)), a);
  EXPECT_FLOAT_EQ(Transpose(a).At(3, 2), a.At(2, 3));
}

TEST(Transpose12Test, SwapsLastTwoAxes) {
  const Tensor a = Random({2, 3, 5}, 8);
  const Tensor t = Transpose12(a);
  EXPECT_EQ(t.dim(0), 2u);
  EXPECT_EQ(t.dim(1), 5u);
  EXPECT_EQ(t.dim(2), 3u);
  for (size_t n = 0; n < 2; ++n) {
    for (size_t i = 0; i < 3; ++i) {
      for (size_t j = 0; j < 5; ++j) {
        EXPECT_FLOAT_EQ(t.At3(n, j, i), a.At3(n, i, j));
      }
    }
  }
  ExpectNear(Transpose12(t), a);
}

// A bias gradient is a product with a row of ones, added into the bias.
TEST(RowOpsTest, AddRowBiasAndColumnSums) {
  Tensor m = Tensor::FromMatrix(2, 3, {1, 2, 3, 4, 5, 6});
  AddRowBias(&m, Tensor::FromVector({10, 20, 30}));
  ExpectNear(m, Tensor::FromMatrix(2, 3, {11, 22, 33, 14, 25, 36}));
  Tensor sums = Tensor::FromMatrix(1, 3, {1, 1, 1});
  Tensor storage;
  AddProduct(StridedMatrix::Ones(2),
             PrepareSumRhs(StridedMatrix::Of(m), &storage), &sums);
  ExpectNear(sums, Tensor::FromMatrix(1, 3, {26, 48, 70}));
}

TEST(FillTest, UniformWithinBoundsNormalCentered) {
  Tensor t({10000});
  apots::Rng rng(9);
  FillUniform(&t, &rng, 2.0f, 3.0f);
  for (size_t i = 0; i < t.size(); ++i) {
    ASSERT_GE(t[i], 2.0f);
    ASSERT_LT(t[i], 3.0f);
  }
  FillNormal(&t, &rng, 0.0f, 1.0f);
  double sum = 0.0;
  for (size_t i = 0; i < t.size(); ++i) sum += t[i];
  EXPECT_NEAR(sum / static_cast<double>(t.size()), 0.0, 0.05);
}

TEST(Im2ColTest, IdentityKernelNoPadding) {
  // 1x1 kernel, no padding: the columns are the channel-major batch itself
  // (2 channels, 3 samples of 3x4).
  const Tensor batch = Random({2, 3 * 12}, 10);
  const Tensor cols = Im2Col(batch, 3, 4, 1);
  EXPECT_EQ(cols.rows(), 2u);
  EXPECT_EQ(cols.cols(), 36u);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_FLOAT_EQ(cols[i], batch[i]);
  }
}

TEST(Im2ColTest, KnownPatchExtraction) {
  // Two 1-channel 3x3 images side by side, 3x3 kernel, pad 1 -> 9 rows of
  // 2 x 9 columns. The second image is the first plus 10.
  Tensor batch({1, 18});
  for (size_t i = 0; i < 9; ++i) {
    batch[i] = static_cast<float>(i + 1);
    batch[9 + i] = static_cast<float>(i + 11);
  }
  const Tensor cols = Im2Col(batch, 3, 3, 3);
  EXPECT_EQ(cols.rows(), 9u);
  EXPECT_EQ(cols.cols(), 18u);
  for (size_t n = 0; n < 2; ++n) {
    // Output pixel (1,1) = centre: its receptive field is the whole image.
    const size_t centre = n * 9 + 1 * 3 + 1;
    for (size_t k = 0; k < 9; ++k) {
      EXPECT_FLOAT_EQ(cols.At(k, centre), static_cast<float>(10 * n + k + 1));
    }
    // Output pixel (0,0): top-left kernel tap is padding (zero) ...
    EXPECT_FLOAT_EQ(cols.At(0, n * 9), 0.0f);
    // ... and its centre tap is image(0,0).
    EXPECT_FLOAT_EQ(cols.At(4, n * 9), static_cast<float>(10 * n + 1));
  }
}

class Im2ColShapeSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t,
                                                 size_t, size_t>> {};

// Adjoint property: <Im2Col(x), y> == <x, Col2Im(y)> for all x, y — this
// pins Col2Im as the exact gradient of Im2Col. Over a channel-major batch
// of 3 samples.
TEST_P(Im2ColShapeSweep, Col2ImIsAdjoint) {
  const auto [channels, height, width, k, pad] = GetParam();
  ASSERT_EQ(pad, k / 2);  // Im2Col pads for "same" output
  const Tensor x = Random({channels, 3 * height * width}, 11);
  const Tensor ix = Im2Col(x, height, width, k);
  const Tensor y = Random(ix.shape(), 12);
  const Tensor cy = Col2Im(y, channels, height, width, k);
  ASSERT_TRUE(cy.SameShape(x));
  double lhs = 0.0, rhs = 0.0;
  for (size_t i = 0; i < ix.size(); ++i) {
    lhs += static_cast<double>(ix[i]) * y[i];
  }
  for (size_t i = 0; i < x.size(); ++i) {
    rhs += static_cast<double>(x[i]) * cy[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::max(1.0, std::fabs(lhs)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Im2ColShapeSweep,
    ::testing::Values(std::make_tuple(1, 3, 3, 3, 1),
                      std::make_tuple(2, 5, 4, 3, 1),
                      std::make_tuple(3, 13, 12, 3, 1),
                      std::make_tuple(4, 6, 6, 1, 0),
                      std::make_tuple(2, 7, 5, 5, 2)));

}  // namespace
}  // namespace apots::tensor
