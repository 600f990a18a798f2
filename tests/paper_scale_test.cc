// Sanity checks at the paper's Table-I scale: the full-width architectures
// must instantiate and run a forward/backward pass (the experiment benches
// exercise them only under APOTS_EVAL_PROFILE=paper, which is too slow for
// CI). Batch sizes are tiny; this is a structural test, not a training
// test.

#include <cmath>

#include <gtest/gtest.h>

#include "core/apots_model.h"
#include "core/discriminator.h"
#include "core/predictor.h"
#include "tensor/tensor_ops.h"

namespace apots::core {
namespace {

using apots::tensor::Tensor;

constexpr size_t kRows = 13;   // 5 roads + 8 context rows
constexpr size_t kAlpha = 12;

Tensor Random(std::vector<size_t> shape, uint64_t seed) {
  Tensor t(std::move(shape));
  apots::Rng rng(seed);
  apots::tensor::FillUniform(&t, &rng, 0.0f, 1.0f);
  return t;
}

class PaperScaleSweep : public ::testing::TestWithParam<PredictorType> {};

TEST_P(PaperScaleSweep, ForwardBackwardAtTableIWidths) {
  apots::Rng rng(1);
  auto predictor =
      MakePredictor(PredictorHparams::Paper(GetParam()), kRows, kAlpha,
                    &rng);
  const Tensor input = Random({2, kRows, kAlpha}, 2);
  const Tensor out = predictor->Forward(input, true);
  ASSERT_EQ(out.rows(), 2u);
  ASSERT_EQ(out.cols(), 1u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(std::isfinite(out[i]));
  }
  const Tensor grad = predictor->Backward(Random({2, 1}, 3));
  EXPECT_TRUE(grad.SameShape(input));
}

TEST_P(PaperScaleSweep, WeightCountsAreSubstantial) {
  apots::Rng rng(4);
  auto paper = MakePredictor(PredictorHparams::Paper(GetParam()), kRows,
                             kAlpha, &rng);
  auto scaled = MakePredictor(PredictorHparams::Scaled(GetParam(), 8),
                              kRows, kAlpha, &rng);
  // The paper-scale model must be far larger than the 1/8 variant.
  EXPECT_GT(apots::nn::CountWeights(paper->Parameters()),
            10 * apots::nn::CountWeights(scaled->Parameters()));
}

INSTANTIATE_TEST_SUITE_P(Families, PaperScaleSweep,
                         ::testing::Values(PredictorType::kFc,
                                           PredictorType::kLstm,
                                           PredictorType::kCnn,
                                           PredictorType::kHybrid));

TEST(PaperScaleTest, FcWeightCountMatchesTableI) {
  // F: 156 -> 512 -> 128 -> 256 -> 64 -> 1, weights + biases.
  apots::Rng rng(5);
  auto fc = MakePredictor(PredictorHparams::Paper(PredictorType::kFc),
                          kRows, kAlpha, &rng);
  const size_t expected = (156 * 512 + 512) + (512 * 128 + 128) +
                          (128 * 256 + 256) + (256 * 64 + 64) + (64 + 1);
  EXPECT_EQ(apots::nn::CountWeights(fc->Parameters()), expected);
}

TEST(PaperScaleTest, DiscriminatorFullWidthForward) {
  apots::Rng rng(6);
  Discriminator disc(DiscriminatorHparams(), kAlpha, kRows * kAlpha, &rng);
  const Tensor logits = disc.Forward(Random({2, kAlpha}, 7),
                                     Random({2, kRows * kAlpha}, 8));
  EXPECT_EQ(logits.rows(), 2u);
  EXPECT_TRUE(std::isfinite(logits[0]));
}

}  // namespace
}  // namespace apots::core
