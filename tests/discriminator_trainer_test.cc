#include <gtest/gtest.h>

#include "core/adversarial_trainer.h"
#include "core/discriminator.h"
#include "core/fc_predictor.h"
#include "data/features.h"
#include "data/windowing.h"
#include "nn/loss.h"
#include "tensor/tensor_ops.h"
#include "traffic/dataset_generator.h"

namespace apots::core {
namespace {

using apots::data::FeatureAssembler;
using apots::data::FeatureConfig;
using apots::tensor::Tensor;
using apots::traffic::DatasetSpec;
using apots::traffic::GenerateDataset;
using apots::traffic::TrafficDataset;

Tensor Random(std::vector<size_t> shape, uint64_t seed) {
  Tensor t(std::move(shape));
  apots::Rng rng(seed);
  apots::tensor::FillUniform(&t, &rng, -1.0f, 1.0f);
  return t;
}

TEST(DiscriminatorTest, LogitShape) {
  apots::Rng rng(1);
  Discriminator disc(DiscriminatorHparams::Scaled(8), 12, 20, &rng);
  const Tensor out =
      disc.Forward(Random({5, 12}, 2), Random({5, 20}, 3));
  EXPECT_EQ(out.rows(), 5u);
  EXPECT_EQ(out.cols(), 1u);
}

TEST(DiscriminatorTest, UnconditionedWhenContextWidthZero) {
  apots::Rng rng(4);
  Discriminator disc(DiscriminatorHparams::Scaled(8), 12, 0, &rng);
  const Tensor out = disc.Forward(Random({3, 12}, 5), Tensor());
  EXPECT_EQ(out.rows(), 3u);
}

TEST(DiscriminatorTest, BackwardReturnsSequenceGradientOnly) {
  apots::Rng rng(6);
  Discriminator disc(DiscriminatorHparams::Scaled(8), 12, 20, &rng);
  (void)disc.Forward(Random({4, 12}, 7), Random({4, 20}, 8));
  const Tensor grad = disc.Backward(Random({4, 1}, 9));
  EXPECT_EQ(grad.rows(), 4u);
  EXPECT_EQ(grad.cols(), 12u);
}

// D records into its own workspace, which stops growing: a second step at
// the same batch size adds no slots and no floats.
TEST(DiscriminatorTest, SecondStepAddsNoSlotsOrFloats) {
  apots::Rng rng(16);
  Discriminator disc(DiscriminatorHparams::Scaled(8), 12, 20, &rng);
  for (size_t rows : {15u, 16u, 17u, 192u}) {
    size_t slots = 0, floats = 0;
    for (int step = 0; step < 2; ++step) {
      (void)disc.Forward(Random({rows, 12}, 17), Random({rows, 20}, 18));
      (void)disc.Backward(Random({rows, 1}, 19));
      const tensor::Workspace& ws = disc.training_workspace();
      if (step == 1) {
        EXPECT_EQ(ws.capacity_slots(), slots) << rows;
        EXPECT_EQ(ws.capacity_floats(), floats) << rows;
      }
      slots = ws.capacity_slots();
      floats = ws.capacity_floats();
    }
  }
}

TEST(DiscriminatorTest, FiveFullyConnectedLayers) {
  // The paper specifies a 5-FC-layer discriminator: 5 weight+bias pairs.
  apots::Rng rng(10);
  Discriminator disc(DiscriminatorHparams(), 12, 0, &rng);
  EXPECT_EQ(disc.Parameters().size(), 10u);
}

TEST(DiscriminatorTest, CanLearnASimpleSeparation) {
  // Real sequences increase, fake sequences decrease: D must separate
  // them after a few hundred Adam steps.
  apots::Rng rng(11);
  Discriminator disc(DiscriminatorHparams::Scaled(4), 8, 0, &rng);
  apots::nn::Adam opt(0.005f);
  Tensor real({16, 8}), fake({16, 8});
  for (size_t n = 0; n < 16; ++n) {
    for (size_t i = 0; i < 8; ++i) {
      real.At(n, i) = 0.1f * i + 0.01f * n;
      fake.At(n, i) = 0.8f - 0.1f * i + 0.01f * n;
    }
  }
  for (int step = 0; step < 200; ++step) {
    Tensor rl = disc.Forward(real, Tensor());
    auto rloss = apots::nn::BceWithLogitsLoss(rl, Tensor::Full({16, 1}, 1.0f));
    disc.Backward(rloss.grad);
    Tensor fl = disc.Forward(fake, Tensor());
    auto floss = apots::nn::BceWithLogitsLoss(fl, Tensor::Full({16, 1}, 0.0f));
    disc.Backward(floss.grad);
    opt.StepAndZero(disc.Parameters());
  }
  const Tensor rl = disc.Forward(real, Tensor());
  const Tensor fl = disc.Forward(fake, Tensor());
  for (size_t n = 0; n < 16; ++n) {
    EXPECT_GT(rl[n], 0.0f);
    EXPECT_LT(fl[n], 0.0f);
  }
}

class TrainerFixture : public ::testing::Test {
 protected:
  TrainerFixture()
      : dataset_(GenerateDataset(DatasetSpec::Small(61))),
        assembler_(&dataset_, MakeFeatureConfig()) {
    assembler_.Fit();
    auto split = apots::data::MakeSplit(dataset_, 12, 3, 0.2,
                                        apots::data::SplitStrategy::kBlockedByDay,
                                        3);
    train_.assign(split.train.begin(),
                  split.train.begin() + std::min<size_t>(400,
                                                         split.train.size()));
  }

  static FeatureConfig MakeFeatureConfig() {
    FeatureConfig config = FeatureConfig::Both();
    config.num_adjacent = 1;
    config.beta = 3;
    return config;
  }

  TrainConfig MakeTrainConfig(bool adversarial) {
    TrainConfig config;
    config.epochs = 2;
    config.batch_size = 32;
    config.adversarial = adversarial;
    config.adv_period = 2;
    config.adv_batch_size = 8;
    config.adv_warmup_rounds = 1;
    config.seed = 5;
    return config;
  }

  TrafficDataset dataset_;
  FeatureAssembler assembler_;
  std::vector<long> train_;
};

TEST_F(TrainerFixture, MseTrainingReducesLoss) {
  apots::Rng rng(12);
  FcPredictor predictor(PredictorHparams::Scaled(PredictorType::kFc, 16),
                        static_cast<size_t>(assembler_.NumRows()), 12, &rng);
  AdversarialTrainer trainer(&predictor, nullptr, &assembler_,
                             MakeTrainConfig(false));
  const EpochStats first = trainer.RunEpoch(train_);
  EpochStats last = first;
  for (int i = 0; i < 4; ++i) last = trainer.RunEpoch(train_);
  EXPECT_LT(last.mse_loss, first.mse_loss);
}

TEST_F(TrainerFixture, AdversarialEligibilityBoundary) {
  apots::Rng rng(13);
  FcPredictor predictor(PredictorHparams::Scaled(PredictorType::kFc, 16),
                        static_cast<size_t>(assembler_.NumRows()), 12, &rng);
  AdversarialTrainer trainer(&predictor, nullptr, &assembler_,
                             MakeTrainConfig(false));
  // Sub-anchors reach back to anchor - alpha + 1 - alpha = anchor - 23.
  EXPECT_FALSE(trainer.AdversarialEligible(22));
  EXPECT_TRUE(trainer.AdversarialEligible(23));
}

TEST_F(TrainerFixture, PredictedSequencesMatchSinglePredictions) {
  apots::Rng rng(14);
  FcPredictor predictor(PredictorHparams::Scaled(PredictorType::kFc, 16),
                        static_cast<size_t>(assembler_.NumRows()), 12, &rng);
  AdversarialTrainer trainer(&predictor, nullptr, &assembler_,
                             MakeTrainConfig(false));
  const std::vector<long> anchors = {50, 80};
  const Tensor sequences = trainer.PredictedSequences(anchors);
  ASSERT_EQ(sequences.rows(), 2u);
  ASSERT_EQ(sequences.cols(), 12u);
  // Entry (n, i) is the prediction anchored at anchors[n] - 12 + 1 + i.
  for (size_t n = 0; n < anchors.size(); ++n) {
    for (int i = 0; i < 12; ++i) {
      const std::vector<long> sub = {anchors[n] - 12 + 1 + i};
      const Tensor single =
          predictor.Forward(assembler_.BatchMatrix(sub), /*training=*/false);
      EXPECT_NEAR(sequences.At(n, static_cast<size_t>(i)), single[0], 1e-5f);
    }
  }
}

TEST_F(TrainerFixture, AdversarialEpochRunsAndTrainsDiscriminator) {
  apots::Rng rng(15);
  FcPredictor predictor(PredictorHparams::Scaled(PredictorType::kFc, 16),
                        static_cast<size_t>(assembler_.NumRows()), 12, &rng);
  Discriminator disc(DiscriminatorHparams::Scaled(4), 12,
                     static_cast<size_t>(assembler_.FlatWidth()), &rng);
  AdversarialTrainer trainer(&predictor, &disc, &assembler_,
                             MakeTrainConfig(true));
  EpochStats stats;
  for (int i = 0; i < 3; ++i) stats = trainer.RunEpoch(train_);
  EXPECT_GT(stats.loss_d, 0.0);
  EXPECT_GT(stats.adv_loss_p, 0.0);
  // D should have learned something beyond coin flipping on at least one
  // side.
  EXPECT_GT(stats.d_real_accuracy + stats.d_fake_accuracy, 0.8);
}

}  // namespace
}  // namespace apots::core
