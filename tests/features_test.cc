#include "data/features.h"

#include <gtest/gtest.h>

#include "traffic/dataset_generator.h"

namespace apots::data {
namespace {

using apots::tensor::Tensor;
using apots::traffic::DatasetSpec;
using apots::traffic::GenerateDataset;
using apots::traffic::TrafficDataset;

const TrafficDataset& SharedDataset() {
  static const TrafficDataset* dataset =
      new TrafficDataset(GenerateDataset(DatasetSpec::Small(41)));
  return *dataset;
}

FeatureConfig SmallConfig(FeatureConfig base) {
  base.num_adjacent = 1;  // the small dataset has 3 roads
  base.beta = 3;
  return base;
}

TEST(FeatureAssemblerTest, RowLayoutAndWidth) {
  FeatureAssembler assembler(&SharedDataset(),
                             SmallConfig(FeatureConfig::Both()));
  assembler.Fit();
  // 2m+1 = 3 speed rows + 8 context rows.
  EXPECT_EQ(assembler.NumRows(), 11);
  EXPECT_EQ(assembler.FlatWidth(), 11 * 12);
  EXPECT_EQ(assembler.target_road(), 1);
}

TEST(FeatureAssemblerTest, SpeedRowsMatchDataset) {
  const auto& d = SharedDataset();
  FeatureAssembler assembler(&d, SmallConfig(FeatureConfig::Both()));
  assembler.Fit();
  const long anchor = 500;
  const Tensor matrix = assembler.BatchMatrix({anchor});
  for (int road = 0; road < 3; ++road) {
    for (int i = 0; i < 12; ++i) {
      const float expected =
          assembler.ScaleSpeed(d.Speed(road, anchor - 12 + i));
      EXPECT_FLOAT_EQ(matrix.At3(0, road, i), expected);
    }
  }
}

TEST(FeatureAssemblerTest, SpeedOnlyZeroFillsEverythingElse) {
  const auto& d = SharedDataset();
  FeatureAssembler assembler(&d, SmallConfig(FeatureConfig::SpeedOnly()));
  assembler.Fit();
  const Tensor matrix = assembler.BatchMatrix({400});
  // Adjacent rows (0 and 2) and all context rows must be zero.
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(matrix.At3(0, 0, i), 0.0f);
    EXPECT_EQ(matrix.At3(0, 2, i), 0.0f);
    for (int row = 3; row < 11; ++row) {
      EXPECT_EQ(matrix.At3(0, row, i), 0.0f) << row;
    }
  }
  // Target row still carries data.
  float target_sum = 0.0f;
  for (int i = 0; i < 12; ++i) target_sum += matrix.At3(0, 1, i);
  EXPECT_GT(target_sum, 0.0f);
}

TEST(FeatureAssemblerTest, FixedInputSizeAcrossConfigs) {
  // The Fig. 5 protocol: every ablation arm has the same tensor shape.
  const auto& d = SharedDataset();
  for (FeatureConfig config :
       {FeatureConfig::SpeedOnly(), FeatureConfig::AdjacentOnly(),
        FeatureConfig::NonSpeedOnly(), FeatureConfig::Both()}) {
    FeatureAssembler assembler(&d, SmallConfig(config));
    assembler.Fit();
    EXPECT_EQ(assembler.NumRows(), 11);
  }
}

TEST(FeatureAssemblerTest, HourRowNormalized) {
  const auto& d = SharedDataset();
  FeatureAssembler assembler(&d, SmallConfig(FeatureConfig::Both()));
  assembler.Fit();
  const long anchor = 700;
  const Tensor matrix = assembler.BatchMatrix({anchor});
  const int hour_row = 3 + 3;  // speeds(3) + event + temp + precip
  for (int i = 0; i < 12; ++i) {
    const float expected =
        static_cast<float>(d.FractionalHour(anchor - 12 + i) / 24.0);
    EXPECT_FLOAT_EQ(matrix.At3(0, hour_row, i), expected);
    EXPECT_GE(matrix.At3(0, hour_row, i), 0.0f);
    EXPECT_LT(matrix.At3(0, hour_row, i), 1.0f);
  }
}

TEST(FeatureAssemblerTest, DayTypeBroadcastConstant) {
  const auto& d = SharedDataset();
  FeatureAssembler assembler(&d, SmallConfig(FeatureConfig::Both()));
  assembler.Fit();
  const Tensor matrix = assembler.BatchMatrix({600});
  for (int k = 0; k < 4; ++k) {
    const int row = 3 + 4 + k;
    const float first = matrix.At3(0, row, 0);
    for (int i = 1; i < 12; ++i) {
      EXPECT_EQ(matrix.At3(0, row, i), first);
    }
    EXPECT_TRUE(first == 0.0f || first == 1.0f);
  }
}

TEST(FeatureAssemblerTest, ContextFeaturesInUnitRange) {
  const auto& d = SharedDataset();
  FeatureAssembler assembler(&d, SmallConfig(FeatureConfig::Both()));
  assembler.Fit();
  for (long anchor : {20L, 500L, 2000L, 3500L}) {
    const Tensor matrix = assembler.BatchMatrix({anchor});
    for (int row = 3; row < 11; ++row) {
      for (int i = 0; i < 12; ++i) {
        EXPECT_GE(matrix.At3(0, row, i), -0.1f);
        EXPECT_LE(matrix.At3(0, row, i), 1.1f);
      }
    }
  }
}

TEST(FeatureAssemblerTest, TargetIsScaledFutureSpeed) {
  const auto& d = SharedDataset();
  FeatureAssembler assembler(&d, SmallConfig(FeatureConfig::Both()));
  assembler.Fit();
  const long anchor = 900;
  const float target = assembler.Target(anchor);
  EXPECT_FLOAT_EQ(assembler.UnscaleSpeed(target), d.Speed(1, anchor + 3));
}

TEST(FeatureAssemblerTest, RealSequenceCoversPaperWindow) {
  // S_{t-alpha+beta+1 : t+beta}: last element is the target instant.
  const auto& d = SharedDataset();
  FeatureAssembler assembler(&d, SmallConfig(FeatureConfig::Both()));
  assembler.Fit();
  const long anchor = 900;
  const Tensor seq = assembler.RealSequence(anchor);
  ASSERT_EQ(seq.size(), 12u);
  EXPECT_FLOAT_EQ(assembler.UnscaleSpeed(seq[11]), d.Speed(1, anchor + 3));
  EXPECT_FLOAT_EQ(assembler.UnscaleSpeed(seq[0]),
                  d.Speed(1, anchor - 12 + 3 + 1));
}

TEST(FeatureAssemblerTest, BatchMatchesSingles) {
  const auto& d = SharedDataset();
  FeatureAssembler assembler(&d, SmallConfig(FeatureConfig::Both()));
  assembler.Fit();
  const std::vector<long> anchors = {100, 200, 300};
  const Tensor batch = assembler.BatchMatrix(anchors);
  EXPECT_EQ(batch.dim(0), 3u);
  for (size_t n = 0; n < anchors.size(); ++n) {
    const Tensor single = assembler.BatchMatrix({anchors[n]});
    for (size_t i = 0; i < single.size(); ++i) {
      EXPECT_EQ(batch[n * single.size() + i], single[i]);
    }
  }
  const Tensor targets = assembler.BatchTargets(anchors);
  for (size_t n = 0; n < anchors.size(); ++n) {
    EXPECT_FLOAT_EQ(targets[n], assembler.Target(anchors[n]));
  }
}

TEST(FeatureAssemblerTest, ContextZeroesTargetRow) {
  const auto& d = SharedDataset();
  FeatureAssembler assembler(&d, SmallConfig(FeatureConfig::Both()));
  assembler.Fit();
  const std::vector<long> anchors = {150, 250};
  const Tensor context = assembler.BatchContext(anchors);
  EXPECT_EQ(context.dim(0), 2u);
  EXPECT_EQ(context.dim(1), static_cast<size_t>(assembler.FlatWidth()));
  // Row 1 (target) must be zero; row 0 (upstream) must carry speeds.
  for (size_t n = 0; n < 2; ++n) {
    float target_sum = 0.0f, upstream_sum = 0.0f;
    for (int i = 0; i < 12; ++i) {
      target_sum += context[n * 11 * 12 + 1 * 12 + i];
      upstream_sum += context[n * 11 * 12 + 0 * 12 + i];
    }
    EXPECT_EQ(target_sum, 0.0f);
    EXPECT_GT(upstream_sum, 0.0f);
  }
}

TEST(FeatureConfigTest, PresetsToggleExpectedBlocks) {
  const FeatureConfig speed = FeatureConfig::SpeedOnly();
  EXPECT_FALSE(speed.use_adjacent);
  EXPECT_FALSE(speed.use_event);
  EXPECT_FALSE(speed.use_weather);
  EXPECT_FALSE(speed.use_time);
  const FeatureConfig adjacent = FeatureConfig::AdjacentOnly();
  EXPECT_TRUE(adjacent.use_adjacent);
  EXPECT_FALSE(adjacent.use_time);
  const FeatureConfig non_speed = FeatureConfig::NonSpeedOnly();
  EXPECT_FALSE(non_speed.use_adjacent);
  EXPECT_TRUE(non_speed.use_event);
  EXPECT_TRUE(non_speed.use_weather);
  EXPECT_TRUE(non_speed.use_time);
  const FeatureConfig both = FeatureConfig::Both();
  EXPECT_TRUE(both.use_adjacent);
  EXPECT_TRUE(both.use_time);
}

}  // namespace
}  // namespace apots::data
