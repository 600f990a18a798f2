#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "data/scaler.h"
#include "data/windowing.h"
#include "traffic/dataset_generator.h"

namespace apots::data {
namespace {

using apots::traffic::DatasetSpec;
using apots::traffic::GenerateDataset;
using apots::traffic::TrafficDataset;

TEST(MinMaxScalerTest, TransformInverseRoundtrip) {
  MinMaxScaler scaler;
  scaler.SetRange(0.0f, 110.0f);
  EXPECT_FLOAT_EQ(scaler.Transform(0.0f), 0.0f);
  EXPECT_FLOAT_EQ(scaler.Transform(110.0f), 1.0f);
  EXPECT_NEAR(scaler.Inverse(scaler.Transform(73.5f)), 73.5f, 1e-4f);
}

TEST(MinMaxScalerTest, FitFindsRange) {
  MinMaxScaler scaler;
  scaler.Fit({3.0f, -1.0f, 7.0f, 2.0f});
  EXPECT_FLOAT_EQ(scaler.min_value(), -1.0f);
  EXPECT_FLOAT_EQ(scaler.max_value(), 7.0f);
}

TEST(MinMaxScalerTest, OutOfRangeValuesMapOutside) {
  MinMaxScaler scaler;
  scaler.SetRange(0.0f, 10.0f);
  EXPECT_GT(scaler.Transform(15.0f), 1.0f);
  EXPECT_LT(scaler.Transform(-5.0f), 0.0f);
}

class ScalerRoundtripSweep : public ::testing::TestWithParam<float> {};

TEST_P(ScalerRoundtripSweep, BothScalersInvert) {
  MinMaxScaler minmax;
  minmax.SetRange(-50.0f, 150.0f);
  const float v = GetParam();
  EXPECT_NEAR(minmax.Inverse(minmax.Transform(v)), v, 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Values, ScalerRoundtripSweep,
                         ::testing::Values(-45.0f, 0.0f, 0.001f, 42.0f,
                                           110.0f, 149.9f));

const TrafficDataset& SharedDataset() {
  static const TrafficDataset* dataset =
      new TrafficDataset(GenerateDataset(DatasetSpec::Small(31)));
  return *dataset;
}

TEST(WindowingTest, BlockedSplitAnchorsValid) {
  const auto& d = SharedDataset();
  const int alpha = 12, beta = 3;
  const auto split =
      MakeSplit(d, alpha, beta, 0.2, SplitStrategy::kBlockedByDay, 1);
  EXPECT_FALSE(split.train.empty());
  EXPECT_FALSE(split.test.empty());
  for (long anchor : split.train) {
    EXPECT_GE(anchor - alpha, 0);
    EXPECT_LT(anchor + beta, d.num_intervals());
  }
  for (long anchor : split.test) {
    EXPECT_GE(anchor - alpha, 0);
    EXPECT_LT(anchor + beta, d.num_intervals());
  }
}

TEST(WindowingTest, BlockedSplitDisjointAndTrainAvoidsTestDays) {
  const auto& d = SharedDataset();
  const int alpha = 12, beta = 3;
  const auto split =
      MakeSplit(d, alpha, beta, 0.2, SplitStrategy::kBlockedByDay, 2);
  std::set<long> test_set(split.test.begin(), split.test.end());
  for (long anchor : split.train) {
    EXPECT_EQ(test_set.count(anchor), 0u);
  }
  // The paper's discard is train-sided: no training window may include
  // any interval of a test day. (Test windows may reach back into train
  // days for their inputs — those targets were never trained on.)
  const int ipd = d.intervals_per_day();
  std::set<int> test_days;
  for (long anchor : split.test) {
    test_days.insert(static_cast<int>(anchor / ipd));
  }
  for (long anchor : split.train) {
    for (long t = anchor - alpha; t <= anchor + beta; ++t) {
      EXPECT_EQ(test_days.count(static_cast<int>(t / ipd)), 0u)
          << "train window of " << anchor << " touches test day";
    }
  }
}

TEST(WindowingTest, BlockedSplitRespectsTestFraction) {
  const auto& d = SharedDataset();
  const auto split =
      MakeSplit(d, 12, 3, 0.2, SplitStrategy::kBlockedByDay, 3);
  const double total =
      static_cast<double>(split.train.size() + split.test.size());
  const double fraction = split.test.size() / total;
  EXPECT_GT(fraction, 0.1);
  EXPECT_LT(fraction, 0.35);
}

TEST(WindowingTest, DeterministicInSeed) {
  const auto& d = SharedDataset();
  const auto a = MakeSplit(d, 12, 3, 0.2, SplitStrategy::kBlockedByDay, 7);
  const auto b = MakeSplit(d, 12, 3, 0.2, SplitStrategy::kBlockedByDay, 7);
  EXPECT_EQ(a.train, b.train);
  EXPECT_EQ(a.test, b.test);
  const auto c = MakeSplit(d, 12, 3, 0.2, SplitStrategy::kBlockedByDay, 8);
  EXPECT_NE(a.test, c.test);
}

TEST(WindowingTest, RandomStrategyDiscardsOverlaps) {
  const auto& d = SharedDataset();
  const int alpha = 12, beta = 3;
  const auto split =
      MakeSplit(d, alpha, beta, 0.1, SplitStrategy::kRandomAnchors, 4);
  std::vector<long> sorted_test = split.test;
  std::sort(sorted_test.begin(), sorted_test.end());
  for (long anchor : split.train) {
    auto it = std::lower_bound(sorted_test.begin(), sorted_test.end(),
                               anchor - (alpha + beta));
    if (it != sorted_test.end()) {
      EXPECT_GT(*it, anchor + alpha + beta);
    }
  }
}

TEST(DiscardOverlappingTest, ExactRadius) {
  // Windows intersect iff |a - b| <= alpha + beta.
  const std::vector<long> anchors = {100, 116, 117, 84, 83};
  const std::vector<long> reference = {100};
  const auto kept = DiscardOverlapping(anchors, reference, 12, 4);
  // Radius 16: 100, 116, 84 overlap; 117 and 83 survive.
  EXPECT_EQ(kept, (std::vector<long>{117, 83}));
}

TEST(DiscardOverlappingTest, EmptyReferenceKeepsAll) {
  const std::vector<long> anchors = {1, 2, 3};
  EXPECT_EQ(DiscardOverlapping(anchors, {}, 12, 1), anchors);
}

}  // namespace
}  // namespace apots::data
