#include <cmath>

#include <gtest/gtest.h>

#include "baseline/ar_model.h"
#include "baseline/historical_average.h"
#include "baseline/linreg.h"
#include "baseline/prophet.h"
#include "traffic/dataset_generator.h"
#include "util/rng.h"

namespace apots::baseline {
namespace {

using apots::traffic::Calendar;
using apots::traffic::DatasetSpec;
using apots::traffic::GenerateDataset;
using apots::traffic::TrafficDataset;
using apots::traffic::Weekday;

TEST(CholeskyTest, SolvesKnownSystem) {
  // A = [[4, 2], [2, 3]], b = [10, 8] -> x = [1.75, 1.5].
  std::vector<double> a = {4, 2, 2, 3};
  std::vector<double> b = {10, 8};
  ASSERT_TRUE(CholeskySolve(&a, 2, &b));
  EXPECT_NEAR(b[0], 1.75, 1e-10);
  EXPECT_NEAR(b[1], 1.5, 1e-10);
}

TEST(CholeskyTest, RejectsIndefiniteMatrix) {
  std::vector<double> a = {1, 2, 2, 1};  // eigenvalues 3, -1
  std::vector<double> b = {1, 1};
  EXPECT_FALSE(CholeskySolve(&a, 2, &b));
}

TEST(RidgeTest, RecoversExactLinearModel) {
  // y = 3 x0 - 2 x1 + 1 (intercept as an explicit ones column).
  apots::Rng rng(1);
  const size_t n = 200, p = 3;
  std::vector<double> design(n * p);
  std::vector<double> target(n);
  for (size_t i = 0; i < n; ++i) {
    const double x0 = rng.Uniform(-1, 1), x1 = rng.Uniform(-1, 1);
    design[i * p] = x0;
    design[i * p + 1] = x1;
    design[i * p + 2] = 1.0;
    target[i] = 3.0 * x0 - 2.0 * x1 + 1.0;
  }
  RidgeRegression ridge(1e-6);
  ASSERT_TRUE(ridge.Fit(design, n, p, target).ok());
  EXPECT_NEAR(ridge.weights()[0], 3.0, 1e-3);
  EXPECT_NEAR(ridge.weights()[1], -2.0, 1e-3);
  EXPECT_NEAR(ridge.weights()[2], 1.0, 1e-3);
  const double row[3] = {0.5, 0.5, 1.0};
  EXPECT_NEAR(ridge.Predict(row), 3 * 0.5 - 2 * 0.5 + 1.0, 1e-3);
}

TEST(RidgeTest, RegularizationShrinksWeights) {
  apots::Rng rng(2);
  const size_t n = 50, p = 1;
  std::vector<double> design(n), target(n);
  for (size_t i = 0; i < n; ++i) {
    design[i] = rng.Uniform(-1, 1);
    target[i] = 5.0 * design[i];
  }
  RidgeRegression weak(1e-6), strong(100.0);
  ASSERT_TRUE(weak.Fit(design, n, p, target).ok());
  ASSERT_TRUE(strong.Fit(design, n, p, target).ok());
  EXPECT_GT(std::fabs(weak.weights()[0]), std::fabs(strong.weights()[0]));
}

TEST(RidgeTest, InputValidation) {
  RidgeRegression ridge;
  EXPECT_FALSE(ridge.Fit({1.0, 2.0}, 1, 1, {1.0}).ok());  // size mismatch
  EXPECT_FALSE(ridge.Fit({}, 0, 0, {}).ok());
}

TrafficDataset SyntheticDaily() {
  // 28 deterministic days with a clean daily sine + linear trend so
  // Prophet's components are identifiable, plus a holiday dip.
  Calendar calendar(28, Weekday::kMonday, {14});
  TrafficDataset dataset(1, 28, 96, calendar);
  for (long t = 0; t < dataset.num_intervals(); ++t) {
    const double hour = dataset.FractionalHour(t);
    const double day = static_cast<double>(t) / 96.0;
    double speed = 80.0 + 10.0 * std::sin(2.0 * M_PI * hour / 24.0) +
                   0.1 * day;
    if (dataset.Day(t).is_holiday) speed -= 15.0;
    dataset.SetSpeed(0, t, static_cast<float>(speed));
  }
  return dataset;
}

TEST(ProphetTest, FitsDailyPatternAndTrend) {
  const TrafficDataset dataset = SyntheticDaily();
  std::vector<long> train;
  for (long t = 0; t < 21 * 96; ++t) train.push_back(t);
  Prophet prophet;
  ASSERT_TRUE(prophet.Fit(dataset, 0, train).ok());
  // Held-out non-holiday day: predictions should track the sine closely.
  double max_err = 0.0;
  for (long t = 22 * 96; t < 23 * 96; ++t) {
    max_err = std::max(max_err,
                       std::fabs(prophet.Predict(dataset, t) -
                                 dataset.Speed(0, t)));
  }
  EXPECT_LT(max_err, 3.0);
}

TEST(ProphetTest, CapturesHolidayEffect) {
  const TrafficDataset dataset = SyntheticDaily();
  std::vector<long> train;
  for (long t = 0; t < dataset.num_intervals(); ++t) train.push_back(t);
  Prophet prophet;
  ASSERT_TRUE(prophet.Fit(dataset, 0, train).ok());
  // Holiday (day 14) noon vs a plain Monday (day 7) noon: the model must
  // reproduce most of the 15 km/h dip.
  const long holiday_noon = 14 * 96 + 48;
  const long monday_noon = 7 * 96 + 48;
  const double dip = prophet.Predict(dataset, monday_noon) -
                     prophet.Predict(dataset, holiday_noon);
  EXPECT_GT(dip, 8.0);
}

TEST(ProphetTest, PredictAtAnchorsAppliesBeta) {
  const TrafficDataset dataset = SyntheticDaily();
  std::vector<long> train;
  for (long t = 0; t < dataset.num_intervals(); ++t) train.push_back(t);
  Prophet prophet;
  ASSERT_TRUE(prophet.Fit(dataset, 0, train).ok());
  const auto batch = prophet.PredictAtAnchors(dataset, {100, 200}, 3);
  EXPECT_NEAR(batch[0], prophet.Predict(dataset, 103), 1e-9);
  EXPECT_NEAR(batch[1], prophet.Predict(dataset, 203), 1e-9);
}

TEST(ProphetTest, EmptyTrainRejected) {
  const TrafficDataset dataset = SyntheticDaily();
  Prophet prophet;
  EXPECT_FALSE(prophet.Fit(dataset, 0, {}).ok());
}

TEST(HistoricalAverageTest, LearnsBucketMeans) {
  const TrafficDataset dataset = SyntheticDaily();
  std::vector<long> train;
  for (long t = 0; t < dataset.num_intervals(); ++t) train.push_back(t);
  HistoricalAverage model;
  ASSERT_TRUE(model.Fit(dataset, 0, train).ok());
  // A workday noon prediction should be near the workday noon mean.
  const double predicted = model.Predict(dataset, 7 * 96 + 48);
  EXPECT_NEAR(predicted, 80.0 + 10.0 * std::sin(M_PI) + 1.0, 5.0);
  // Weekend bucket differs from workday bucket at rush time because the
  // holiday dip lands in the weekend/holiday bucket.
  const double wk = model.Predict(dataset, 7 * 96 + 48);   // Monday
  const double hd = model.Predict(dataset, 14 * 96 + 48);  // holiday
  EXPECT_GT(wk, hd);
}

TEST(ArModelTest, RecoversAutoregression) {
  // Synthetic AR(2): s_t = 0.6 s_{t-1} + 0.3 s_{t-2} + 8.
  Calendar calendar(4, Weekday::kMonday, {});
  TrafficDataset dataset(1, 4, 96, calendar);
  dataset.SetSpeed(0, 0, 70.0f);
  dataset.SetSpeed(0, 1, 75.0f);
  apots::Rng rng(3);
  for (long t = 2; t < dataset.num_intervals(); ++t) {
    const double value = 0.6 * dataset.Speed(0, t - 1) +
                         0.3 * dataset.Speed(0, t - 2) + 8.0 +
                         rng.Normal(0.0, 0.5);
    dataset.SetSpeed(0, t, static_cast<float>(value));
  }
  std::vector<long> anchors;
  for (long t = 12; t < dataset.num_intervals() - 1; ++t) anchors.push_back(t);
  ArModel model(/*order=*/2, 1e-6);
  ASSERT_TRUE(model.Fit(dataset, 0, anchors, /*beta=*/0).ok());
  // One-step-ahead predictions should be very accurate.
  double max_err = 0.0;
  for (long t = 100; t < 150; ++t) {
    max_err = std::max(max_err, std::fabs(model.PredictOne(dataset, t) -
                                          dataset.Speed(0, t)));
  }
  EXPECT_LT(max_err, 2.5);
}

TEST(ArModelTest, FitValidation) {
  const TrafficDataset dataset = SyntheticDaily();
  ArModel model(12);
  EXPECT_FALSE(model.Fit(dataset, 0, {}, 1).ok());
  EXPECT_FALSE(model.fitted());
}

TEST(BaselinesOnSimulatedData, ProphetWorseThanAr) {
  // The paper's qualitative claim: a calendar-only statistical model
  // cannot compete with anything that sees the recent window.
  const TrafficDataset dataset = GenerateDataset(DatasetSpec::Small(51));
  std::vector<long> train, test;
  for (long t = 12; t < dataset.num_intervals() - 4; ++t) {
    (t < dataset.num_intervals() * 8 / 10 ? train : test).push_back(t);
  }
  Prophet prophet;
  ASSERT_TRUE(prophet.Fit(dataset, 1, train).ok());
  ArModel ar(12);
  ASSERT_TRUE(ar.Fit(dataset, 1, train, 3).ok());
  double prophet_err = 0.0, ar_err = 0.0;
  for (long t : test) {
    prophet_err += std::fabs(prophet.Predict(dataset, t + 3) -
                             dataset.Speed(1, t + 3));
    ar_err += std::fabs(ar.PredictOne(dataset, t) - dataset.Speed(1, t + 3));
  }
  EXPECT_GT(prophet_err, ar_err);
}

}  // namespace
}  // namespace apots::baseline
