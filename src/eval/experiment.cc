#include "eval/experiment.h"

#include <algorithm>

#include "baseline/ar_model.h"
#include "baseline/historical_average.h"
#include "baseline/prophet.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace apots::eval {

using apots::core::ApotsConfig;
using apots::core::ApotsModel;
using apots::core::PredictorHparams;
using apots::core::PredictorTypeName;
using apots::data::FeatureConfig;
using apots::metrics::Segment;

std::string ModelSpec::Label() const {
  const bool add_data = features.use_adjacent || features.use_event ||
                        features.use_weather || features.use_time;
  std::string label;
  if (adversarial && add_data) {
    label = "APOTS ";
  } else if (adversarial) {
    label = "Adv ";
  }
  label += PredictorTypeName(predictor);
  return label;
}

std::vector<long> SubsampleAnchors(const std::vector<long>& anchors,
                                   size_t cap) {
  if (cap == 0 || anchors.size() <= cap) return anchors;
  std::vector<long> out;
  out.reserve(cap);
  const double stride =
      static_cast<double>(anchors.size()) / static_cast<double>(cap);
  for (size_t i = 0; i < cap; ++i) {
    out.push_back(anchors[static_cast<size_t>(i * stride)]);
  }
  return out;
}

Experiment::Experiment(const EvalProfile& profile)
    : profile_(profile),
      dataset_(apots::traffic::GenerateDataset(profile.dataset)) {
  target_road_ = dataset_.num_roads() / 2;
  auto split = apots::data::MakeSplit(
      dataset_, profile_.alpha, profile_.beta, profile_.test_fraction,
      apots::data::SplitStrategy::kBlockedByDay, profile_.split_seed);
  train_anchors_ = SubsampleAnchors(split.train, profile_.max_train_anchors);
  // Abrupt-change instants are rare (<1% of intervals) but are exactly
  // what Figs. 4/6 evaluate, so subsampling must not wash them out: every
  // abrupt test anchor is kept, and only the normal anchors are thinned
  // to the cap.
  const auto all_segments = apots::metrics::ClassifyAnchors(
      dataset_, target_road_, split.test, profile_.beta,
      profile_.abrupt_theta);
  std::vector<long> normal_anchors, abrupt_anchors;
  for (size_t i = 0; i < split.test.size(); ++i) {
    if (all_segments[i] == apots::metrics::Segment::kNormal) {
      normal_anchors.push_back(split.test[i]);
    } else {
      abrupt_anchors.push_back(split.test[i]);
    }
  }
  test_anchors_ = SubsampleAnchors(normal_anchors, profile_.max_test_anchors);
  test_anchors_.insert(test_anchors_.end(), abrupt_anchors.begin(),
                       abrupt_anchors.end());
  std::sort(test_anchors_.begin(), test_anchors_.end());
  test_segments_ = apots::metrics::ClassifyAnchors(
      dataset_, target_road_, test_anchors_, profile_.beta,
      profile_.abrupt_theta);
  const auto counts = apots::metrics::CountSegments(test_segments_);
  APOTS_LOG(Info) << "experiment[" << profile_.LevelName() << "]: "
                  << train_anchors_.size() << " train / "
                  << test_anchors_.size() << " test anchors; segments "
                  << counts.normal << " normal, " << counts.abrupt_acc
                  << " acc, " << counts.abrupt_dec << " dec";
}

ApotsConfig Experiment::MakeConfig(const ModelSpec& spec) const {
  ApotsConfig config;
  config.predictor =
      profile_.width_divisor <= 1
          ? PredictorHparams::Paper(spec.predictor)
          : PredictorHparams::Scaled(spec.predictor, profile_.width_divisor);
  // The discriminator is kept closer to full size than the predictors:
  // an under-parameterized D cannot tell real from predicted sequences and
  // the adversarial term degenerates to noise.
  config.discriminator =
      profile_.width_divisor <= 1
          ? apots::core::DiscriminatorHparams()
          : apots::core::DiscriminatorHparams::Scaled(
                std::max<size_t>(1, profile_.width_divisor / 4));
  config.features = spec.features;
  config.features.alpha = profile_.alpha;
  config.features.beta = profile_.beta;
  // m follows the dataset: target road +- everything available.
  config.features.num_adjacent = (dataset_.num_roads() - 1) / 2;
  config.training.epochs = profile_.EpochsFor(spec.predictor);
  config.training.batch_size = profile_.batch_size;
  config.training.adversarial = spec.adversarial;
  config.training.adv_period = profile_.adv_period;
  config.training.adv_weight = profile_.adv_weight;
  config.training.adv_batch_size = profile_.adv_batch_size;
  config.training.learning_rate = profile_.learning_rate;
  config.seed = profile_.model_seed;
  return config;
}

EvalRow Experiment::MakeRow(const std::string& label,
                            std::vector<double> predictions,
                            std::vector<double> truths, double seconds,
                            size_t num_weights) const {
  APOTS_CHECK_EQ(predictions.size(), test_anchors_.size());
  EvalRow row;
  row.label = label;
  row.whole = apots::metrics::Compute(predictions, truths);
  row.normal = apots::metrics::ComputeMasked(
      predictions, truths,
      apots::metrics::SegmentMask(test_segments_, Segment::kNormal));
  row.abrupt_acc = apots::metrics::ComputeMasked(
      predictions, truths,
      apots::metrics::SegmentMask(test_segments_,
                                  Segment::kAbruptAcceleration));
  row.abrupt_dec = apots::metrics::ComputeMasked(
      predictions, truths,
      apots::metrics::SegmentMask(test_segments_,
                                  Segment::kAbruptDeceleration));
  row.train_seconds = seconds;
  row.num_weights = num_weights;
  row.predictions = std::move(predictions);
  row.truths = std::move(truths);
  return row;
}

EvalRow Experiment::RunModel(const ModelSpec& spec) const {
  apots::Stopwatch watch;
  ApotsModel model(&dataset_, MakeConfig(spec));
  model.Train(train_anchors_);
  const double seconds = watch.ElapsedSeconds();
  std::vector<double> predictions = model.PredictKmh(test_anchors_);
  std::vector<double> truths = model.TrueKmh(test_anchors_);
  APOTS_LOG(Info) << spec.Label() << ": trained in " << seconds << "s";
  return MakeRow(spec.Label(), std::move(predictions), std::move(truths),
                 seconds, model.NumWeights());
}

namespace {

// Truths at the prediction instants, shared by the baselines.
std::vector<double> TruthsAt(const apots::traffic::TrafficDataset& dataset,
                             int road, const std::vector<long>& anchors,
                             int beta) {
  std::vector<double> out(anchors.size());
  for (size_t i = 0; i < anchors.size(); ++i) {
    out[i] = dataset.Speed(road, anchors[i] + beta);
  }
  return out;
}

// All intervals belonging to days that contain at least one train anchor —
// the non-windowed baselines fit on raw series, not windows.
std::vector<long> TrainIntervals(
    const apots::traffic::TrafficDataset& dataset,
    const std::vector<long>& train_anchors) {
  const int ipd = dataset.intervals_per_day();
  std::vector<bool> is_train_day(static_cast<size_t>(dataset.num_days()),
                                 false);
  for (long a : train_anchors) {
    is_train_day[static_cast<size_t>(a / ipd)] = true;
  }
  std::vector<long> intervals;
  for (long t = 0; t < dataset.num_intervals(); ++t) {
    if (is_train_day[static_cast<size_t>(t / ipd)]) intervals.push_back(t);
  }
  return intervals;
}

}  // namespace

EvalRow Experiment::RunProphet() const {
  apots::Stopwatch watch;
  apots::baseline::Prophet prophet;
  const auto intervals = TrainIntervals(dataset_, train_anchors_);
  const apots::Status status =
      prophet.Fit(dataset_, target_road_, intervals);
  APOTS_CHECK(status.ok()) << status.ToString();
  std::vector<double> predictions =
      prophet.PredictAtAnchors(dataset_, test_anchors_, profile_.beta);
  return MakeRow("Prophet", std::move(predictions),
                 TruthsAt(dataset_, target_road_, test_anchors_,
                          profile_.beta),
                 watch.ElapsedSeconds(), prophet.NumFeatures());
}

EvalRow Experiment::RunHistoricalAverage() const {
  apots::Stopwatch watch;
  apots::baseline::HistoricalAverage model;
  const auto intervals = TrainIntervals(dataset_, train_anchors_);
  const apots::Status status = model.Fit(dataset_, target_road_, intervals);
  APOTS_CHECK(status.ok()) << status.ToString();
  std::vector<double> predictions =
      model.PredictAtAnchors(dataset_, test_anchors_, profile_.beta);
  return MakeRow("HistAvg", std::move(predictions),
                 TruthsAt(dataset_, target_road_, test_anchors_,
                          profile_.beta),
                 watch.ElapsedSeconds(), 0);
}

EvalRow Experiment::RunArModel() const {
  apots::Stopwatch watch;
  apots::baseline::ArModel model(profile_.alpha);
  const apots::Status status = model.Fit(dataset_, target_road_,
                                         train_anchors_, profile_.beta);
  APOTS_CHECK(status.ok()) << status.ToString();
  std::vector<double> predictions =
      model.PredictAtAnchors(dataset_, test_anchors_);
  return MakeRow("AR", std::move(predictions),
                 TruthsAt(dataset_, target_road_, test_anchors_,
                          profile_.beta),
                 watch.ElapsedSeconds(), profile_.alpha + 1);
}

}  // namespace apots::eval
