#ifndef APOTS_EVAL_EXPERIMENT_H_
#define APOTS_EVAL_EXPERIMENT_H_

#include <string>
#include <vector>

#include "core/apots_model.h"
#include "data/windowing.h"
#include "eval/profile.h"
#include "metrics/metrics.h"
#include "metrics/segmentation.h"
#include "traffic/traffic_dataset.h"

namespace apots::eval {

/// One cell of the evaluation grids: predictor family x adversarial flag x
/// active feature blocks.
struct ModelSpec {
  apots::core::PredictorType predictor = apots::core::PredictorType::kFc;
  bool adversarial = false;
  apots::data::FeatureConfig features;

  /// "F", "Adv F", "APOTS H", ... matching the paper's labels: "Adv X" for
  /// adversarial without additional data, "APOTS X" with both.
  std::string Label() const;
};

/// Metrics of one trained configuration, whole-period and per segment.
struct EvalRow {
  std::string label;
  apots::metrics::MetricSet whole;
  apots::metrics::MetricSet normal;
  apots::metrics::MetricSet abrupt_acc;
  apots::metrics::MetricSet abrupt_dec;
  double train_seconds = 0.0;
  size_t num_weights = 0;
  /// Per-anchor predictions/truths (km/h), aligned with the test anchors,
  /// kept so benches can write figure series.
  std::vector<double> predictions;
  std::vector<double> truths;
};

/// A prepared evaluation environment shared across all model runs of one
/// bench: dataset, split (already subsampled per profile), and segment
/// labels of the test anchors.
class Experiment {
 public:
  explicit Experiment(const EvalProfile& profile);

  const apots::traffic::TrafficDataset& dataset() const { return dataset_; }
  const std::vector<long>& train_anchors() const { return train_anchors_; }
  const std::vector<long>& test_anchors() const { return test_anchors_; }
  const std::vector<apots::metrics::Segment>& test_segments() const {
    return test_segments_;
  }
  const EvalProfile& profile() const { return profile_; }
  int target_road() const { return target_road_; }

  /// Trains and evaluates one APOTS configuration.
  EvalRow RunModel(const ModelSpec& spec) const;

  /// Evaluates the Prophet baseline (fit on all training-day intervals).
  EvalRow RunProphet() const;

  /// Evaluates the historical-average baseline.
  EvalRow RunHistoricalAverage() const;

  /// Evaluates the AR(alpha) baseline.
  EvalRow RunArModel() const;

  /// Builds an EvalRow (segmented metrics) from raw predictions.
  EvalRow MakeRow(const std::string& label,
                  std::vector<double> predictions,
                  std::vector<double> truths, double seconds,
                  size_t num_weights) const;

  /// Builds the ApotsConfig for a spec under this experiment's profile
  /// (exposed so benches can tweak, e.g. epochs for Fig. 6).
  apots::core::ApotsConfig MakeConfig(const ModelSpec& spec) const;

 private:
  EvalProfile profile_;
  apots::traffic::TrafficDataset dataset_;
  std::vector<long> train_anchors_;
  std::vector<long> test_anchors_;
  std::vector<apots::metrics::Segment> test_segments_;
  int target_road_ = 0;
};

/// Deterministically subsamples `anchors` to at most `cap` (0 = no cap),
/// keeping an even stride so the time coverage stays uniform.
std::vector<long> SubsampleAnchors(const std::vector<long>& anchors,
                                   size_t cap);

}  // namespace apots::eval

#endif  // APOTS_EVAL_EXPERIMENT_H_
