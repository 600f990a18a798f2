#ifndef APOTS_CORE_APOTS_MODEL_H_
#define APOTS_CORE_APOTS_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "baseline/historical_average.h"
#include "core/adversarial_trainer.h"
#include "core/discriminator.h"
#include "core/inference_runtime.h"
#include "core/predictor.h"
#include "data/features.h"
#include "nn/checkpoint.h"
#include "traffic/fault_injector.h"
#include "traffic/traffic_dataset.h"
#include "util/status.h"

namespace apots::core {

/// Everything needed to instantiate one APOTS configuration: a predictor
/// family (F/L/C/H), whether adversarial training is on, and which input
/// blocks are active — one cell of the paper's Table III grid.
/// Graceful degradation under sensor faults: when the fraction of
/// actually-observed cells in a window drops below the threshold, the
/// neural prediction is replaced by the historical-average baseline —
/// a mostly-imputed window carries too little signal for the predictor
/// but the time-of-day profile stays trustworthy.
struct FallbackConfig {
  bool enabled = false;
  double min_validity_ratio = 0.6;
};

struct ApotsConfig {
  PredictorHparams predictor;
  DiscriminatorHparams discriminator;
  apots::data::FeatureConfig features;
  TrainConfig training;
  FallbackConfig fallback;
  InferenceConfig inference;
  uint64_t seed = 42;

  /// Short tag like "APOTS H" / "H" / "Adv F" used in reports.
  std::string Tag() const;
};

/// The public facade of the library: owns the feature assembler, the
/// predictor, and (when adversarial) the discriminator; trains on anchor
/// sets from data::MakeSplit and predicts speeds in km/h.
///
/// Typical use:
///   TrafficDataset dataset = traffic::GenerateDataset(spec);
///   auto split = data::MakeSplit(dataset, 12, 1, 0.2,
///                                data::SplitStrategy::kBlockedByDay, 7);
///   ApotsConfig config = ...;
///   ApotsModel model(&dataset, config);
///   model.Train(split.train);
///   std::vector<double> pred = model.PredictKmh(split.test);
class ApotsModel {
 public:
  /// `dataset` is borrowed and must outlive the model.
  ApotsModel(const apots::traffic::TrafficDataset* dataset,
             ApotsConfig config);

  /// Runs the configured number of epochs; returns the final epoch stats.
  EpochStats Train(const std::vector<long>& train_anchors);

  /// Guarded training (see AdversarialTrainer::TrainGuarded): detects
  /// divergence, rolls back to the last good epoch checkpoint, and retries
  /// with learning-rate backoff within a bounded budget.
  Result<TrainReport> TrainGuarded(const std::vector<long>& train_anchors);

  /// Attaches the sensor-validity mask (borrowed; null detaches). Enables
  /// WindowValidityRatio-based fallback and observed-target evaluation.
  void SetValidityMask(const apots::traffic::ValidityMask* mask);

  /// Predicted speeds in km/h for the anchors' prediction instants. When
  /// `config().fallback.enabled` and a validity mask is attached, anchors
  /// whose window validity falls below the threshold are answered by the
  /// historical-average baseline instead of the predictor.
  std::vector<double> PredictKmh(const std::vector<long>& anchors);

  /// Counterfactual what-if fan-out: km/h predictions for heterogeneous
  /// (anchor, context) items through the batched runtime. No fallback
  /// substitution — counterfactual queries are an explanation workload,
  /// not fault-masked serving — and an all-context-0 item set is bitwise
  /// identical to PredictKmh with fallback disabled.
  std::vector<double> PredictKmhItems(const std::vector<WorkItem>& items);

  /// Attaches the counterfactual context registry (borrowed, may be null
  /// to detach). Survives SetInferenceConfig runtime rebuilds.
  void SetContextTable(const apots::data::ContextTable* table);
  const apots::data::ContextTable* context_table() const {
    return context_table_;
  }

  /// How many of the last PredictKmh anchors used the fallback.
  size_t last_fallback_count() const { return last_fallback_count_; }

  /// Swaps the inference configuration (batch size, precision),
  /// rebuilding the runtime with a cold cache. The model owns the served
  /// precision: it packs the predictor's weights for `config.quantize`
  /// (kOff drops the packs) here and after every weight mutation, so
  /// runtimes built elsewhere on predictor() serve the same answers. A
  /// batch_size of 0 is clamped to 1 (SanitizeInferenceConfig). fp32
  /// predictions are bitwise identical at every batch size; this is how
  /// benches and tests switch arms on one trained model.
  void SetInferenceConfig(const InferenceConfig& config);
  InferenceRuntime& inference_runtime() { return *runtime_; }

  /// Copies every trainable weight from `other`, which must have an
  /// identical architecture. Used to evaluate trained weights against a
  /// different (e.g. fault-corrupted) dataset binding.
  Status CopyWeightsFrom(ApotsModel& other);

  /// Fits the fallback baseline on the train anchors' observed targets.
  /// Train/TrainGuarded call this automatically; call it directly only
  /// when weights arrived via CopyWeightsFrom/Load instead of training.
  void FitFallback(const std::vector<long>& train_anchors);

  /// Ground-truth speeds in km/h at the anchors' prediction instants.
  std::vector<double> TrueKmh(const std::vector<long>& anchors) const;

  /// Saves / restores all trainable weights.
  Status Save(const std::string& path);
  Status Load(const std::string& path);
  /// Restores all trainable weights from the newest loadable generation
  /// in `store` (CheckpointStore::Recover) and re-packs them like Load.
  Result<apots::nn::CheckpointStore::RecoverInfo> Recover(
      const apots::nn::CheckpointStore& store);

  /// Every trainable parameter (predictor, then discriminator when
  /// adversarial) in a stable order — the serialization / checkpoint /
  /// weight-copy contract.
  std::vector<apots::nn::Parameter*> TrainableParameters();

  const ApotsConfig& config() const { return config_; }
  const apots::data::FeatureAssembler& assembler() const {
    return assembler_;
  }
  Predictor& predictor() { return *predictor_; }
  size_t NumWeights();

 private:
  /// Packs the predictor's inference weights for
  /// `config_.inference.quantize`, or drops the packs under kOff. Runs
  /// whenever the config or the weights change (train, copy, load).
  void RefreshQuantizedWeights();

  const apots::traffic::TrafficDataset* dataset_;  // not owned
  const apots::data::ContextTable* context_table_ = nullptr;  // not owned
  ApotsConfig config_;
  apots::data::FeatureAssembler assembler_;
  apots::Rng rng_;
  std::unique_ptr<Predictor> predictor_;
  std::unique_ptr<Discriminator> discriminator_;
  std::unique_ptr<AdversarialTrainer> trainer_;
  std::unique_ptr<InferenceRuntime> runtime_;
  apots::baseline::HistoricalAverage fallback_model_;
  size_t last_fallback_count_ = 0;
};

}  // namespace apots::core

#endif  // APOTS_CORE_APOTS_MODEL_H_
