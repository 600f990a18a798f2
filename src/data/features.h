#ifndef APOTS_DATA_FEATURES_H_
#define APOTS_DATA_FEATURES_H_

#include <vector>

#include "data/context.h"
#include "data/feature_cache.h"
#include "data/scaler.h"
#include "tensor/tensor.h"
#include "traffic/fault_injector.h"
#include "traffic/traffic_dataset.h"

namespace apots::data {

/// Which input blocks are active. Inactive blocks are written as zeros
/// rather than removed — the fixed-input-size protocol of the paper's
/// Fig. 5 ("the size of the input to a predictor was fixed ...; the rest
/// was filled with 0"), which also keeps every predictor architecture
/// identical across ablations.
struct FeatureConfig {
  int alpha = 12;  ///< input window length (speeds)
  int beta = 1;    ///< prediction horizon in intervals

  /// m: number of upstream and of downstream roads around the target. The
  /// dataset must have at least 2m+1 roads; the target is the middle one
  /// unless `target_road` overrides it.
  int num_adjacent = 2;

  /// Target road index, or -1 for the dataset's middle road. Sharded
  /// serving points per-shard models at roads other than the corridor
  /// center; [target_road - m, target_road + m] must stay in range.
  int target_road = -1;

  bool use_adjacent = true;  ///< adjacent-speed rows (other than target)
  bool use_event = true;     ///< accident/construction flag row
  bool use_weather = true;   ///< temperature + precipitation rows
  bool use_time = true;      ///< hour row + day-type rows

  /// Convenience presets matching the paper's ablation arms.
  static FeatureConfig SpeedOnly(int alpha = 12, int beta = 1);
  static FeatureConfig AdjacentOnly(int alpha = 12, int beta = 1);
  static FeatureConfig NonSpeedOnly(int alpha = 12, int beta = 1);
  static FeatureConfig Both(int alpha = 12, int beta = 1);
};

/// Assembles model-ready samples from a TrafficDataset.
///
/// Canonical sample layout: a [rows, alpha] matrix with
///   rows 0 .. 2m        adjacent-road scaled speeds (target in middle)
///   row  2m+1           event flag of the target road
///   row  2m+2           scaled temperature
///   row  2m+3           scaled precipitation
///   row  2m+4           hour of day / 24
///   rows 2m+5 .. 2m+8   day type (weekday/holiday/before/after),
///                       broadcast across the alpha columns
/// FC flattens it, the CNN reads it as a 1-channel image, the LSTM reads
/// the transpose as an alpha-step sequence of per-interval features.
///
/// AssembleBatchInto is the one encoder of this layout. Training (J_P,
/// J_D), the attacker's gradient passes, serving and what-if all run it;
/// BatchMatrix is its allocating, uncached form.
class FeatureAssembler {
 public:
  /// Scalers must be fit by the caller (on training data); `Fit` does the
  /// standard fit from a set of training anchors.
  FeatureAssembler(const apots::traffic::TrafficDataset* dataset,
                   FeatureConfig config);

  /// Fits the speed / temperature / precipitation scalers on the raw
  /// series (physical bounds for speed, data range for weather).
  void Fit();

  int alpha() const { return config_.alpha; }
  int beta() const { return config_.beta; }
  const FeatureConfig& config() const { return config_; }

  /// Index of the target road in the dataset.
  int target_road() const { return target_road_; }

  /// Rows of the canonical sample matrix.
  int NumRows() const;

  /// Flat feature width (= NumRows() * alpha).
  int FlatWidth() const { return NumRows() * config_.alpha; }

  /// Builds a batch [N, NumRows, alpha] for a set of anchors (present
  /// times): a fresh tensor filled by the uncached AssembleBatchInto.
  apots::tensor::Tensor BatchMatrix(const std::vector<long>& anchors) const;

  /// Batched assembly into a preallocated [count, NumRows, alpha] tensor
  /// (typically a workspace slot — `out` may be dirty, every element is
  /// written). With a non-null `cache`, per-interval columns are served
  /// from / inserted into it, exploiting the alpha-1 column overlap
  /// between adjacent anchors. Bitwise identical to the uncached path,
  /// warm or cold.
  void AssembleBatchInto(const long* anchors, size_t count,
                         FeatureCache* cache,
                         apots::tensor::Tensor* out) const;

  /// Context-overlay variant for counterfactual what-if batches:
  /// `contexts[n]` binds item n to a resolved context (id + spec; a null
  /// spec means base). Perturbed raw values are overlaid *before* scaling
  /// inside the column fill, and cache keys carry the context id only for
  /// the intervals the spec actually touches — untouched columns are
  /// keyed context 0 and shared with base assembly, so an interleaved
  /// base/counterfactual stream stays warm. `contexts == nullptr` (or a
  /// row of all-null specs) is byte-for-byte the base path above.
  void AssembleBatchInto(const long* anchors,
                         const ResolvedContext* contexts, size_t count,
                         FeatureCache* cache,
                         apots::tensor::Tensor* out) const;

  /// Scaled target value s_{t+beta} of the target road.
  float Target(long anchor) const;

  /// Batch of scaled targets as an [N, 1] tensor.
  apots::tensor::Tensor BatchTargets(const std::vector<long>& anchors) const;

  /// The real scaled speed sequence S_{t-alpha+beta+1 : t+beta} of the
  /// target road — what the discriminator sees as "real" (length alpha).
  apots::tensor::Tensor RealSequence(long anchor) const;

  /// Batch version: [N, alpha].
  apots::tensor::Tensor BatchRealSequences(
      const std::vector<long>& anchors) const;

  /// Flattened conditioning context for the discriminator (Eq. 4):
  /// the sample matrix with the target road's speed row zeroed out. The
  /// real sequence overlaps the target road's observed history, so leaving
  /// that row in would let D win by a trivial equality check instead of
  /// judging trajectory realism — the degenerate-discrimination problem
  /// the paper discusses in Section III-A. Shape [N, NumRows * alpha].
  apots::tensor::Tensor BatchContext(const std::vector<long>& anchors) const;

  /// Attaches a sensor-validity mask (borrowed, may be null to detach).
  /// The mask does not change sample layout — imputation has already
  /// repaired the stored values — but it powers the two queries below.
  void SetValidityMask(const apots::traffic::ValidityMask* mask);
  const apots::traffic::ValidityMask* validity_mask() const {
    return validity_mask_;
  }

  /// Fraction of actually-observed cells among the speed rows feeding
  /// `anchor`'s input window (target road, plus adjacent roads when
  /// enabled). 1.0 without a mask.
  double WindowValidityRatio(long anchor) const;

  /// True when the ground truth s_{t+beta} at `anchor` was observed (not
  /// fabricated by a fault) — evaluation must skip anchors where this is
  /// false. True without a mask.
  bool TargetObserved(long anchor) const;

  /// Per-anchor TargetObserved vector, shaped for metrics::ComputeMasked.
  std::vector<bool> ObservedTargetMask(
      const std::vector<long>& anchors) const;

  /// Scaled speed <-> km/h conversions for reporting.
  float ScaleSpeed(float kmh) const { return speed_scaler_.Transform(kmh); }
  float UnscaleSpeed(float scaled) const {
    return speed_scaler_.Inverse(scaled);
  }

  const apots::traffic::TrafficDataset& dataset() const { return *dataset_; }

 private:
  /// Writes the NumRows()-4 anchor-independent feature values of interval
  /// `t` (speed rows, event, temperature, precipitation, hour; inactive
  /// rows as zeros). This is the unit the FeatureCache stores. A non-null
  /// `spec` overlays its perturbations on the raw values before scaling;
  /// callers pass it only when the spec touches `t`, so the null path is
  /// the base context bit for bit.
  void FillIntervalColumn(long t, float* column,
                          const ContextSpec* spec = nullptr) const;

  const apots::traffic::TrafficDataset* dataset_;  // not owned
  const apots::traffic::ValidityMask* validity_mask_ = nullptr;  // not owned
  FeatureConfig config_;
  int target_road_;
  MinMaxScaler speed_scaler_;
  MinMaxScaler temperature_scaler_;
  MinMaxScaler precipitation_scaler_;
};

}  // namespace apots::data

#endif  // APOTS_DATA_FEATURES_H_
