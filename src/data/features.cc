#include "data/features.h"

#include <algorithm>

#include "util/logging.h"

namespace apots::data {

using apots::tensor::Tensor;
using apots::traffic::DayInfo;
using apots::traffic::TrafficDataset;

FeatureConfig FeatureConfig::SpeedOnly(int alpha, int beta) {
  FeatureConfig config;
  config.alpha = alpha;
  config.beta = beta;
  config.use_adjacent = false;
  config.use_event = false;
  config.use_weather = false;
  config.use_time = false;
  return config;
}

FeatureConfig FeatureConfig::AdjacentOnly(int alpha, int beta) {
  FeatureConfig config = SpeedOnly(alpha, beta);
  config.use_adjacent = true;
  return config;
}

FeatureConfig FeatureConfig::NonSpeedOnly(int alpha, int beta) {
  FeatureConfig config = SpeedOnly(alpha, beta);
  config.use_event = true;
  config.use_weather = true;
  config.use_time = true;
  return config;
}

FeatureConfig FeatureConfig::Both(int alpha, int beta) {
  FeatureConfig config;
  config.alpha = alpha;
  config.beta = beta;
  return config;
}

FeatureAssembler::FeatureAssembler(const TrafficDataset* dataset,
                                   FeatureConfig config)
    : dataset_(dataset), config_(config) {
  APOTS_CHECK(dataset != nullptr);
  APOTS_CHECK_GT(config.alpha, 0);
  APOTS_CHECK_GE(config.beta, 0);
  APOTS_CHECK_GE(config.num_adjacent, 0);
  APOTS_CHECK_GE(dataset->num_roads(), 2 * config.num_adjacent + 1);
  target_road_ =
      config.target_road >= 0 ? config.target_road : dataset->num_roads() / 2;
  APOTS_CHECK_GE(target_road_ - config.num_adjacent, 0);
  APOTS_CHECK_LT(target_road_ + config.num_adjacent, dataset->num_roads());
}

void FeatureAssembler::Fit() {
  // Speed: physical bounds keep the scaling identical across roads and
  // independent of which days land in the training split.
  speed_scaler_.SetRange(0.0f, 110.0f);
  const long total = dataset_->num_intervals();
  std::vector<float> temps(static_cast<size_t>(total));
  std::vector<float> rains(static_cast<size_t>(total));
  for (long t = 0; t < total; ++t) {
    temps[static_cast<size_t>(t)] = dataset_->Weather(t).temperature_c;
    rains[static_cast<size_t>(t)] = dataset_->Weather(t).precipitation_mm;
  }
  // All context features live in [0, 1] like the speeds; mixed scales
  // (e.g. z-scored temperature against 0-1 speed rows) measurably hurt
  // the FC predictor.
  temperature_scaler_.Fit(temps);
  const float max_rain =
      *std::max_element(rains.begin(), rains.end());
  precipitation_scaler_.SetRange(0.0f, std::max(1.0f, max_rain));
}

int FeatureAssembler::NumRows() const {
  // 2m+1 speed rows + event + temperature + precipitation + hour + 4 day
  // type rows.
  return 2 * config_.num_adjacent + 1 + 8;
}

Tensor FeatureAssembler::BatchMatrix(const std::vector<long>& anchors) const {
  Tensor batch({anchors.size(), static_cast<size_t>(NumRows()),
                static_cast<size_t>(config_.alpha)});
  AssembleBatchInto(anchors.data(), /*contexts=*/nullptr, anchors.size(),
                    /*cache=*/nullptr, &batch);
  return batch;
}

void FeatureAssembler::FillIntervalColumn(long t, float* column,
                                          const ContextSpec* spec) const {
  const int m = config_.num_adjacent;
  for (int offset = -m; offset <= m; ++offset) {
    const int row = offset + m;
    const bool active = offset == 0 || config_.use_adjacent;
    column[row] = active ? speed_scaler_.Transform(
                               dataset_->Speed(target_road_ + offset, t))
                         : 0.0f;
  }
  // Counterfactual overlay on the raw values, before scaling: the column
  // is exactly what the base fill would produce had the world carried
  // these values. Perturbations apply in order (last writer wins).
  float event = dataset_->EventFlag(target_road_, t);
  float rain = dataset_->Weather(t).precipitation_mm;
  if (spec != nullptr) {
    for (const ContextPerturbation& p : spec->perturbations) {
      if (!p.AppliesTo(t)) continue;
      switch (p.kind) {
        case PerturbationKind::kClearEvent:
          event = 0.0f;
          break;
        case PerturbationKind::kSetEvent:
          event = 1.0f;
          break;
        case PerturbationKind::kRainDelta:
          rain = std::max(0.0f, rain + p.value);
          break;
        case PerturbationKind::kDayTypeOverride:
          break;  // anchor-keyed: applied at the day-type broadcast
      }
    }
  }
  const int base = 2 * m + 1;
  column[base + 0] = config_.use_event ? event : 0.0f;
  if (config_.use_weather) {
    column[base + 1] =
        temperature_scaler_.Transform(dataset_->Weather(t).temperature_c);
    column[base + 2] = precipitation_scaler_.Transform(rain);
  } else {
    column[base + 1] = 0.0f;
    column[base + 2] = 0.0f;
  }
  column[base + 3] = config_.use_time
                         ? static_cast<float>(
                               dataset_->FractionalHour(t) / 24.0)
                         : 0.0f;
}

void FeatureAssembler::AssembleBatchInto(const long* anchors, size_t count,
                                         FeatureCache* cache,
                                         Tensor* out) const {
  AssembleBatchInto(anchors, /*contexts=*/nullptr, count, cache, out);
}

void FeatureAssembler::AssembleBatchInto(const long* anchors,
                                         const ResolvedContext* contexts,
                                         size_t count, FeatureCache* cache,
                                         Tensor* out) const {
  APOTS_CHECK(speed_scaler_.fitted());
  const size_t rows = static_cast<size_t>(NumRows());
  const size_t alpha = static_cast<size_t>(config_.alpha);
  APOTS_CHECK_EQ(out->rank(), 3u);
  APOTS_CHECK_EQ(out->dim(0), count);
  APOTS_CHECK_EQ(out->dim(1), rows);
  APOTS_CHECK_EQ(out->dim(2), alpha);
  out->Fill(0.0f);  // workspace slots arrive dirty

  const size_t column_size = rows - 4;  // all but the day-type rows
  std::vector<float> column(column_size);
  for (size_t n = 0; n < count; ++n) {
    const long anchor = anchors[n];
    const ContextSpec* spec =
        contexts == nullptr ? nullptr : contexts[n].spec;
    const uint64_t context_id = contexts == nullptr ? 0 : contexts[n].id;
    APOTS_CHECK_GE(anchor - config_.alpha, 0);
    APOTS_CHECK_LT(anchor + config_.beta, dataset_->num_intervals());
    float* sample = out->data() + n * rows * alpha;
    for (size_t i = 0; i < alpha; ++i) {
      const long t = anchor - config_.alpha + static_cast<long>(i);
      // Effective-context keying: a column the spec does not touch is
      // bitwise the base column, so key (and fill) it as context 0 —
      // interleaved base/counterfactual traffic shares those entries.
      const bool touched = spec != nullptr && spec->TouchesColumn(t);
      const ContextSpec* column_spec = touched ? spec : nullptr;
      if (cache != nullptr) {
        cache->GetOrCompute(
            {target_road_, t, touched ? context_id : 0}, column_size,
            column.data(), [this, t, column_spec](float* dst) {
              FillIntervalColumn(t, dst, column_spec);
            });
      } else {
        FillIntervalColumn(t, column.data(), column_spec);
      }
      for (size_t r = 0; r < column_size; ++r) {
        sample[r * alpha + i] = column[r];
      }
    }
    if (config_.use_time) {
      // Day type of the anchor day, broadcast across the window (the paper
      // notes the day type is constant within a sequence).
      const DayInfo day = dataset_->Day(anchor);
      std::array<float, 4> type = day.TypeVector();
      if (spec != nullptr) {
        const int override_type = spec->DayTypeOverrideFor(anchor);
        if (override_type >= 0) {
          // One-hot at the override index: "as if it were a holiday".
          type = {0.0f, 0.0f, 0.0f, 0.0f};
          type[static_cast<size_t>(override_type)] = 1.0f;
        }
      }
      const size_t base = 2 * static_cast<size_t>(config_.num_adjacent) + 1;
      for (size_t k = 0; k < 4; ++k) {
        float* row = sample + (base + 4 + k) * alpha;
        std::fill(row, row + alpha, type[k]);
      }
    }
  }
}

float FeatureAssembler::Target(long anchor) const {
  APOTS_CHECK_LT(anchor + config_.beta, dataset_->num_intervals());
  return speed_scaler_.Transform(
      dataset_->Speed(target_road_, anchor + config_.beta));
}

Tensor FeatureAssembler::BatchTargets(
    const std::vector<long>& anchors) const {
  Tensor targets({anchors.size(), 1});
  for (size_t n = 0; n < anchors.size(); ++n) {
    targets[n] = Target(anchors[n]);
  }
  return targets;
}

Tensor FeatureAssembler::RealSequence(long anchor) const {
  // S_{t-alpha+beta+1 : t+beta}: the alpha real speeds ending at the
  // prediction time (Section III-A).
  const int alpha = config_.alpha;
  Tensor sequence({static_cast<size_t>(alpha)});
  for (int i = 0; i < alpha; ++i) {
    const long t = anchor - alpha + config_.beta + 1 + i;
    APOTS_CHECK_GE(t, 0);
    sequence[static_cast<size_t>(i)] =
        speed_scaler_.Transform(dataset_->Speed(target_road_, t));
  }
  return sequence;
}

Tensor FeatureAssembler::BatchRealSequences(
    const std::vector<long>& anchors) const {
  const size_t alpha = static_cast<size_t>(config_.alpha);
  Tensor batch({anchors.size(), alpha});
  for (size_t n = 0; n < anchors.size(); ++n) {
    const Tensor seq = RealSequence(anchors[n]);
    std::copy(seq.data(), seq.data() + alpha, batch.data() + n * alpha);
  }
  return batch;
}

void FeatureAssembler::SetValidityMask(
    const apots::traffic::ValidityMask* mask) {
  if (mask != nullptr) {
    APOTS_CHECK_EQ(mask->num_roads(), dataset_->num_roads());
    APOTS_CHECK_EQ(mask->num_intervals(), dataset_->num_intervals());
  }
  validity_mask_ = mask;
}

double FeatureAssembler::WindowValidityRatio(long anchor) const {
  if (validity_mask_ == nullptr) return 1.0;
  const int alpha = config_.alpha;
  APOTS_CHECK_GE(anchor - alpha, 0);
  const int m = config_.use_adjacent ? config_.num_adjacent : 0;
  long valid = 0, total = 0;
  for (int offset = -m; offset <= m; ++offset) {
    const int road = target_road_ + offset;
    for (int i = 0; i < alpha; ++i) {
      valid += validity_mask_->Valid(road, anchor - alpha + i) ? 1 : 0;
      ++total;
    }
  }
  return static_cast<double>(valid) / static_cast<double>(total);
}

bool FeatureAssembler::TargetObserved(long anchor) const {
  if (validity_mask_ == nullptr) return true;
  APOTS_CHECK_LT(anchor + config_.beta, dataset_->num_intervals());
  return validity_mask_->Valid(target_road_, anchor + config_.beta);
}

std::vector<bool> FeatureAssembler::ObservedTargetMask(
    const std::vector<long>& anchors) const {
  std::vector<bool> mask(anchors.size());
  for (size_t i = 0; i < anchors.size(); ++i) {
    mask[i] = TargetObserved(anchors[i]);
  }
  return mask;
}

Tensor FeatureAssembler::BatchContext(
    const std::vector<long>& anchors) const {
  const size_t rows = static_cast<size_t>(NumRows());
  const size_t alpha = static_cast<size_t>(config_.alpha);
  Tensor batch = BatchMatrix(anchors);
  // Zero the target road's row (index num_adjacent within the speed
  // block).
  const size_t target_row = static_cast<size_t>(config_.num_adjacent);
  for (size_t n = 0; n < anchors.size(); ++n) {
    float* row = batch.data() + (n * rows + target_row) * alpha;
    std::fill(row, row + alpha, 0.0f);
  }
  return batch.Reshape({anchors.size(), rows * alpha});
}

}  // namespace apots::data
