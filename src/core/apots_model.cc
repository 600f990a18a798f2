#include "core/apots_model.h"

#include "nn/serialize.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace apots::core {

using apots::data::FeatureAssembler;
using apots::traffic::TrafficDataset;

std::string ApotsConfig::Tag() const {
  std::string tag;
  if (training.adversarial) tag += "Adv ";
  tag += PredictorTypeName(predictor.type);
  const bool add_data = features.use_adjacent || features.use_event ||
                        features.use_weather || features.use_time;
  if (add_data) tag += "+add";
  return tag;
}

ApotsModel::ApotsModel(const TrafficDataset* dataset, ApotsConfig config)
    : dataset_(dataset),
      config_(std::move(config)),
      assembler_(dataset, config_.features),
      rng_(config_.seed) {
  assembler_.Fit();
  predictor_ = MakePredictor(config_.predictor,
                             static_cast<size_t>(assembler_.NumRows()),
                             static_cast<size_t>(assembler_.alpha()), &rng_);
  if (config_.training.adversarial) {
    const size_t context_width = static_cast<size_t>(assembler_.FlatWidth());
    discriminator_ = std::make_unique<Discriminator>(
        config_.discriminator, static_cast<size_t>(assembler_.alpha()),
        context_width, &rng_);
  }
  TrainConfig train_config = config_.training;
  train_config.seed = rng_.NextUint64();
  // The paper's alpha:1 MSE-to-adversarial ratio.
  if (train_config.adv_period <= 0) {
    train_config.adv_period = assembler_.alpha();
  }
  // The factory stamps out architecture-identical replicas for the
  // data-parallel MSE step; their weights are always overwritten from the
  // primary, so the fixed seed only affects dead initial values.
  const PredictorHparams replica_hparams = config_.predictor;
  const size_t replica_rows = static_cast<size_t>(assembler_.NumRows());
  const size_t replica_alpha = static_cast<size_t>(assembler_.alpha());
  trainer_ = std::make_unique<AdversarialTrainer>(
      predictor_.get(), discriminator_.get(), &assembler_, train_config,
      [replica_hparams, replica_rows, replica_alpha] {
        apots::Rng replica_rng(1);
        return MakePredictor(replica_hparams, replica_rows, replica_alpha,
                             &replica_rng);
      });
  SetInferenceConfig(config_.inference);
}

void ApotsModel::SetInferenceConfig(const InferenceConfig& config) {
  config_.inference = SanitizeInferenceConfig(config);
  RefreshQuantizedWeights();
  runtime_ = std::make_unique<InferenceRuntime>(
      predictor_.get(), &assembler_, config_.inference.batch_size);
  // The rebuilt runtime must keep answering registered contexts — bench
  // arms swap inference configs on a serving model mid-run.
  runtime_->SetContextTable(context_table_);
}

void ApotsModel::SetContextTable(const apots::data::ContextTable* table) {
  context_table_ = table;
  runtime_->SetContextTable(table);
}

std::vector<double> ApotsModel::PredictKmhItems(
    const std::vector<WorkItem>& items) {
  const Tensor scaled = runtime_->PredictItems(items);
  std::vector<double> out(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    out[i] = assembler_.UnscaleSpeed(scaled[i]);
  }
  return out;
}

void ApotsModel::RefreshQuantizedWeights() {
  predictor_->PrepareQuantized(config_.inference.quantize);
}

EpochStats ApotsModel::Train(const std::vector<long>& train_anchors) {
  FitFallback(train_anchors);
  EpochStats stats = trainer_->Train(train_anchors);
  RefreshQuantizedWeights();
  return stats;
}

Result<TrainReport> ApotsModel::TrainGuarded(
    const std::vector<long>& train_anchors) {
  FitFallback(train_anchors);
  Result<TrainReport> result = trainer_->TrainGuarded(train_anchors);
  RefreshQuantizedWeights();
  return result;
}

void ApotsModel::SetValidityMask(const apots::traffic::ValidityMask* mask) {
  assembler_.SetValidityMask(mask);
  // A mask change usually accompanies in-place dataset mutation (fault
  // injection); cached feature columns may now be stale.
  runtime_->InvalidateCache();
}

void ApotsModel::FitFallback(const std::vector<long>& train_anchors) {
  if (!config_.fallback.enabled) return;
  // Fit on the train anchors' observed prediction instants so the profile
  // never learns from fault-fabricated values.
  std::vector<long> intervals;
  intervals.reserve(train_anchors.size());
  for (long anchor : train_anchors) {
    const long t = anchor + assembler_.beta();
    if (assembler_.TargetObserved(anchor)) intervals.push_back(t);
  }
  if (intervals.empty()) {
    APOTS_LOG(Warning)
        << "fallback enabled but no observed train targets; fallback stays "
           "unfitted and predictions always use the predictor";
    return;
  }
  const Status status =
      fallback_model_.Fit(*dataset_, assembler_.target_road(), intervals);
  if (!status.ok()) {
    APOTS_LOG(Warning) << "fallback fit failed: " << status.ToString();
  }
}

std::vector<double> ApotsModel::PredictKmh(const std::vector<long>& anchors) {
  const Tensor scaled = runtime_->Predict(anchors);
  std::vector<double> out(anchors.size());
  for (size_t i = 0; i < anchors.size(); ++i) {
    out[i] = assembler_.UnscaleSpeed(scaled[i]);
  }
  last_fallback_count_ = 0;
  if (config_.fallback.enabled && fallback_model_.fitted() &&
      assembler_.validity_mask() != nullptr) {
    // Fallback substitution follows the runtime's batch grid: per-shard
    // counts are accumulated in ascending shard order, so the reported
    // count is identical whether the shards were evaluated serially or
    // out of order by the parallel arm.
    std::vector<size_t> shard_counts(runtime_->NumBatches(anchors.size()),
                                     0);
    runtime_->ForEachBatch(
        anchors.size(), [&](size_t shard, size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) {
            if (assembler_.WindowValidityRatio(anchors[i]) <
                config_.fallback.min_validity_ratio) {
              out[i] = fallback_model_.Predict(
                  *dataset_, anchors[i] + assembler_.beta());
              ++shard_counts[shard];
            }
          }
        });
    for (const size_t c : shard_counts) last_fallback_count_ += c;
  }
  return out;
}

Status ApotsModel::CopyWeightsFrom(ApotsModel& other) {
  std::vector<apots::nn::Parameter*> dst = predictor_->Parameters();
  std::vector<apots::nn::Parameter*> src = other.predictor_->Parameters();
  if (discriminator_ != nullptr && other.discriminator_ != nullptr) {
    for (auto* p : discriminator_->Parameters()) dst.push_back(p);
    for (auto* p : other.discriminator_->Parameters()) src.push_back(p);
  } else if ((discriminator_ == nullptr) != (other.discriminator_ == nullptr)) {
    return Status::InvalidArgument(
        "CopyWeightsFrom: one model has a discriminator, the other not");
  }
  if (dst.size() != src.size()) {
    return Status::InvalidArgument(
        StrFormat("CopyWeightsFrom: %zu vs %zu parameters", dst.size(),
                  src.size()));
  }
  for (size_t i = 0; i < dst.size(); ++i) {
    if (dst[i]->name != src[i]->name ||
        !dst[i]->value.SameShape(src[i]->value)) {
      return Status::InvalidArgument(
          StrFormat("CopyWeightsFrom: parameter %zu mismatch ('%s' vs '%s')",
                    i, dst[i]->name.c_str(), src[i]->name.c_str()));
    }
  }
  for (size_t i = 0; i < dst.size(); ++i) {
    dst[i]->value = src[i]->value;
  }
  RefreshQuantizedWeights();
  return Status::Ok();
}

std::vector<double> ApotsModel::TrueKmh(
    const std::vector<long>& anchors) const {
  std::vector<double> out(anchors.size());
  for (size_t i = 0; i < anchors.size(); ++i) {
    out[i] = dataset_->Speed(assembler_.target_road(),
                             anchors[i] + assembler_.beta());
  }
  return out;
}

std::vector<apots::nn::Parameter*> ApotsModel::TrainableParameters() {
  std::vector<apots::nn::Parameter*> params = predictor_->Parameters();
  if (discriminator_ != nullptr) {
    for (auto* p : discriminator_->Parameters()) params.push_back(p);
  }
  return params;
}

Status ApotsModel::Save(const std::string& path) {
  return apots::nn::SaveParameters(TrainableParameters(), path);
}

Status ApotsModel::Load(const std::string& path) {
  const Status status = apots::nn::LoadParameters(TrainableParameters(), path);
  if (status.ok()) RefreshQuantizedWeights();
  return status;
}

Result<apots::nn::CheckpointStore::RecoverInfo> ApotsModel::Recover(
    const apots::nn::CheckpointStore& store) {
  auto recovered = store.Recover(TrainableParameters());
  if (recovered.ok()) RefreshQuantizedWeights();
  return recovered;
}

size_t ApotsModel::NumWeights() {
  size_t n = apots::nn::CountWeights(predictor_->Parameters());
  if (discriminator_ != nullptr) {
    n += apots::nn::CountWeights(discriminator_->Parameters());
  }
  return n;
}

}  // namespace apots::core
