#include "attack/defense.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "data/features.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace apots::attack {

namespace {

using apots::core::ApotsConfig;
using apots::core::ApotsModel;
using apots::core::InferenceRuntime;
using apots::data::FeatureAssembler;
using apots::tensor::Tensor;
using apots::traffic::TrafficDataset;

/// Seeded Fisher-Yates prefix shuffle: the first `want` slots end up a
/// uniform sample without paying for a full shuffle of a large pool.
void SamplePrefix(std::vector<long>* pool, size_t want, apots::Rng* rng) {
  const size_t n = pool->size();
  for (size_t i = 0; i < want && i + 1 < n; ++i) {
    const size_t j = i + static_cast<size_t>(rng->UniformInt(n - i));
    std::swap((*pool)[i], (*pool)[j]);
  }
}

}  // namespace

Status DefenseConfig::Validate() const {
  if (const Status st = attack.Validate(); !st.ok()) return st;
  if (rounds <= 0) {
    return Status::InvalidArgument("defense rounds must be positive");
  }
  if (finetune_epochs <= 0) {
    return Status::InvalidArgument("finetune_epochs must be positive");
  }
  if (!(attack_fraction > 0.0f && attack_fraction <= 1.0f)) {
    return Status::InvalidArgument("attack_fraction must be in (0, 1]");
  }
  if (max_attack_anchors <= 0) {
    return Status::InvalidArgument("max_attack_anchors must be positive");
  }
  if (!(resample_fraction >= 0.0f && resample_fraction <= 1.0f)) {
    return Status::InvalidArgument("resample_fraction must be in [0, 1]");
  }
  if (resample_copies < 0) {
    return Status::InvalidArgument("resample_copies must be >= 0");
  }
  if (!(finetune_lr_scale > 0.0f && finetune_lr_scale <= 1.0f)) {
    return Status::InvalidArgument("finetune_lr_scale must be in (0, 1]");
  }
  return Status::Ok();
}

Result<DefenseReport> RdatDefense::Run(
    ApotsModel* model, const std::vector<long>& train_anchors) {
  if (const Status st = config_.Validate(); !st.ok()) return st;
  if (model == nullptr) {
    return Status::InvalidArgument("defense: model is null");
  }
  if (train_anchors.empty()) {
    return Status::InvalidArgument("defense: no train anchors");
  }
  const FeatureAssembler& clean_assembler = model->assembler();
  const TrafficDataset& clean = clean_assembler.dataset();
  const int target_road = clean_assembler.target_road();
  const int beta = clean_assembler.beta();
  apots::Rng rng(config_.seed);
  obs::Counter& rounds_run =
      obs::MetricsRegistry::Default().GetCounter("attack.defense.rounds");
  DefenseReport report;

  for (int round = 0; round < config_.rounds; ++round) {
    DefenseRoundStats round_stats;
    // (1) Subsample and attack the *current* weights.
    std::vector<long> pool = train_anchors;
    const size_t want = std::min(
        {pool.size(), static_cast<size_t>(config_.max_attack_anchors),
         std::max<size_t>(
             1, static_cast<size_t>(std::ceil(config_.attack_fraction *
                                              static_cast<double>(
                                                  pool.size()))))});
    SamplePrefix(&pool, want, &rng);
    std::vector<long> attacked_anchors(pool.begin(), pool.begin() + want);
    std::sort(attacked_anchors.begin(), attacked_anchors.end());
    attacked_anchors.erase(
        std::unique(attacked_anchors.begin(), attacked_anchors.end()),
        attacked_anchors.end());
    round_stats.attacked_anchors =
        static_cast<int>(attacked_anchors.size());

    Attacker attacker(config_.attack);
    AttackStats attack_stats;
    auto plan_result = attacker.BuildPgdPlan(model, attacked_anchors,
                                             /*attack_from=*/0,
                                             &attack_stats);
    if (!plan_result.ok()) return plan_result.status();
    report.attack_queries += attack_stats.queries;
    report.attack_grad_passes += attack_stats.grad_passes;
    round_stats.clean_mse = attack_stats.clean_loss;
    round_stats.attacked_mse = attack_stats.attacked_loss;

    // (2) Attacked training copy — with every fine-tune anchor's target
    // cell restored to clean truth. An anchor's target lies inside other
    // anchors' input windows, so the plan may have perturbed it; training
    // toward that value would be learning the attacker's answers.
    PerturbationPlan train_plan = std::move(plan_result).value();
    for (const long anchor : train_anchors) {
      if (train_plan.Covers(target_road, anchor + beta)) {
        train_plan.SetDelta(target_road, anchor + beta, 0.0f);
      }
    }
    TrafficDataset attacked = clean;
    train_plan.ApplyTo(&attacked, config_.attack.budget);

    // (3) Rank attacked anchors by attacked-model error (clean targets)
    // and duplicate the hardest into the fine-tune set.
    FeatureAssembler attacked_assembler(&attacked,
                                        clean_assembler.config());
    attacked_assembler.Fit();
    std::vector<long> finetune = train_anchors;
    if (config_.resample_copies > 0 && config_.resample_fraction > 0.0f) {
      InferenceRuntime runtime(&model->predictor(), &attacked_assembler,
                               model->config().inference.batch_size);
      const Tensor pred = runtime.Predict(attacked_anchors);
      const Tensor targets =
          clean_assembler.BatchTargets(attacked_anchors);
      std::vector<size_t> order(attacked_anchors.size());
      std::iota(order.begin(), order.end(), 0);
      std::vector<float> error(attacked_anchors.size());
      for (size_t i = 0; i < attacked_anchors.size(); ++i) {
        error[i] = std::fabs(pred[i] - targets[i]);
      }
      std::stable_sort(order.begin(), order.end(),
                       [&error](size_t a, size_t b) {
                         return error[a] > error[b];
                       });
      const size_t hardest = std::max<size_t>(
          1, static_cast<size_t>(std::ceil(
                 config_.resample_fraction *
                 static_cast<double>(attacked_anchors.size()))));
      for (size_t i = 0; i < hardest && i < order.size(); ++i) {
        for (int copy = 0; copy < config_.resample_copies; ++copy) {
          finetune.push_back(attacked_anchors[order[i]]);
        }
      }
      round_stats.resampled_anchors =
          static_cast<int>(finetune.size() - train_anchors.size());
    }

    // (4) Fine-tune on the attacked copy, guarded, then copy weights
    // back. Plain MSE: the adversarial GAN term tunes accuracy, not
    // robustness, and doubles the fine-tune cost.
    ApotsConfig finetune_config = model->config();
    finetune_config.training.adversarial = false;
    finetune_config.training.epochs = config_.finetune_epochs;
    finetune_config.training.learning_rate *= config_.finetune_lr_scale;
    finetune_config.training.guard.enabled = true;
    finetune_config.training.verbose = false;
    ApotsModel finetuned(&attacked, finetune_config);
    if (const Status st = finetuned.CopyWeightsFrom(*model); !st.ok()) {
      return st;
    }
    auto train_result = finetuned.TrainGuarded(finetune);
    if (!train_result.ok()) return train_result.status();
    round_stats.finetune_rollbacks = train_result.value().rollbacks;
    if (const Status st = model->CopyWeightsFrom(finetuned); !st.ok()) {
      return st;
    }
    report.rounds.push_back(round_stats);
    rounds_run.Add();
  }
  // Weights arrived via CopyWeightsFrom; refit the fallback baseline so
  // degraded-window serving stays consistent with the defended model.
  model->FitFallback(train_anchors);
  return report;
}

}  // namespace apots::attack
