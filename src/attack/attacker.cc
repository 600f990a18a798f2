#include "attack/attacker.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "data/features.h"
#include "nn/loss.h"
#include "nn/module.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace apots::attack {

namespace {

using apots::core::ApotsModel;
using apots::core::InferenceRuntime;
using apots::data::FeatureAssembler;
using apots::tensor::Tensor;
using apots::traffic::TrafficDataset;

struct AttackMetrics {
  obs::Counter& grad_passes;
  obs::Counter& queries;
  obs::Counter& plans_built;
  static AttackMetrics& Get() {
    auto& registry = obs::MetricsRegistry::Default();
    static AttackMetrics* metrics = new AttackMetrics{
        registry.GetCounter("attack.grad_passes"),
        registry.GetCounter("attack.queries"),
        registry.GetCounter("attack.plans_built"),
    };
    return *metrics;
  }
};

/// Everything one plan construction needs: a mutable dataset copy, an
/// assembler + zero-alloc runtime bound to it, and the clean targets the
/// loss is measured against (targets always come from the clean dataset —
/// the attacker moves inputs, never the goalposts).
struct AttackContext {
  const TrafficDataset* clean = nullptr;
  std::unique_ptr<TrafficDataset> attacked;
  std::unique_ptr<FeatureAssembler> assembler;
  std::unique_ptr<InferenceRuntime> runtime;
  std::vector<long> anchors;
  Tensor targets;  ///< [N, 1] scaled clean targets
  int target_road = 0;
  int num_adjacent = 0;
  int alpha = 0;
};

Status MakeContext(ApotsModel* model, const std::vector<long>& anchors,
                   AttackContext* ctx) {
  if (model == nullptr) {
    return Status::InvalidArgument("attack: model is null");
  }
  if (anchors.empty()) {
    return Status::InvalidArgument("attack: no anchors to attack");
  }
  const FeatureAssembler& clean_assembler = model->assembler();
  const TrafficDataset& dataset = clean_assembler.dataset();
  const int alpha = clean_assembler.alpha();
  const int beta = clean_assembler.beta();
  for (const long anchor : anchors) {
    if (anchor - alpha < 0 || anchor + beta >= dataset.num_intervals()) {
      return Status::InvalidArgument(
          StrFormat("attack: anchor %ld has no full window in the dataset",
                    anchor));
    }
  }
  ctx->clean = &dataset;
  ctx->anchors = anchors;
  std::sort(ctx->anchors.begin(), ctx->anchors.end());
  ctx->anchors.erase(
      std::unique(ctx->anchors.begin(), ctx->anchors.end()),
      ctx->anchors.end());
  ctx->attacked = std::make_unique<TrafficDataset>(dataset);
  ctx->assembler = std::make_unique<FeatureAssembler>(
      ctx->attacked.get(), clean_assembler.config());
  ctx->assembler->Fit();
  // Loss queries ride the batched zero-alloc path on the shared predictor,
  // so they probe the deployed model at the precision the model serves.
  ctx->runtime = std::make_unique<InferenceRuntime>(
      &model->predictor(), ctx->assembler.get(),
      model->config().inference.batch_size);
  ctx->targets = clean_assembler.BatchTargets(ctx->anchors);
  ctx->target_road = clean_assembler.target_road();
  ctx->num_adjacent = clean_assembler.config().num_adjacent;
  ctx->alpha = alpha;
  return Status::Ok();
}

/// The attackable rectangle: speed-window cells of the anchors, clipped
/// to intervals >= attack_from.
Result<PerturbationPlan> MakePlan(const AttackContext& ctx,
                                  long attack_from) {
  const long t_lo = std::max(attack_from, ctx.anchors.front() - ctx.alpha);
  const long t_hi = ctx.anchors.back() - 1;
  if (t_lo > t_hi) {
    return Status::InvalidArgument(
        StrFormat("attack: no attackable cells (attack_from %ld is past "
                  "every window)",
                  attack_from));
  }
  return PerturbationPlan(ctx.target_road - ctx.num_adjacent,
                          ctx.target_road + ctx.num_adjacent, t_lo, t_hi);
}

/// Rewrites the attacked copy as clean + plan (clamped) over the plan
/// rectangle. Cells the plan zeroed are restored to clean. The runtime's
/// cached columns go stale with the rewrite, so they are dropped.
void RewriteAttacked(AttackContext* ctx, const PerturbationPlan& plan,
                     const PlausibilityBudget& budget) {
  for (int road = plan.road_lo(); road <= plan.road_hi(); ++road) {
    for (long t = plan.t_lo(); t <= plan.t_hi(); ++t) {
      const float clean_speed = ctx->clean->Speed(road, t);
      const float poisoned =
          std::clamp(clean_speed + plan.Delta(road, t), budget.min_kmh,
                     budget.max_kmh);
      ctx->attacked->SetSpeed(road, t, poisoned);
    }
  }
  ctx->runtime->InvalidateCache();
}

/// Scaled-space MSE of the runtime's predictions against clean targets,
/// summed in ascending anchor order (thread-count independent).
double EvalLoss(AttackContext* ctx, AttackStats* stats) {
  const Tensor pred = ctx->runtime->Predict(ctx->anchors);
  double sum = 0.0;
  for (size_t i = 0; i < ctx->anchors.size(); ++i) {
    const double diff = static_cast<double>(pred[i]) -
                        static_cast<double>(ctx->targets[i]);
    sum += diff * diff;
  }
  if (stats != nullptr) stats->queries += ctx->anchors.size();
  AttackMetrics::Get().queries.Add(ctx->anchors.size());
  return sum / static_cast<double>(ctx->anchors.size());
}

float StepKmh(const AttackConfig& config) {
  if (config.step_kmh > 0.0f) return config.step_kmh;
  return std::max(0.5f, 2.5f * config.budget.epsilon_kmh /
                            static_cast<float>(config.steps));
}

constexpr size_t kGradBatch = 64;

}  // namespace

Status AttackConfig::Validate() const {
  if (const Status st = budget.Validate(); !st.ok()) return st;
  if (steps <= 0) {
    return Status::InvalidArgument("attack steps must be positive");
  }
  if (step_kmh < 0.0f || !std::isfinite(step_kmh)) {
    return Status::InvalidArgument("attack step_kmh must be >= 0");
  }
  if (spsa_samples <= 0) {
    return Status::InvalidArgument("spsa_samples must be positive");
  }
  if (spsa_c_kmh <= 0.0f || !std::isfinite(spsa_c_kmh)) {
    return Status::InvalidArgument("spsa_c_kmh must be positive");
  }
  return Status::Ok();
}

Result<PerturbationPlan> Attacker::BuildPgdPlan(
    ApotsModel* model, const std::vector<long>& anchors, long attack_from,
    AttackStats* stats) {
  if (const Status st = config_.Validate(); !st.ok()) return st;
  AttackContext ctx;
  if (const Status st = MakeContext(model, anchors, &ctx); !st.ok()) {
    return st;
  }
  auto plan_result = MakePlan(ctx, attack_from);
  if (!plan_result.ok()) return plan_result.status();
  PerturbationPlan plan = std::move(plan_result).value();

  if (stats != nullptr) stats->clean_loss = EvalLoss(&ctx, stats);
  // Gradient of the batch MSE w.r.t. every plan cell, accumulated across
  // overlapping windows. Rebuilt each step (the gradient moves with the
  // perturbation); sized once here.
  PerturbationPlan grad(plan.road_lo(), plan.road_hi(), plan.t_lo(),
                        plan.t_hi());
  const float step = StepKmh(config_);
  core::Predictor& predictor = model->predictor();
  const auto params = predictor.Parameters();
  apots::nn::ZeroAllGrads(params);

  for (int iter = 0; iter < config_.steps; ++iter) {
    grad.Scale(0.0f);
    // Serial ascending batch walk: deterministic accumulation order.
    for (size_t lo = 0; lo < ctx.anchors.size(); lo += kGradBatch) {
      const size_t hi = std::min(lo + kGradBatch, ctx.anchors.size());
      const std::vector<long> batch(ctx.anchors.begin() + lo,
                                    ctx.anchors.begin() + hi);
      const Tensor inputs = ctx.assembler->BatchMatrix(batch);
      std::vector<float> target_slice(hi - lo);
      for (size_t i = lo; i < hi; ++i) {
        target_slice[i - lo] = ctx.targets[i];
      }
      const Tensor targets = Tensor::FromMatrix(hi - lo, 1, target_slice);
      const Tensor outputs = predictor.Forward(inputs, /*training=*/true);
      const apots::nn::LossResult loss = apots::nn::MseLoss(outputs, targets);
      const Tensor input_grad = predictor.Backward(loss.grad);
      if (stats != nullptr) ++stats->grad_passes;
      AttackMetrics::Get().grad_passes.Add();
      // Scatter window-cell gradients onto dataset cells. The speed
      // scaler is affine with positive slope, so the sign of the
      // scaled-space gradient is the sign of the km/h-space gradient.
      const int rows = 2 * ctx.num_adjacent + 1;
      for (size_t i = lo; i < hi; ++i) {
        const long anchor = ctx.anchors[i];
        for (int row = 0; row < rows; ++row) {
          const int road = ctx.target_road - ctx.num_adjacent + row;
          for (int col = 0; col < ctx.alpha; ++col) {
            const long t = anchor - ctx.alpha + col;
            if (!grad.Covers(road, t)) continue;
            grad.AddDelta(road, t,
                          input_grad.At3(i - lo, static_cast<size_t>(row),
                                         static_cast<size_t>(col)));
          }
        }
      }
    }
    // Ascent on the loss: step along the gradient sign, then project.
    for (int road = plan.road_lo(); road <= plan.road_hi(); ++road) {
      for (long t = plan.t_lo(); t <= plan.t_hi(); ++t) {
        const float g = grad.Delta(road, t);
        if (g == 0.0f) continue;
        plan.AddDelta(road, t, g > 0.0f ? step : -step);
      }
    }
    plan.Project(config_.budget, *ctx.clean);
    RewriteAttacked(&ctx, plan, config_.budget);
  }
  // The predictor is a borrowed serving artifact: leave no gradient
  // residue behind for the next training step to trip over.
  apots::nn::ZeroAllGrads(params);

  if (stats != nullptr) stats->attacked_loss = EvalLoss(&ctx, stats);
  AttackMetrics::Get().plans_built.Add();
  return plan;
}

Result<PerturbationPlan> Attacker::BuildSpsaPlan(
    ApotsModel* model, const std::vector<long>& anchors, long attack_from,
    AttackStats* stats) {
  if (const Status st = config_.Validate(); !st.ok()) return st;
  AttackContext ctx;
  if (const Status st = MakeContext(model, anchors, &ctx); !st.ok()) {
    return st;
  }
  auto plan_result = MakePlan(ctx, attack_from);
  if (!plan_result.ok()) return plan_result.status();
  PerturbationPlan plan = std::move(plan_result).value();

  if (stats != nullptr) stats->clean_loss = EvalLoss(&ctx, stats);
  const float step = StepKmh(config_);
  const float c = config_.spsa_c_kmh;
  apots::Rng rng(config_.seed);
  PerturbationPlan probe(plan.road_lo(), plan.road_hi(), plan.t_lo(),
                         plan.t_hi());
  PerturbationPlan grad_est(plan.road_lo(), plan.road_hi(), plan.t_lo(),
                            plan.t_hi());

  for (int iter = 0; iter < config_.steps; ++iter) {
    grad_est.Scale(0.0f);
    for (int sample = 0; sample < config_.spsa_samples; ++sample) {
      // Rademacher probe direction over every plan cell.
      for (int road = plan.road_lo(); road <= plan.road_hi(); ++road) {
        for (long t = plan.t_lo(); t <= plan.t_hi(); ++t) {
          probe.SetDelta(road, t, rng.Bernoulli(0.5) ? 1.0f : -1.0f);
        }
      }
      // Paired queries at delta +- c * probe (physical clamp applied at
      // write time, like any reading the sensor would emit).
      PerturbationPlan plus = plan;
      PerturbationPlan minus = plan;
      for (int road = plan.road_lo(); road <= plan.road_hi(); ++road) {
        for (long t = plan.t_lo(); t <= plan.t_hi(); ++t) {
          const float d = probe.Delta(road, t);
          plus.AddDelta(road, t, c * d);
          minus.AddDelta(road, t, -c * d);
        }
      }
      RewriteAttacked(&ctx, plus, config_.budget);
      const double loss_plus = EvalLoss(&ctx, stats);
      RewriteAttacked(&ctx, minus, config_.budget);
      const double loss_minus = EvalLoss(&ctx, stats);
      const float scale =
          static_cast<float>((loss_plus - loss_minus) / (2.0 * c));
      for (int road = plan.road_lo(); road <= plan.road_hi(); ++road) {
        for (long t = plan.t_lo(); t <= plan.t_hi(); ++t) {
          grad_est.AddDelta(road, t, scale * probe.Delta(road, t));
        }
      }
    }
    for (int road = plan.road_lo(); road <= plan.road_hi(); ++road) {
      for (long t = plan.t_lo(); t <= plan.t_hi(); ++t) {
        const float g = grad_est.Delta(road, t);
        if (g == 0.0f) continue;
        plan.AddDelta(road, t, g > 0.0f ? step : -step);
      }
    }
    plan.Project(config_.budget, *ctx.clean);
    RewriteAttacked(&ctx, plan, config_.budget);
  }

  if (stats != nullptr) stats->attacked_loss = EvalLoss(&ctx, stats);
  AttackMetrics::Get().plans_built.Add();
  return plan;
}

}  // namespace apots::attack
