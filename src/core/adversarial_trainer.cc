#include "core/adversarial_trainer.h"

#include <algorithm>
#include <cmath>

#include "nn/activations.h"
#include "nn/loss.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace apots::core {

using apots::data::FeatureAssembler;
using apots::nn::LossResult;
using apots::tensor::Tensor;

namespace {

/// Training-loop instruments (DESIGN.md §12): per-step latency
/// histograms, per-epoch loss gauges, and guard counters.
struct TrainMetrics {
  obs::Histogram& mse_step_ms;
  obs::Histogram& adv_round_ms;
  obs::Histogram& epoch_seconds;
  obs::Gauge& loss_mse;
  obs::Gauge& loss_adv_p;
  obs::Gauge& loss_d;
  obs::Counter& epochs;
  obs::Counter& rollbacks;
  obs::Counter& incidents;
  static TrainMetrics& Get() {
    auto& registry = obs::MetricsRegistry::Default();
    // Epochs run minutes, not milliseconds: widen that histogram's range
    // so long epochs do not pile into the overflow bucket.
    obs::HistogramOptions epoch_opts;
    epoch_opts.min = 1e-3;
    epoch_opts.max = 36e3;  // seconds scale: 1ms .. 10h
    static TrainMetrics* metrics = new TrainMetrics{
        registry.GetHistogram("train.mse_step_ms"),
        registry.GetHistogram("train.adv_round_ms"),
        registry.GetHistogram("train.epoch_seconds", epoch_opts),
        registry.GetGauge("train.loss_mse"),
        registry.GetGauge("train.loss_adv_p"),
        registry.GetGauge("train.loss_d"),
        registry.GetCounter("train.epochs"),
        registry.GetCounter("train.rollbacks"),
        registry.GetCounter("train.incidents"),
    };
    return *metrics;
  }
};

}  // namespace

AdversarialTrainer::AdversarialTrainer(Predictor* predictor,
                                       Discriminator* discriminator,
                                       const FeatureAssembler* assembler,
                                       TrainConfig config,
                                       PredictorFactory predictor_factory)
    : predictor_(predictor),
      predictor_factory_(std::move(predictor_factory)),
      discriminator_(discriminator),
      assembler_(assembler),
      config_(config),
      predictor_opt_(config.learning_rate),
      discriminator_opt_(config.d_learning_rate),
      rng_(config.seed) {
  APOTS_CHECK(predictor != nullptr);
  APOTS_CHECK(assembler != nullptr);
  if (config_.adversarial) {
    APOTS_CHECK(discriminator != nullptr)
        << "adversarial training requires a discriminator";
  }
  if (config_.adv_period <= 0) config_.adv_period = 1;
  if (config_.micro_batch > 0) {
    APOTS_CHECK(predictor_factory_ != nullptr)
        << "micro_batch > 0 needs a predictor factory for worker replicas";
  }
}

void AdversarialTrainer::SyncReplica(
    size_t worker, const std::vector<apots::nn::Parameter*>& primary) {
  if (replicas_[worker] == nullptr) {
    replicas_[worker] = predictor_factory_();
    APOTS_CHECK(replicas_[worker] != nullptr);
  }
  const auto params = replicas_[worker]->Parameters();
  APOTS_CHECK_EQ(params.size(), primary.size())
      << "replica architecture differs from the primary predictor";
  for (size_t p = 0; p < params.size(); ++p) {
    APOTS_CHECK(params[p]->value.SameShape(primary[p]->value));
    params[p]->value = primary[p]->value;
  }
}

double AdversarialTrainer::ShardedMseStep(const std::vector<long>& batch) {
  const size_t total = batch.size();
  const size_t micro = config_.micro_batch;
  const size_t num_shards = (total + micro - 1) / micro;
  ThreadPool& pool = GlobalPool();
  // Every shard runs on a replica — never on the primary — because the
  // primary's grads may already hold the accumulated adversarial term,
  // which the per-shard ZeroAllGrads below would wipe out.
  //
  // Replica slots are grown here on the calling thread; each worker then
  // creates/syncs only its own slot on its first claimed shard. Syncing
  // lazily matters: a batch of 64 at micro_batch 32 yields 2 shards, and
  // eagerly copying the full weight set into every pool replica each step
  // was the dominant cost of the parallel arm on small machines.
  if (replicas_.size() < pool.num_threads()) {
    replicas_.resize(pool.num_threads());
  }
  const auto primary_values = predictor_->Parameters();
  std::vector<char> synced(pool.num_threads(), 0);

  std::vector<double> shard_sq_error(num_shards, 0.0);
  std::vector<std::vector<Tensor>> shard_grads(num_shards);
  pool.ParallelFor(
      0, num_shards, 1, [&](size_t s0, size_t s1, size_t worker) {
        if (!synced[worker]) {
          // Distinct slot per worker; primary weights are read-only during
          // the region, so concurrent syncs never race.
          SyncReplica(worker, primary_values);
          synced[worker] = 1;
        }
        Predictor* replica = replicas_[worker].get();
        const auto params = replica->Parameters();
        for (size_t s = s0; s < s1; ++s) {
          const size_t lo = s * micro;
          const size_t hi = std::min(total, lo + micro);
          const std::vector<long> shard(batch.begin() + lo,
                                        batch.begin() + hi);
          apots::nn::ZeroAllGrads(params);
          const Tensor inputs = assembler_->BatchMatrix(shard);
          const Tensor targets = assembler_->BatchTargets(shard);
          const Tensor outputs = replica->Forward(inputs, /*training=*/true);
          const LossResult loss = apots::nn::MseLoss(outputs, targets);
          replica->Backward(loss.grad);
          shard_sq_error[s] = loss.value * static_cast<double>(hi - lo);
          shard_grads[s].reserve(params.size());
          for (const auto* p : params) shard_grads[s].push_back(p->grad);
        }
      });

  // Reduce in ascending shard order — fixed regardless of which worker
  // computed which shard — weighting each shard by its size so the total
  // equals the full-batch mean-squared-error gradient.
  const auto primary = predictor_->Parameters();
  double sq_error = 0.0;
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t lo = s * micro;
    const size_t hi = std::min(total, lo + micro);
    const float weight =
        static_cast<float>(hi - lo) / static_cast<float>(total);
    for (size_t p = 0; p < primary.size(); ++p) {
      apots::tensor::Axpy(&primary[p]->grad, shard_grads[s][p], weight);
    }
    sq_error += shard_sq_error[s];
  }
  apots::nn::ClipGradNorm(primary, config_.grad_clip);
  predictor_opt_.StepAndZero(primary);
  return sq_error / static_cast<double>(total);
}

bool AdversarialTrainer::AdversarialEligible(long anchor) const {
  // Sub-anchors run from anchor - alpha + 1 to anchor; the earliest one
  // needs alpha intervals of history.
  const int alpha = assembler_->alpha();
  return anchor - alpha + 1 - alpha >= 0;
}

Tensor AdversarialTrainer::PredictedSequences(
    const std::vector<long>& anchors) {
  const int alpha = assembler_->alpha();
  // Stack all sub-anchors into one predictor batch of size N * alpha; the
  // reshape back to [N, alpha] yields one predicted sequence per anchor.
  std::vector<long> sub_anchors;
  sub_anchors.reserve(anchors.size() * static_cast<size_t>(alpha));
  for (long anchor : anchors) {
    APOTS_CHECK(AdversarialEligible(anchor));
    for (int i = 0; i < alpha; ++i) {
      sub_anchors.push_back(anchor - alpha + 1 + i);
    }
  }
  const Tensor inputs = assembler_->BatchMatrix(sub_anchors);
  // [N*alpha, 1]. The predictor records its own copy of `inputs`, which
  // the generator step's Backward reads after this local is gone.
  const Tensor outputs = predictor_->Forward(inputs, /*training=*/true);
  return outputs.Reshape({anchors.size(), static_cast<size_t>(alpha)});
}

double AdversarialTrainer::MseStep(const std::vector<long>& batch) {
  obs::TraceSpan span("train.mse_step");
  obs::ScopedTimer timer(TrainMetrics::Get().mse_step_ms);
  if (config_.micro_batch > 0 && batch.size() > config_.micro_batch) {
    return ShardedMseStep(batch);
  }
  const Tensor inputs = assembler_->BatchMatrix(batch);
  const Tensor targets = assembler_->BatchTargets(batch);
  const Tensor outputs = predictor_->Forward(inputs, /*training=*/true);
  const LossResult loss = apots::nn::MseLoss(outputs, targets);
  predictor_->Backward(loss.grad);
  auto params = predictor_->Parameters();
  apots::nn::ClipGradNorm(params, config_.grad_clip);
  predictor_opt_.StepAndZero(params);
  return loss.value;
}

void AdversarialTrainer::AdversarialRound(const std::vector<long>& anchors,
                                          EpochStats* stats,
                                          int* round_count) {
  if (anchors.empty()) return;
  obs::TraceSpan span("train.adv_round");
  obs::ScopedTimer timer(TrainMetrics::Get().adv_round_ms);
  const size_t n = anchors.size();
  // Shared conditioning context (E_{t-alpha:t-1} of Eq. 4, without the
  // target road's own speed history — see FeatureAssembler::BatchContext).
  const Tensor context = assembler_->BatchContext(anchors);

  // --- Discriminator step (maximize J_D, Eq. 2) ---
  const Tensor real_seq = assembler_->BatchRealSequences(anchors);
  // Fake sequences. One predictor forward serves both steps: D's step
  // leaves the predictor's weights alone, so the generator step below
  // would recompute the same outputs, and this forward's record is what
  // its backward reads.
  const Tensor fake_seq = PredictedSequences(anchors);

  const Tensor real_logits = discriminator_->Forward(real_seq, context);
  const LossResult real_loss = apots::nn::BceWithLogitsLoss(
      real_logits, Tensor::Full({n, 1}, 1.0f));
  discriminator_->Backward(real_loss.grad);

  const Tensor fake_logits = discriminator_->Forward(fake_seq, context);
  const LossResult fake_loss = apots::nn::BceWithLogitsLoss(
      fake_logits, Tensor::Full({n, 1}, 0.0f));
  discriminator_->Backward(fake_loss.grad);

  auto d_params = discriminator_->Parameters();
  apots::nn::ClipGradNorm(d_params, config_.grad_clip);
  discriminator_opt_.StepAndZero(d_params);

  // D accuracy diagnostics (logit > 0 <=> "real").
  size_t real_correct = 0, fake_correct = 0;
  for (size_t i = 0; i < n; ++i) {
    if (real_logits[i] > 0.0f) ++real_correct;
    if (fake_logits[i] <= 0.0f) ++fake_correct;
  }

  // --- Generator (predictor) adversarial step: the second term of J_P
  // (Eq. 1), non-saturating form. ---
  // --- Generator (predictor) adversarial gradient: the second term of
  // J_P (Eq. 1), non-saturating form. The gradient is only ACCUMULATED
  // here; the caller's next MSE minibatch adds the first term of J_P and
  // takes one combined optimizer step — keeping the two terms at their
  // configured ratio under Adam's scale-invariant updates.
  double gen_loss_value = 0.0;
  if (total_adv_rounds_++ >= config_.adv_warmup_rounds) {
    const Tensor live_logits = discriminator_->Forward(fake_seq, context);
    const LossResult gen_loss =
        apots::nn::AdversarialGeneratorLoss(live_logits);
    gen_loss_value = gen_loss.value;
    Tensor grad_seq = discriminator_->Backward(gen_loss.grad);
    // Normalize the conduit gradient to a fixed norm so the MSE:adv ratio
    // is exactly adv_weight regardless of D's internal scale, then route
    // it through the stacked predictor batch.
    const double norm = [&grad_seq] {
      double acc = 0.0;
      for (size_t i = 0; i < grad_seq.size(); ++i) {
        acc += static_cast<double>(grad_seq[i]) * grad_seq[i];
      }
      return std::sqrt(acc);
    }();
    const size_t alpha = static_cast<size_t>(assembler_->alpha());
    if (config_.adv_future_only) {
      // Ablation: keep only the last beta positions (targets outside the
      // anchor's observable window).
      const size_t beta = static_cast<size_t>(assembler_->beta());
      const size_t first_future = beta >= alpha ? 0 : alpha - beta;
      float* g = grad_seq.data();
      for (size_t row = 0; row < n; ++row) {
        for (size_t col = 0; col < first_future; ++col) {
          g[row * alpha + col] = 0.0f;
        }
      }
    }
    if (norm > 1e-12) {
      grad_seq = apots::tensor::Scale(
          grad_seq, static_cast<float>(config_.adv_weight / norm));
    }
    // The discriminator was only a conduit here: drop its gradients.
    apots::nn::ZeroAllGrads(discriminator_->Parameters());
    predictor_->Backward(grad_seq.Reshape({n * alpha, 1}));
    // No optimizer step: gradients stay accumulated for the caller.
  }

  stats->loss_d += 0.5 * (real_loss.value + fake_loss.value);
  stats->adv_loss_p += gen_loss_value;
  stats->d_real_accuracy += static_cast<double>(real_correct) / n;
  stats->d_fake_accuracy += static_cast<double>(fake_correct) / n;
  ++*round_count;
}

EpochStats AdversarialTrainer::RunEpoch(
    const std::vector<long>& train_anchors) {
  APOTS_CHECK(!train_anchors.empty());
  obs::TraceSpan span("train.epoch");
  apots::Stopwatch watch;
  EpochStats stats;

  std::vector<size_t> order(train_anchors.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng_.Shuffle(&order);

  // Adversarial-eligible anchors (enough history for the full sequence).
  std::vector<long> eligible;
  if (config_.adversarial) {
    for (long a : train_anchors) {
      if (AdversarialEligible(a)) eligible.push_back(a);
    }
  }

  int batch_count = 0;
  int adv_rounds = 0;
  double mse_sum = 0.0;
  std::vector<long> batch;
  batch.reserve(config_.batch_size);
  for (size_t i = 0; i < order.size(); ++i) {
    batch.push_back(train_anchors[order[i]]);
    if (batch.size() < config_.batch_size && i + 1 < order.size()) continue;
    mse_sum += MseStep(batch);
    ++batch_count;
    batch.clear();

    if (config_.adversarial && !eligible.empty() &&
        batch_count % config_.adv_period == 0) {
      // Sample the round's sequences from the eligible pool.
      std::vector<long> round;
      const size_t round_size =
          std::min(config_.adv_batch_size, eligible.size());
      for (size_t k = 0; k < round_size; ++k) {
        round.push_back(
            eligible[static_cast<size_t>(rng_.UniformInt(eligible.size()))]);
      }
      AdversarialRound(round, &stats, &adv_rounds);
    }
  }

  stats.mse_loss = batch_count > 0 ? mse_sum / batch_count : 0.0;
  if (adv_rounds > 0) {
    stats.adv_loss_p /= adv_rounds;
    stats.loss_d /= adv_rounds;
    stats.d_real_accuracy /= adv_rounds;
    stats.d_fake_accuracy /= adv_rounds;
  }
  stats.seconds = watch.ElapsedSeconds();
  TrainMetrics& metrics = TrainMetrics::Get();
  metrics.epochs.Add();
  metrics.epoch_seconds.Record(stats.seconds);
  metrics.loss_mse.Set(stats.mse_loss);
  metrics.loss_adv_p.Set(stats.adv_loss_p);
  metrics.loss_d.Set(stats.loss_d);
  return stats;
}

EpochStats AdversarialTrainer::Train(const std::vector<long>& train_anchors) {
  EpochStats last;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    last = RunEpoch(train_anchors);
    if (config_.verbose) {
      APOTS_LOG(Info) << "epoch " << epoch + 1 << "/" << config_.epochs
                      << " mse=" << last.mse_loss
                      << " adv_p=" << last.adv_loss_p
                      << " d=" << last.loss_d << " ("
                      << last.seconds << "s)";
    }
  }
  return last;
}

std::vector<apots::nn::Parameter*> AdversarialTrainer::AllParameters() {
  std::vector<apots::nn::Parameter*> params = predictor_->Parameters();
  if (discriminator_ != nullptr) {
    for (auto* p : discriminator_->Parameters()) params.push_back(p);
  }
  return params;
}

Result<TrainReport> AdversarialTrainer::TrainGuarded(
    const std::vector<long>& train_anchors) {
  TrainReport report;
  if (!config_.guard.enabled) {
    report.last = Train(train_anchors);
    report.epochs_completed = config_.epochs;
    report.final_learning_rate = predictor_opt_.learning_rate();
    return report;
  }

  TrainGuard guard(config_.guard);
  guard.Snapshot(AllParameters());  // epoch-0 fallback: initial weights
  int epoch = 0;
  while (epoch < config_.epochs) {
    const EpochStats stats = RunEpoch(train_anchors);
    const GuardVerdict verdict = guard.Inspect(stats, config_.adversarial);
    if (verdict == GuardVerdict::kHealthy) {
      guard.Snapshot(AllParameters());
      report.last = stats;
      ++report.epochs_completed;
      ++epoch;
      if (config_.verbose) {
        APOTS_LOG(Info) << "epoch " << epoch << "/" << config_.epochs
                        << " mse=" << stats.mse_loss << " adv_p="
                        << stats.adv_loss_p << " d=" << stats.loss_d;
      }
      continue;
    }
    if (!guard.RetryBudgetLeft()) {
      // Out of retries: leave the model at its last good weights rather
      // than the diverged ones, and report the truncated run.
      APOTS_RETURN_IF_ERROR(guard.RestoreCheckpoint(AllParameters()));
      report.stopped_early = true;
      TrainMetrics::Get().incidents.Add();
      report.incidents.push_back(StrFormat(
          "epoch %d: %s, retry budget exhausted — stopping at last good "
          "checkpoint",
          epoch + 1, GuardVerdictName(verdict)));
      APOTS_LOG(Warning) << report.incidents.back();
      break;
    }
    APOTS_RETURN_IF_ERROR(guard.Rollback(AllParameters()));
    const float p_lr =
        predictor_opt_.learning_rate() * config_.guard.lr_backoff;
    predictor_opt_.set_learning_rate(p_lr);
    predictor_opt_.ResetState();
    discriminator_opt_.set_learning_rate(discriminator_opt_.learning_rate() *
                                         config_.guard.lr_backoff);
    discriminator_opt_.ResetState();
    ++report.rollbacks;
    TrainMetrics::Get().rollbacks.Add();
    TrainMetrics::Get().incidents.Add();
    report.incidents.push_back(
        StrFormat("epoch %d: %s, rolled back, lr -> %g", epoch + 1,
                  GuardVerdictName(verdict), static_cast<double>(p_lr)));
    APOTS_LOG(Warning) << report.incidents.back();
  }
  report.final_learning_rate = predictor_opt_.learning_rate();
  return report;
}

}  // namespace apots::core
