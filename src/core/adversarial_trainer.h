#ifndef APOTS_CORE_ADVERSARIAL_TRAINER_H_
#define APOTS_CORE_ADVERSARIAL_TRAINER_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/discriminator.h"
#include "core/predictor.h"
#include "core/train_guard.h"
#include "data/features.h"
#include "nn/optimizer.h"
#include "util/rng.h"
#include "util/status.h"

namespace apots::core {

/// Training-loop knobs. The defaults encode the paper's recipe: Adam at
/// lr 0.001 (Table I), and the footnote's alpha:1 ratio between the MSE
/// loss (per speed value) and the adversarial loss (per length-alpha
/// sequence) — realized here by interleaving one adversarial step after
/// every `adv_period` (= alpha) MSE minibatches.
struct TrainConfig {
  int epochs = 10;
  size_t batch_size = 64;
  float learning_rate = 0.001f;
  bool adversarial = false;
  /// Minibatches of plain MSE training per adversarial round. The paper's
  /// ratio alpha:1 (Section III footnote); 0 means "every batch".
  int adv_period = 12;
  /// Sequences per adversarial round (each costs alpha predictor passes).
  size_t adv_batch_size = 16;
  /// Extra multiplier on the generator's adversarial gradient.
  float adv_weight = 1.0f;
  /// Discriminator learning rate; D converges best slightly faster than P
  /// (it only sees a fraction of the minibatches).
  float d_learning_rate = 0.002f;
  /// Adversarial rounds that update only D before the predictor starts
  /// taking generator steps — a fresh D emits noise gradients.
  int adv_warmup_rounds = 20;
  /// When true, the generator's adversarial gradient is applied only to
  /// the last `beta` sequence positions — the entries whose target speeds
  /// fall outside the anchor's observable window. Off by default: every
  /// position of the sequence is a beta-ahead prediction and carries
  /// distribution signal; the option exists for ablation.
  bool adv_future_only = false;
  double grad_clip = 5.0;
  uint64_t seed = 1;
  bool verbose = false;
  /// Data-parallel micro-batching of the MSE minibatch step: when > 0,
  /// every minibatch is split into fixed contiguous shards of at most
  /// `micro_batch` anchors whose forward/backward passes run on
  /// per-worker predictor replicas (concurrently when the global
  /// ThreadPool has threads to spare) and whose gradients are reduced in
  /// ascending shard order. Shard boundaries and reduction order depend
  /// only on the batch — never on APOTS_NUM_THREADS — so seeded runs are
  /// bit-reproducible at any pool size. 0 (the default) keeps the
  /// original single-pass full-batch step, whose numerics the seed tests
  /// pin down. Requires a predictor factory (ApotsModel wires one up).
  size_t micro_batch = 0;
  /// Self-healing watchdog (NaN/explosion/collapse detection with
  /// checkpoint rollback). Off by default; see TrainGuarded.
  GuardConfig guard;
};

/// Per-epoch diagnostics.
struct EpochStats {
  double mse_loss = 0.0;        ///< mean MSE over minibatches
  double adv_loss_p = 0.0;      ///< mean generator adversarial loss
  double loss_d = 0.0;          ///< mean discriminator loss
  double d_real_accuracy = 0.0; ///< fraction of real sequences D got right
  double d_fake_accuracy = 0.0; ///< fraction of fake sequences D got right
  double seconds = 0.0;
};

/// Outcome of a guarded training run (see TrainGuarded).
struct TrainReport {
  EpochStats last;            ///< stats of the last healthy epoch
  int epochs_completed = 0;   ///< healthy epochs finished
  int rollbacks = 0;          ///< checkpoint restores performed
  /// True when the retry budget ran out and training stopped early at the
  /// last good checkpoint instead of finishing all epochs.
  bool stopped_early = false;
  float final_learning_rate = 0.0f;
  /// One line per divergence, e.g. "epoch 4: LossExplosion, lr -> 0.0002".
  std::vector<std::string> incidents;
};

/// Orchestrates APOTS training: minimizes J_P (Eq. 1 / Eq. 4) over the
/// predictor while maximizing J_D (Eq. 2) over the discriminator. When
/// `config.adversarial` is false this reduces to plain MSE training and
/// the discriminator may be null.
class AdversarialTrainer {
 public:
  /// Builds a fresh, architecturally identical predictor. Used to stamp
  /// out the per-worker replicas of the data-parallel MSE step; replica
  /// weights are overwritten from the primary before every sharded step,
  /// so the factory's own initialization does not matter.
  using PredictorFactory = std::function<std::unique_ptr<Predictor>()>;

  /// `predictor` and `discriminator` are borrowed; `discriminator` may be
  /// null iff `config.adversarial` is false. The assembler provides
  /// samples, targets, real sequences and D's conditioning context.
  /// `predictor_factory` may be null; then `config.micro_batch` must be 0.
  AdversarialTrainer(Predictor* predictor, Discriminator* discriminator,
                     const apots::data::FeatureAssembler* assembler,
                     TrainConfig config,
                     PredictorFactory predictor_factory = nullptr);

  /// Runs one epoch over a shuffled copy of `train_anchors`.
  EpochStats RunEpoch(const std::vector<long>& train_anchors);

  /// Runs `config.epochs` epochs; returns the last epoch's stats.
  EpochStats Train(const std::vector<long>& train_anchors);

  /// Like Train, but supervised by a TrainGuard when `config.guard.enabled`:
  /// the guard snapshots predictor+discriminator weights after every
  /// healthy epoch; on NaN/Inf losses, loss explosion, or discriminator
  /// collapse it rolls back to the last good checkpoint, backs off both
  /// learning rates, resets optimizer state, and retries the epoch within
  /// a bounded budget. When the budget runs out the model is left at its
  /// last good checkpoint and the report says so — structural failures
  /// (e.g. checkpoint/model mismatch) come back as an error Status.
  Result<TrainReport> TrainGuarded(const std::vector<long>& train_anchors);

  /// The predicted sequence S-hat_{t-a+b+1 : t+b} for each anchor
  /// ([N, alpha]); each column is one predictor invocation. A training
  /// forward: the predictor's Backward reads it.
  Tensor PredictedSequences(const std::vector<long>& anchors);

  /// True when `anchor`'s full adversarial window (alpha sub-anchors, each
  /// with its own alpha-length input) fits in the dataset.
  bool AdversarialEligible(long anchor) const;

  const TrainConfig& config() const { return config_; }

 private:
  /// All trainable parameters in checkpoint order: predictor first, then
  /// discriminator (when present).
  std::vector<apots::nn::Parameter*> AllParameters();

  /// One MSE minibatch step; returns the batch loss. Delegates to
  /// ShardedMseStep when data-parallel micro-batching is configured.
  double MseStep(const std::vector<long>& batch);

  /// Data-parallel MSE step: shards `batch` into micro-batches, runs each
  /// shard's forward/backward on a per-worker replica, reduces shard
  /// gradients into the primary predictor in ascending shard order
  /// (weighted by shard size so the sum equals the full-batch gradient),
  /// then clips and steps exactly like the serial path.
  double ShardedMseStep(const std::vector<long>& batch);

  /// Creates worker `worker`'s replica if absent and copies the primary
  /// weights (`primary`) into it. Called by each worker for its own slot
  /// only — lazily, on the worker's first shard of a step — so steps with
  /// fewer shards than pool workers never pay for unused replicas.
  void SyncReplica(size_t worker,
                   const std::vector<apots::nn::Parameter*>& primary);

  /// One adversarial round (D update then P generator update) on
  /// `anchors`; accumulates into `stats`.
  void AdversarialRound(const std::vector<long>& anchors, EpochStats* stats,
                        int* round_count);

  Predictor* predictor_;           // not owned
  int total_adv_rounds_ = 0;       ///< lifetime rounds, for the D warm-up
  PredictorFactory predictor_factory_;
  /// Per-worker predictor replicas for the sharded MSE step, indexed by
  /// ThreadPool worker id; grown lazily to the pool size.
  std::vector<std::unique_ptr<Predictor>> replicas_;
  Discriminator* discriminator_;   // not owned, may be null
  const apots::data::FeatureAssembler* assembler_;  // not owned
  TrainConfig config_;
  apots::nn::Adam predictor_opt_;
  apots::nn::Adam discriminator_opt_;
  apots::Rng rng_;
};

}  // namespace apots::core

#endif  // APOTS_CORE_ADVERSARIAL_TRAINER_H_
