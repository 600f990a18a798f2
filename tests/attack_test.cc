// The attack:: subsystem: plausibility-budget projection invariants
// across seeds, PGD/SPSA plans honoring the budget, bitwise PGD
// reproducibility on the reference kernel path, attack effectiveness, the
// served precision surviving plan construction, residual-detector
// calibration/flagging semantics, RDAT defense recovery against a
// transferred plan, and config validation.

#include "attack/attacker.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "attack/budget.h"
#include "attack/defense.h"
#include "attack/detector.h"
#include "core/apots_model.h"
#include "data/windowing.h"
#include "metrics/metrics.h"
#include "tensor/tensor_ops.h"
#include "traffic/dataset_generator.h"
#include "util/rng.h"

namespace apots::attack {
namespace {

using apots::core::ApotsConfig;
using apots::core::ApotsModel;
using apots::traffic::TrafficDataset;

TrafficDataset SmallDataset(uint64_t seed = 7) {
  return apots::traffic::GenerateDataset(
      apots::traffic::DatasetSpec::Small(seed));
}

/// One tiny trained model shared by the attack tests (training dominates
/// the test's wall clock, so build it once per suite).
struct Victim {
  explicit Victim(uint64_t seed = 7) : dataset(SmallDataset(seed)) {
    config.predictor = apots::core::PredictorHparams::Scaled(
        apots::core::PredictorType::kFc, 16);
    config.features = apots::data::FeatureConfig::Both(12, 3);
    config.features.num_adjacent = 1;
    config.training.adversarial = false;
    config.training.epochs = 2;
    config.training.verbose = false;
    split = apots::data::MakeSplit(dataset, 12, 3, 0.2,
                                   apots::data::SplitStrategy::kBlockedByDay,
                                   42);
    model = std::make_unique<ApotsModel>(&dataset, config);
    model->Train(split.train);
  }

  TrafficDataset dataset;
  ApotsConfig config;
  apots::data::SampleSplit split;
  std::unique_ptr<ApotsModel> model;
};

Victim& SharedVictim() {
  static Victim* victim = new Victim();
  return *victim;
}

/// Asserts every budget constraint a projected plan must satisfy: the
/// L-inf bound, the temporal smoothness chain, and physical clamps of
/// the perturbed speeds.
void ExpectWithinBudget(const PerturbationPlan& plan,
                        const PlausibilityBudget& budget,
                        const TrafficDataset& truth) {
  const float tol = 1e-4f;
  EXPECT_LE(plan.MaxAbsDelta(), budget.epsilon_kmh + tol);
  EXPECT_LE(plan.MaxTemporalStep(), budget.smooth_kmh + tol);
  for (int road = plan.road_lo(); road <= plan.road_hi(); ++road) {
    for (long t = plan.t_lo(); t <= plan.t_hi(); ++t) {
      const float poisoned = truth.Speed(road, t) + plan.Delta(road, t);
      EXPECT_GE(poisoned, budget.min_kmh - tol);
      EXPECT_LE(poisoned, budget.max_kmh + tol);
    }
  }
}

// --- PerturbationPlan / budget projection ---

TEST(PlausibilityBudgetTest, ProjectEnforcesBudgetAcrossSeeds) {
  const TrafficDataset truth = SmallDataset();
  PlausibilityBudget budget;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    PerturbationPlan plan(0, truth.num_roads() - 1, 100, 400);
    Rng rng(seed);
    for (int road = plan.road_lo(); road <= plan.road_hi(); ++road) {
      for (long t = plan.t_lo(); t <= plan.t_hi(); ++t) {
        // Wildly out-of-budget desires: +-60 km/h swings per cell.
        plan.SetDelta(road, t,
                      static_cast<float>(rng.Normal(0.0, 60.0)));
      }
    }
    plan.Project(budget, truth);
    ExpectWithinBudget(plan, budget, truth);
    EXPECT_GT(plan.NonzeroCells(), 0L) << "seed " << seed;
  }
}

TEST(PlausibilityBudgetTest, ProjectIsIdempotent) {
  const TrafficDataset truth = SmallDataset();
  PlausibilityBudget budget;
  PerturbationPlan plan(0, truth.num_roads() - 1, 200, 300);
  Rng rng(11);
  for (int road = plan.road_lo(); road <= plan.road_hi(); ++road) {
    for (long t = plan.t_lo(); t <= plan.t_hi(); ++t) {
      plan.SetDelta(road, t, static_cast<float>(rng.Normal(0.0, 40.0)));
    }
  }
  plan.Project(budget, truth);
  PerturbationPlan once = plan;
  plan.Project(budget, truth);
  for (int road = plan.road_lo(); road <= plan.road_hi(); ++road) {
    for (long t = plan.t_lo(); t <= plan.t_hi(); ++t) {
      EXPECT_EQ(plan.Delta(road, t), once.Delta(road, t));
    }
  }
}

TEST(PlausibilityBudgetTest, DeltaIsZeroOutsideRectangle) {
  PerturbationPlan plan(1, 2, 10, 20);
  plan.SetDelta(1, 10, 5.0f);
  EXPECT_EQ(plan.Delta(1, 10), 5.0f);
  EXPECT_EQ(plan.Delta(0, 10), 0.0f);
  EXPECT_EQ(plan.Delta(1, 9), 0.0f);
  EXPECT_EQ(plan.Delta(2, 21), 0.0f);
  EXPECT_FALSE(plan.Covers(0, 10));
  EXPECT_TRUE(plan.Covers(2, 20));
}

TEST(PlausibilityBudgetTest, ValidateRejectsMalformedBudgets) {
  PlausibilityBudget bad;
  bad.epsilon_kmh = -1.0f;
  EXPECT_FALSE(bad.Validate().ok());
  bad = PlausibilityBudget();
  bad.smooth_kmh = 0.0f;
  EXPECT_FALSE(bad.Validate().ok());
  bad = PlausibilityBudget();
  bad.max_kmh = bad.min_kmh;
  EXPECT_FALSE(bad.Validate().ok());
  bad = PlausibilityBudget();
  bad.epsilon_kmh = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(bad.Validate().ok());
  EXPECT_TRUE(PlausibilityBudget().Validate().ok());
}

// --- Attackers ---

TEST(AttackerTest, PgdPlanRespectsBudgetAndRaisesLoss) {
  Victim& victim = SharedVictim();
  AttackConfig config;
  config.steps = 4;
  Attacker attacker(config);
  AttackStats stats;
  auto plan =
      attacker.BuildPgdPlan(victim.model.get(), victim.split.test, 0, &stats);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ExpectWithinBudget(plan.value(), config.budget, victim.dataset);
  EXPECT_GT(plan.value().NonzeroCells(), 0L);
  EXPECT_GT(stats.attacked_loss, stats.clean_loss);
  EXPECT_GT(stats.grad_passes, 0u);
}

TEST(AttackerTest, SpsaPlanRespectsBudgetAcrossSeedsAndRaisesLoss) {
  Victim& victim = SharedVictim();
  for (uint64_t seed : {1u, 9u, 23u}) {
    AttackConfig config;
    config.steps = 3;
    config.spsa_samples = 4;
    config.seed = seed;
    Attacker attacker(config);
    AttackStats stats;
    auto plan = attacker.BuildSpsaPlan(victim.model.get(), victim.split.test,
                                       0, &stats);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ExpectWithinBudget(plan.value(), config.budget, victim.dataset);
    EXPECT_GT(stats.queries, 0u) << "seed " << seed;
    EXPECT_GT(stats.attacked_loss, stats.clean_loss) << "seed " << seed;
  }
}

TEST(AttackerTest, PgdIsBitwiseReproducibleOnReferenceKernels) {
  Victim& victim = SharedVictim();
  AttackConfig config;
  config.steps = 3;
  auto first = Attacker(config).BuildPgdPlan(victim.model.get(),
                                             victim.split.test, 0);
  auto second = Attacker(config).BuildPgdPlan(victim.model.get(),
                                              victim.split.test, 0);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const PerturbationPlan& a = first.value();
  const PerturbationPlan& b = second.value();
  ASSERT_EQ(a.road_lo(), b.road_lo());
  ASSERT_EQ(a.road_hi(), b.road_hi());
  ASSERT_EQ(a.t_lo(), b.t_lo());
  ASSERT_EQ(a.t_hi(), b.t_hi());
  for (int road = a.road_lo(); road <= a.road_hi(); ++road) {
    for (long t = a.t_lo(); t <= a.t_hi(); ++t) {
      // Bitwise, not approximate: identical inputs, identical plan.
      EXPECT_EQ(a.Delta(road, t), b.Delta(road, t))
          << "road " << road << " t " << t;
    }
  }
}

TEST(AttackerTest, AttackFromShieldsEarlierIntervals) {
  Victim& victim = SharedVictim();
  const long attack_from = victim.split.test.front();
  AttackConfig config;
  config.steps = 2;
  auto plan = Attacker(config).BuildPgdPlan(victim.model.get(),
                                            victim.split.test, attack_from);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_GE(plan.value().t_lo(), attack_from);
}

TEST(AttackerTest, PgdPlanLeavesServedPrecisionIntact) {
  // The attack's loss queries share the served predictor; building a plan
  // must leave it serving the precision its model is configured for
  // rather than re-packing it to fp32.
  const TrafficDataset dataset = SmallDataset();
  ApotsConfig config;
  config.predictor = apots::core::PredictorHparams::Scaled(
      apots::core::PredictorType::kFc, 16);
  config.features = apots::data::FeatureConfig::Both(12, 3);
  config.features.num_adjacent = 1;
  config.inference.quantize = apots::tensor::QuantMode::kInt8;
  ApotsModel model(&dataset, config);
  const auto split = apots::data::MakeSplit(
      dataset, 12, 3, 0.2, apots::data::SplitStrategy::kBlockedByDay, 42);
  const std::vector<long> anchors(
      split.test.begin(),
      split.test.begin() + std::min<size_t>(48, split.test.size()));
  const std::vector<double> served = model.PredictKmh(anchors);
  // Premise: same seed, same weights, but fp32 answers differ — so a
  // silent drop to fp32 cannot pass unnoticed.
  config.inference.quantize = apots::tensor::QuantMode::kOff;
  ApotsModel fp32(&dataset, config);
  ASSERT_NE(fp32.PredictKmh(anchors), served);

  AttackConfig attack;
  attack.steps = 1;
  ASSERT_TRUE(Attacker(attack).BuildPgdPlan(&model, anchors, 0).ok());
  EXPECT_EQ(model.PredictKmh(anchors), served);
}

TEST(AttackerTest, ValidateRejectsMalformedConfigs) {
  AttackConfig config;
  config.steps = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = AttackConfig();
  config.step_kmh = -1.0f;
  EXPECT_FALSE(config.Validate().ok());
  config = AttackConfig();
  config.spsa_samples = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = AttackConfig();
  config.spsa_c_kmh = 0.0f;
  EXPECT_FALSE(config.Validate().ok());
  config = AttackConfig();
  config.budget.epsilon_kmh = 0.0f;
  EXPECT_FALSE(config.Validate().ok());
  EXPECT_TRUE(AttackConfig().Validate().ok());
}

// --- ResidualDetector ---

TEST(ResidualDetectorTest, FlagsSustainedShiftNotCleanTraffic) {
  DetectorConfig config;
  ResidualDetector detector(2, config);
  // Calibrate both roads on honest residual noise around zero.
  Rng rng(5);
  for (int i = 0; i < 4 * config.min_observations; ++i) {
    const float noise = static_cast<float>(rng.Normal(0.0, 1.5));
    detector.Prime(0, 60.0f + noise, 60.0f);
    detector.Prime(1, 60.0f + noise, 60.0f);
  }
  // Road 0 takes a sustained +20 km/h poisoning; road 1 stays honest.
  for (int i = 0; i < 10; ++i) {
    detector.Observe(0, 80.0f, 60.0f);
    detector.Observe(1, 60.0f + static_cast<float>(rng.Normal(0.0, 1.5)),
                     60.0f);
  }
  EXPECT_TRUE(detector.Flagged(0));
  EXPECT_FALSE(detector.Flagged(1));
  EXPECT_EQ(detector.FlaggedRoads(), std::vector<int>{0});
  EXPECT_EQ(detector.stats().flagged_roads, 1);
  EXPECT_EQ(detector.stats().observed, 20u);
  EXPECT_GE(detector.stats().anomalous, 3u);
}

TEST(ResidualDetectorTest, AnomalousRecordsDoNotWalkTheBaseline) {
  DetectorConfig config;
  ResidualDetector detector(1, config);
  for (int i = 0; i < 2 * config.min_observations; ++i) {
    detector.Prime(0, 60.0f, 60.0f);
  }
  // A long poisoning run must not recalibrate the EMAs: the z-score of
  // the shifted records stays high from first to last.
  const double first = detector.Observe(0, 80.0f, 60.0f);
  double last = first;
  for (int i = 0; i < 200; ++i) last = detector.Observe(0, 80.0f, 60.0f);
  EXPECT_GT(first, config.z_threshold);
  EXPECT_GE(last, 0.9 * first);
  EXPECT_TRUE(detector.Flagged(0));
  // Sticky: one honest record does not clear the flag.
  detector.Observe(0, 60.0f, 60.0f);
  EXPECT_TRUE(detector.Flagged(0));
  detector.Reset();
  EXPECT_FALSE(detector.Flagged(0));
  EXPECT_EQ(detector.stats().observed, 0u);
}

TEST(ResidualDetectorTest, CalibrationPhaseScoresZero) {
  DetectorConfig config;
  ResidualDetector detector(1, config);
  for (int i = 0; i < config.min_observations - 1; ++i) {
    EXPECT_EQ(detector.Observe(0, 95.0f, 60.0f), 0.0);
  }
  EXPECT_FALSE(detector.Flagged(0));
}

TEST(ResidualDetectorTest, ValidateRejectsMalformedConfigs) {
  DetectorConfig config;
  config.z_threshold = 0.0f;
  EXPECT_FALSE(config.Validate().ok());
  config = DetectorConfig();
  config.ema_alpha = 1.0f;
  EXPECT_FALSE(config.Validate().ok());
  config = DetectorConfig();
  config.min_observations = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = DetectorConfig();
  config.flag_after = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = DetectorConfig();
  config.dev_floor_kmh = 0.0f;
  EXPECT_FALSE(config.Validate().ok());
  EXPECT_TRUE(DetectorConfig().Validate().ok());
}

// --- RdatDefense ---

TEST(RdatDefenseTest, RecoversAgainstTransferredPlan) {
  // Private victim: the defense mutates the model's weights.
  Victim victim(13);
  AttackConfig attack_config;
  attack_config.steps = 4;
  Attacker attacker(attack_config);
  auto plan =
      attacker.BuildPgdPlan(victim.model.get(), victim.split.test, 0);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  const auto truths = victim.model->TrueKmh(victim.split.test);
  TrafficDataset attacked = victim.dataset;
  plan.value().ApplyTo(&attacked, attack_config.budget);
  const auto mae_on = [&](const TrafficDataset& dataset) {
    ApotsModel eval(&dataset, victim.config);
    EXPECT_TRUE(eval.CopyWeightsFrom(*victim.model).ok());
    return apots::metrics::Compute(eval.PredictKmh(victim.split.test),
                                   truths)
        .mae;
  };
  const double clean_mae = mae_on(victim.dataset);
  const double attacked_mae = mae_on(attacked);
  ASSERT_GT(attacked_mae, clean_mae);

  DefenseConfig defense_config;
  defense_config.attack = attack_config;
  defense_config.rounds = 2;
  defense_config.finetune_epochs = 2;
  RdatDefense defense(defense_config);
  auto report = defense.Run(victim.model.get(), victim.split.train);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().rounds.size(), 2u);
  EXPECT_GT(report.value().attack_grad_passes, 0u);

  // The transferred plan (fixed against the undefended weights) must
  // lose bite after fine-tuning.
  const double defended_transfer_mae = mae_on(attacked);
  EXPECT_LT(defended_transfer_mae, attacked_mae);
}

TEST(RdatDefenseTest, ValidateRejectsMalformedConfigs) {
  DefenseConfig config;
  config.rounds = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = DefenseConfig();
  config.finetune_epochs = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = DefenseConfig();
  config.attack_fraction = 0.0f;
  EXPECT_FALSE(config.Validate().ok());
  config = DefenseConfig();
  config.resample_fraction = 1.5f;
  EXPECT_FALSE(config.Validate().ok());
  config = DefenseConfig();
  config.finetune_lr_scale = 0.0f;
  EXPECT_FALSE(config.Validate().ok());
  config = DefenseConfig();
  config.attack.steps = -1;
  EXPECT_FALSE(config.Validate().ok());
  EXPECT_TRUE(DefenseConfig().Validate().ok());
}

}  // namespace
}  // namespace apots::attack
