// Adversarial robustness bench (PR 6). Offline attack arms plus two
// serving arms, one machine-readable report (default
// bench_out/perf_attack.json) that CI archives and gates on:
//   clean             MAE of the trained model on the honest test split
//   attacked          MAE under a white-box PGD plan at the default
//                     sensor-plausibility budget; gate: mae_inflation
//                     (attacked / clean) >= 2.0
//   attacked_spsa     same budget, black-box SPSA attacker (query-only)
//   defended          RDAT fine-tuning, then re-measure: the transferred
//                     plan (fixed against the undefended weights — the
//                     poisoned-feed scenario) and an adaptive re-attack
//                     against the defended weights; gate: recovery_ratio
//                     (transfer) >= 0.5
//   serve_poisoned    full harness with the PGD plan wired into the feed
//                     (FeedFaultSpec::poison); the residual detector must
//                     flag attacked roads
//   clean_bitwise     attack wiring enabled but feed poisoning off: every
//                     supervisor response must stay bitwise identical to
//                     InferenceRuntime::Predict via the model facade
//
// Flags: --perf_json[=path] selects the output file; --quick shrinks the
// dataset and training for CI smoke runs (gates hold in both sizes).

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "attack/attacker.h"
#include "attack/defense.h"
#include "core/apots_model.h"
#include "data/windowing.h"
#include "metrics/metrics.h"
#include "serve/harness.h"
#include "util/stopwatch.h"

namespace {

using namespace apots;

traffic::DatasetSpec BenchSpec(bool quick) {
  traffic::DatasetSpec spec;
  spec.num_roads = 5;
  spec.num_days = quick ? 6 : 10;
  spec.hyundai_calendar = false;
  spec.seed = 2022;
  return spec;
}

struct OfflineResult {
  double clean_mae = 0.0;
  double attacked_mae = 0.0;
  double spsa_mae = 0.0;
  double defended_clean_mae = 0.0;
  double defended_transfer_mae = 0.0;
  double defended_adaptive_mae = 0.0;
  double max_abs_delta = 0.0;
  double max_temporal_step = 0.0;
  long nonzero_cells = 0;
  uint64_t pgd_queries = 0;
  uint64_t pgd_grad_passes = 0;
  uint64_t spsa_queries = 0;
  bool ok = false;

  double inflation() const {
    return clean_mae > 0.0 ? attacked_mae / clean_mae : 0.0;
  }
  double spsa_inflation() const {
    return clean_mae > 0.0 ? spsa_mae / clean_mae : 0.0;
  }
  /// Share of the attack-induced MAE gap recovered by the defense
  /// against the transferred (fixed) plan.
  double recovery_ratio() const {
    const double gap = attacked_mae - clean_mae;
    return gap > 0.0 ? (attacked_mae - defended_transfer_mae) / gap : 0.0;
  }
  double adaptive_recovery() const {
    const double gap = attacked_mae - clean_mae;
    return gap > 0.0 ? (attacked_mae - defended_adaptive_mae) / gap : 0.0;
  }
};

OfflineResult RunOffline() {
  // The offline pipeline costs well under a second at full size, so the
  // attack/defense arms run identically in --quick and nightly: the CI
  // gates always measure the same experiment.
  OfflineResult result;
  traffic::TrafficDataset dataset = traffic::GenerateDataset(
      BenchSpec(/*quick=*/false));

  core::ApotsConfig config;
  config.predictor = core::PredictorHparams::Scaled(
      core::PredictorType::kFc, 16);
  config.features = data::FeatureConfig::Both(12, 3);
  config.features.num_adjacent = (dataset.num_roads() - 1) / 2;
  config.training.adversarial = false;
  config.training.epochs = 3;
  config.training.verbose = false;
  config.training.guard.enabled = true;
  const data::SampleSplit split = data::MakeSplit(
      dataset, 12, 3, 0.2, data::SplitStrategy::kBlockedByDay, 42);

  core::ApotsModel model(&dataset, config);
  auto trained = model.TrainGuarded(split.train);
  if (!trained.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 trained.status().ToString().c_str());
    return result;
  }

  const auto truths = model.TrueKmh(split.test);
  result.clean_mae =
      metrics::Compute(model.PredictKmh(split.test), truths).mae;

  // MAE of `weights` over the test split with inputs from `inputs`
  // (targets stay clean truth — the attacker corrupts what the model
  // sees, not what the world does).
  const auto mae_on = [&](const traffic::TrafficDataset& inputs,
                          double* out) -> bool {
    core::ApotsModel eval(&inputs, config);
    if (const Status st = eval.CopyWeightsFrom(model); !st.ok()) {
      std::fprintf(stderr, "weight transfer failed: %s\n",
                   st.ToString().c_str());
      return false;
    }
    *out = metrics::Compute(eval.PredictKmh(split.test), truths).mae;
    return true;
  };

  attack::AttackConfig attack_config;  // default plausibility budget
  attack::Attacker attacker(attack_config);

  attack::AttackStats pgd_stats;
  auto pgd = attacker.BuildPgdPlan(&model, split.test, 0, &pgd_stats);
  if (!pgd.ok()) {
    std::fprintf(stderr, "pgd attack failed: %s\n",
                 pgd.status().ToString().c_str());
    return result;
  }
  result.max_abs_delta = pgd.value().MaxAbsDelta();
  result.max_temporal_step = pgd.value().MaxTemporalStep();
  result.nonzero_cells = pgd.value().NonzeroCells();
  result.pgd_queries = pgd_stats.queries;
  result.pgd_grad_passes = pgd_stats.grad_passes;
  traffic::TrafficDataset attacked = dataset;
  pgd.value().ApplyTo(&attacked, attack_config.budget);
  if (!mae_on(attacked, &result.attacked_mae)) return result;

  attack::AttackStats spsa_stats;
  auto spsa = attacker.BuildSpsaPlan(&model, split.test, 0, &spsa_stats);
  if (!spsa.ok()) {
    std::fprintf(stderr, "spsa attack failed: %s\n",
                 spsa.status().ToString().c_str());
    return result;
  }
  result.spsa_queries = spsa_stats.queries;
  traffic::TrafficDataset spsa_attacked = dataset;
  spsa.value().ApplyTo(&spsa_attacked, attack_config.budget);
  if (!mae_on(spsa_attacked, &result.spsa_mae)) return result;

  attack::DefenseConfig defense_config;
  defense_config.attack = attack_config;
  defense_config.rounds = 4;
  defense_config.finetune_epochs = 4;
  attack::RdatDefense defense(defense_config);
  auto defended = defense.Run(&model, split.train);
  if (!defended.ok()) {
    std::fprintf(stderr, "defense failed: %s\n",
                 defended.status().ToString().c_str());
    return result;
  }
  result.defended_clean_mae =
      metrics::Compute(model.PredictKmh(split.test), truths).mae;
  if (!mae_on(attacked, &result.defended_transfer_mae)) return result;

  // Adaptive re-attack: a fresh plan against the defended weights.
  auto adaptive = attacker.BuildPgdPlan(&model, split.test, 0);
  if (!adaptive.ok()) {
    std::fprintf(stderr, "re-attack failed: %s\n",
                 adaptive.status().ToString().c_str());
    return result;
  }
  traffic::TrafficDataset reattacked = dataset;
  adaptive.value().ApplyTo(&reattacked, attack_config.budget);
  if (!mae_on(reattacked, &result.defended_adaptive_mae)) return result;

  result.ok = true;
  return result;
}

struct ServeResult {
  uint64_t poisoned = 0;
  uint64_t detector_observed = 0;
  uint64_t detector_anomalous = 0;
  int detector_flagged_roads = 0;
  double availability = 0.0;
  long ticks = 0;
  bool ok = false;
};

// Serving arm: the PGD plan rides the feed as a poison fault while the
// residual detector watches every applied record.
ServeResult RunServePoisoned(bool quick) {
  ServeResult result;
  serve::HarnessConfig config;
  config.spec = BenchSpec(quick);
  config.spec.num_days = quick ? 4 : 6;
  config.warmup_fraction = 0.5;
  config.predictor = core::PredictorType::kFc;
  config.width_divisor = 16;
  config.train_epochs = 2;
  config.anchors_per_tick = 4;
  config.feed = serve::FeedFaultSpec::Clean();
  config.feed.poison = true;
  config.attack.enabled = true;
  serve::SimulationHarness harness(std::move(config));
  while (harness.RunTick()) ++result.ticks;
  result.poisoned = harness.feed().stats().poisoned;
  if (harness.detector() != nullptr) {
    const auto& stats = harness.detector()->stats();
    result.detector_observed = stats.observed;
    result.detector_anomalous = stats.anomalous;
    result.detector_flagged_roads = stats.flagged_roads;
  }
  result.availability = harness.report().availability();
  result.ok = true;
  return result;
}

// Clean-feed control: attack wiring on, poisoning off — the attack
// subsystem must be inert on the serving path unless the feed injects.
bool RunCleanBitwise(bool quick, uint64_t* compared) {
  serve::HarnessConfig config;
  config.spec = BenchSpec(quick);
  config.spec.num_days = quick ? 4 : 6;
  config.warmup_fraction = 0.5;
  config.predictor = core::PredictorType::kFc;
  config.width_divisor = 16;
  config.train_epochs = 2;
  config.anchors_per_tick = 4;
  config.feed = serve::FeedFaultSpec::Clean();
  config.attack.enabled = true;  // plan + detector built, never injected
  serve::SimulationHarness harness(std::move(config));
  bool all_match = true;
  bool more = true;
  while (more) {
    more = harness.RunTick();
    const auto& anchors = harness.last_anchors();
    const auto& responses = harness.last_responses();
    const std::vector<double> direct = harness.DirectPredictKmh(anchors);
    for (size_t i = 0; i < anchors.size(); ++i) {
      ++*compared;
      if (responses[i].tier != serve::ServeTier::kFull ||
          responses[i].kmh != direct[i]) {
        all_match = false;
      }
    }
  }
  return all_match;
}

int Run(const std::string& path, bool quick) {
  Stopwatch total;
  const OfflineResult offline = RunOffline();
  if (!offline.ok) return 1;
  std::fprintf(stderr,
               "attack: clean %.2f, pgd %.2f (%.2fx), spsa %.2f (%.2fx); "
               "budget max|delta| %.2f, max step %.2f\n",
               offline.clean_mae, offline.attacked_mae, offline.inflation(),
               offline.spsa_mae, offline.spsa_inflation(),
               offline.max_abs_delta, offline.max_temporal_step);
  std::fprintf(stderr,
               "defense: clean %.2f, transfer %.2f (recovery %.0f%%), "
               "adaptive %.2f (recovery %.0f%%)\n",
               offline.defended_clean_mae, offline.defended_transfer_mae,
               100.0 * offline.recovery_ratio(),
               offline.defended_adaptive_mae,
               100.0 * offline.adaptive_recovery());

  const ServeResult serve = RunServePoisoned(quick);
  if (!serve.ok) return 1;
  std::fprintf(stderr,
               "serve_poisoned: %llu readings poisoned over %ld ticks, "
               "detector %llu/%llu anomalous, %d roads flagged\n",
               static_cast<unsigned long long>(serve.poisoned), serve.ticks,
               static_cast<unsigned long long>(serve.detector_anomalous),
               static_cast<unsigned long long>(serve.detector_observed),
               serve.detector_flagged_roads);

  uint64_t compared = 0;
  const bool bitwise_clean = RunCleanBitwise(quick, &compared);
  std::fprintf(stderr, "clean_bitwise: %llu anchors compared, match=%d\n",
               static_cast<unsigned long long>(compared),
               bitwise_clean ? 1 : 0);

  bench::Report report("attack_robustness");
  report.Set("config.quick", quick)
      .Set("attack.clean_mae", offline.clean_mae)
      .Set("attack.attacked_mae", offline.attacked_mae)
      .Set("attack.mae_inflation", offline.inflation())
      .Set("attack.spsa_mae", offline.spsa_mae)
      .Set("attack.spsa_inflation", offline.spsa_inflation())
      .Set("attack.max_abs_delta", offline.max_abs_delta)
      .Set("attack.max_temporal_step", offline.max_temporal_step)
      .Set("attack.nonzero_cells", offline.nonzero_cells)
      .Set("attack.pgd_queries", offline.pgd_queries)
      .Set("attack.pgd_grad_passes", offline.pgd_grad_passes)
      .Set("attack.spsa_queries", offline.spsa_queries)
      .Set("defense.defended_clean_mae", offline.defended_clean_mae)
      .Set("defense.defended_transfer_mae", offline.defended_transfer_mae)
      .Set("defense.defended_adaptive_mae", offline.defended_adaptive_mae)
      .Set("defense.recovery_ratio", offline.recovery_ratio())
      .Set("defense.adaptive_recovery", offline.adaptive_recovery())
      .Set("serve_poisoned.poisoned", serve.poisoned)
      .Set("serve_poisoned.detector_observed", serve.detector_observed)
      .Set("serve_poisoned.detector_anomalous", serve.detector_anomalous)
      .Set("serve_poisoned.detector_flagged_roads",
           serve.detector_flagged_roads)
      .Set("serve_poisoned.availability", serve.availability)
      .Set("clean_bitwise_match", bitwise_clean)
      .Set("wall_seconds", total.ElapsedMillis() / 1000.0);

  // The attack at least doubles the clean MAE at the default plausibility
  // budget, RDAT claws back half the gap against the transferred plan, the
  // detector flags a poisoned road, and attack wiring leaves the clean
  // serving path bitwise identical.
  report.ExpectAtLeast("attack.mae_inflation", 2.0);
  report.ExpectAtLeast("defense.recovery_ratio", 0.5);
  report.ExpectTrue("clean_bitwise_match");
  report.ExpectAtLeast("serve_poisoned.poisoned", 1);
  report.ExpectAtLeast("serve_poisoned.detector_flagged_roads", 1);
  return report.Write(path);
}

}  // namespace

int main(int argc, char** argv) {
  return apots::bench::PerfMain(argc, argv, "bench_out/perf_attack.json", Run);
}
