// apots_cli — command-line front end for the library, the entry point a
// downstream user would script against:
//
//   apots_cli generate --out dataset.csv [--days N] [--roads N] [--seed S]
//   apots_cli train    --data dataset.csv --model out.bin
//                      [--predictor F|L|C|H] [--adversarial 0|1]
//                      [--epochs N] [--divisor N]
//   apots_cli evaluate --data dataset.csv --model out.bin
//                      [--predictor F|L|C|H] [--adversarial 0|1]
//                      [--divisor N]
//   apots_cli robustness --data dataset.csv | --days N --roads N
//                      [--rates 0,0.05,0.15,0.3] [--predictor F|L|C|H]
//                      [--epochs N] [--divisor N] [--fault-seed S]
//                      [--fault-kinds drop,stuck,noise,outage]
//   apots_cli serve    [--days N] [--roads N] [--storm 0|1]
//                      [--deadline-ms MS] [--watchdog-ms MS]
//                      [--checkpoint-dir D] [--checkpoint-every N]
//                      [--kill-at TICK] [--ticks N]
//                      [--shards N] [--replicas R]
//                      [--chaos off|kill,stall,partition,skew,corrupt|all]
//                      [--chaos-seed S]
//                      [--attack 0|1] [--attack-method pgd|spsa]
//                      [--eps-kmh E] [--smooth-kmh S] [--attack-steps N]
//   apots_cli attack   [--days N] [--roads N] [--seed S]
//                      [--predictor F|L|C|H] [--epochs N] [--divisor N]
//                      [--method pgd|spsa] [--eps-kmh E] [--smooth-kmh S]
//                      [--steps N] [--spsa-samples N] [--attack-seed S]
//                      [--defend 0|1] [--defense-rounds N]
//                      [--finetune-epochs N]
//   apots_cli whatif   [--days N] [--roads N] [--seed S] [--anchor A]
//                      [--predictor F|L|C|H] [--epochs N] [--divisor N]
//                      [--contexts "clear-event;rain+10;day=holiday"]
//
// Every model command also accepts --quantize {off,fp16,int8} (inference
// weight precision); serve and attack print the dispatched kernel and ISA.
//
// `attack` trains a model, perturbs its speed inputs under the
// sensor-plausibility budget (white-box PGD or black-box SPSA), and
// reports clean vs attacked accuracy — with `--defend 1`, also after
// RDAT-style adversarial fine-tuning, re-attacked adaptively.
//
// `serve` simulates online operation: warmup data trains/fits the stack,
// the rest streams through a delivery-fault model (delays, duplicates,
// outages, torn ticks) into the StreamIngestor + ServingSupervisor, which
// degrades per-road through full -> imputed -> historical ->
// last-known-good tiers and can checkpoint + kill + recover mid-stream.
// With --shards/--replicas (or --chaos) it runs the sharded plane
// instead: N shards x R replicas behind the health-checked failover
// router with cross-shard boundary exchange, optionally under the seeded
// chaos scheduler.
//
// `train` fits on the day-blocked 80% split and reports test metrics;
// `evaluate` reloads saved weights and reproduces them. All three data
// commands accept --fault-rate/--fault-seed/--fault-kinds to corrupt the
// loaded dataset with sensor faults (then repair it by imputation) before
// training or evaluating; `robustness` sweeps the fault rate and prints an
// accuracy-vs-fault-rate table.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "attack/attacker.h"
#include "attack/defense.h"
#include "chaos/chaos.h"
#include "core/apots_model.h"
#include "data/context.h"
#include "data/imputation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "data/windowing.h"
#include "eval/experiment.h"
#include "metrics/metrics.h"
#include "serve/harness.h"
#include "serve/sharded_service.h"
#include "tensor/cpu_features.h"
#include "tensor/quant.h"
#include "tensor/tensor_ops.h"
#include "traffic/dataset_generator.h"
#include "traffic/fault_injector.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using namespace apots;

std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (StartsWith(key, "--")) key = key.substr(2);
    flags[key] = argv[i + 1];
  }
  return flags;
}

std::string Flag(const std::map<std::string, std::string>& flags,
                 const std::string& key, const std::string& fallback) {
  auto it = flags.find(key);
  return it != flags.end() ? it->second : fallback;
}

core::PredictorType ParsePredictor(const std::string& name) {
  if (name == "L") return core::PredictorType::kLstm;
  if (name == "C") return core::PredictorType::kCnn;
  if (name == "H") return core::PredictorType::kHybrid;
  return core::PredictorType::kFc;
}

// Reads --quantize into `mode`; rejects unknown values like --fault-kinds.
bool ParseQuantizeFlag(const std::map<std::string, std::string>& flags,
                       tensor::QuantMode* mode) {
  const std::string name = Flag(flags, "quantize", "off");
  if (name == "off") {
    *mode = tensor::QuantMode::kOff;
  } else if (name == "fp16") {
    *mode = tensor::QuantMode::kFp16;
  } else if (name == "int8") {
    *mode = tensor::QuantMode::kInt8;
  } else {
    std::fprintf(stderr, "bad --quantize: %s (valid: off, fp16, int8)\n",
                 name.c_str());
    return false;
  }
  return true;
}

// One-line dispatch summary: the build's matmul kernel rule, the ISA rung
// runtime dispatch lands on, and the inference weight precision.
void PrintDispatch(tensor::QuantMode quantize) {
  std::printf("kernels: %s (isa %s), quantize %s\n",
              tensor::KernelModeName(tensor::GetKernelMode()),
              tensor::ActiveIsaLabel(), tensor::QuantModeName(quantize));
}

int Generate(const std::map<std::string, std::string>& flags) {
  const std::string out = Flag(flags, "out", "dataset.csv");
  traffic::DatasetSpec spec;
  int64_t value = 0;
  if (ParseInt64(Flag(flags, "days", ""), &value)) {
    spec.num_days = static_cast<int>(value);
    spec.hyundai_calendar = spec.num_days == 122;
  }
  if (ParseInt64(Flag(flags, "roads", ""), &value)) {
    spec.num_roads = static_cast<int>(value);
  }
  if (ParseInt64(Flag(flags, "seed", ""), &value)) {
    spec.seed = static_cast<uint64_t>(value);
  }
  const traffic::TrafficDataset dataset = traffic::GenerateDataset(spec);
  const Status status = dataset.WriteCsv(out);
  if (!status.ok()) {
    std::fprintf(stderr, "generate failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %d roads x %ld intervals (%d days), %zu incidents\n",
              out.c_str(), dataset.num_roads(), dataset.num_intervals(),
              dataset.num_days(), dataset.incident_log().size());
  return 0;
}

// Shared setup for train/evaluate.
struct Session {
  traffic::TrafficDataset dataset;
  core::ApotsConfig config;
  data::SampleSplit split;
  /// Empty unless --fault-rate > 0 injected sensor faults.
  traffic::ValidityMask mask;
};

// Reads --fault-rate/--fault-seed/--fault-kinds into a FaultSpec; returns
// false (after printing) on a malformed kind list.
bool ParseFaultSpec(const std::map<std::string, std::string>& flags,
                    traffic::FaultSpec* spec) {
  double rate = 0.0;
  if (ParseDouble(Flag(flags, "fault-rate", "0"), &rate)) spec->rate = rate;
  int64_t value = 0;
  if (ParseInt64(Flag(flags, "fault-seed", ""), &value)) {
    spec->seed = static_cast<uint64_t>(value);
  }
  const std::string kinds = Flag(flags, "fault-kinds", "all");
  auto parsed = traffic::ParseFaultKinds(kinds);
  if (!parsed.ok()) {
    std::fprintf(stderr, "bad --fault-kinds: %s\n",
                 parsed.status().ToString().c_str());
    return false;
  }
  spec->kinds = parsed.value();
  return true;
}

// Corrupts `session->dataset` per `spec`, repairs it by imputation, and
// enables mask-aware fallback. Returns false (after printing) on failure.
bool ApplyFaults(const traffic::FaultSpec& spec, Session* session) {
  traffic::FaultInjector injector(spec);
  auto mask = injector.Inject(&session->dataset);
  if (!mask.ok()) {
    std::fprintf(stderr, "fault injection failed: %s\n",
                 mask.status().ToString().c_str());
    return false;
  }
  session->mask = std::move(mask).value();
  auto report = data::ImputeSpeeds(&session->dataset, session->mask);
  if (!report.ok()) {
    std::fprintf(stderr, "imputation failed: %s\n",
                 report.status().ToString().c_str());
    return false;
  }
  session->config.fallback.enabled = true;
  std::printf("injected %s faults over %.1f%% of cells (seed %llu); "
              "repaired %ld cells (locf=%ld profile=%ld mean=%ld)\n",
              traffic::FaultKindsToString(spec.kinds).c_str(),
              spec.rate * 100.0,
              static_cast<unsigned long long>(spec.seed),
              report.value().cells_invalid, report.value().locf_filled,
              report.value().profile_filled, report.value().mean_filled);
  return true;
}

int LoadSession(const std::map<std::string, std::string>& flags,
                Session* session) {
  const std::string data_path = Flag(flags, "data", "");
  if (data_path.empty()) {
    std::fprintf(stderr, "--data is required\n");
    return 1;
  }
  // Day count must be known to rebuild the calendar: probe with a generic
  // calendar sized from the CSV row count at 288 intervals/day.
  auto probe = apots::ReadCsv(data_path);
  if (!probe.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", data_path.c_str(),
                 probe.status().ToString().c_str());
    return 1;
  }
  const int days = static_cast<int>(probe.value().rows.size() / 288);
  traffic::Calendar calendar =
      days == 122 ? traffic::Calendar::HyundaiPeriod2018()
                  : traffic::Calendar(days, traffic::Weekday::kSunday, {});
  auto dataset = traffic::TrafficDataset::ReadCsv(data_path, calendar);
  if (!dataset.ok()) {
    std::fprintf(stderr, "cannot parse %s: %s\n", data_path.c_str(),
                 dataset.status().ToString().c_str());
    return 1;
  }
  session->dataset = std::move(dataset).value();

  int64_t value = 0;
  size_t divisor = 8;
  if (ParseInt64(Flag(flags, "divisor", ""), &value)) {
    divisor = static_cast<size_t>(value);
  }
  const core::PredictorType type =
      ParsePredictor(Flag(flags, "predictor", "F"));
  session->config.predictor =
      divisor <= 1 ? core::PredictorHparams::Paper(type)
                   : core::PredictorHparams::Scaled(type, divisor);
  session->config.discriminator = core::DiscriminatorHparams::Scaled(
      std::max<size_t>(1, divisor / 4));
  session->config.features = data::FeatureConfig::Both();
  session->config.features.num_adjacent =
      (session->dataset.num_roads() - 1) / 2;
  session->config.features.beta = 3;
  session->config.training.adversarial =
      Flag(flags, "adversarial", "0") == "1";
  session->config.training.adv_weight = 0.05f;
  if (ParseInt64(Flag(flags, "epochs", ""), &value)) {
    session->config.training.epochs = static_cast<int>(value);
  }
  if (!ParseQuantizeFlag(flags, &session->config.inference.quantize)) {
    return 1;
  }
  traffic::FaultSpec fault_spec;
  if (!ParseFaultSpec(flags, &fault_spec)) return 1;
  if (fault_spec.rate > 0.0 && !ApplyFaults(fault_spec, session)) return 1;
  session->split = data::MakeSplit(session->dataset, 12, 3, 0.2,
                                   data::SplitStrategy::kBlockedByDay, 42);
  return 0;
}

void Report(const Session& session, core::ApotsModel* model,
            const std::vector<long>& anchors) {
  const auto predictions = model->PredictKmh(anchors);
  const auto truths = model->TrueKmh(anchors);
  if (session.mask.empty()) {
    const auto metrics = metrics::Compute(predictions, truths);
    std::printf("test (%zu anchors): %s\n", anchors.size(),
                metrics.ToString().c_str());
    return;
  }
  // Fault-fabricated targets are no ground truth: score observed ones only.
  const auto metrics = metrics::ComputeMasked(
      predictions, truths, model->assembler().ObservedTargetMask(anchors));
  std::printf("test (%zu anchors, observed targets only): %s, "
              "%zu fallback predictions\n",
              anchors.size(), metrics.ToString().c_str(),
              model->last_fallback_count());
}

int Train(const std::map<std::string, std::string>& flags) {
  Session session;
  if (int rc = LoadSession(flags, &session); rc != 0) return rc;
  session.config.training.guard.enabled = Flag(flags, "guard", "1") == "1";
  core::ApotsModel model(&session.dataset, session.config);
  if (!session.mask.empty()) model.SetValidityMask(&session.mask);
  std::printf("training %s on %zu anchors (%zu weights)...\n",
              session.config.Tag().c_str(), session.split.train.size(),
              model.NumWeights());
  auto trained = model.TrainGuarded(session.split.train);
  if (!trained.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 trained.status().ToString().c_str());
    return 1;
  }
  const core::TrainReport& report = trained.value();
  for (const std::string& incident : report.incidents) {
    std::printf("guard: %s\n", incident.c_str());
  }
  std::printf("final epoch: mse=%.5f (%d epochs, %d rollbacks%s)\n",
              report.last.mse_loss, report.epochs_completed,
              report.rollbacks,
              report.stopped_early ? ", stopped early" : "");
  Report(session, &model, session.split.test);
  const std::string model_path = Flag(flags, "model", "");
  if (!model_path.empty()) {
    const Status status = model.Save(model_path);
    if (!status.ok()) {
      std::fprintf(stderr, "save failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("saved weights to %s\n", model_path.c_str());
  }
  return 0;
}

int Evaluate(const std::map<std::string, std::string>& flags) {
  Session session;
  if (int rc = LoadSession(flags, &session); rc != 0) return rc;
  core::ApotsModel model(&session.dataset, session.config);
  const std::string model_path = Flag(flags, "model", "");
  if (model_path.empty()) {
    std::fprintf(stderr, "--model is required for evaluate\n");
    return 1;
  }
  const Status status = model.Load(model_path);
  if (!status.ok()) {
    std::fprintf(stderr, "load failed: %s\n", status.ToString().c_str());
    return 1;
  }
  if (!session.mask.empty()) model.SetValidityMask(&session.mask);
  Report(session, &model, session.split.test);
  return 0;
}

// Accuracy-vs-fault-rate sweep: trains one model on clean data, then
// re-evaluates the same weights against datasets corrupted at increasing
// fault rates (repaired by imputation, guarded by the fallback).
int Robustness(const std::map<std::string, std::string>& flags) {
  // Validate the sweep flags before the expensive training run.
  if (!Flag(flags, "fault-rate", "").empty()) {
    std::fprintf(stderr,
                 "robustness sweeps --rates; do not pass --fault-rate\n");
    return 1;
  }
  std::vector<double> rates;
  for (const std::string& token :
       Split(Flag(flags, "rates", "0,0.05,0.15,0.3"), ',')) {
    double rate = 0.0;
    if (!ParseDouble(Trim(token), &rate) || rate < 0.0 || rate > 1.0) {
      std::fprintf(stderr, "bad --rates entry: %s\n", token.c_str());
      return 1;
    }
    rates.push_back(rate);
  }
  traffic::FaultSpec base_spec;
  if (!ParseFaultSpec(flags, &base_spec)) return 1;

  Session session;
  traffic::TrafficDataset clean;
  const bool from_file = !Flag(flags, "data", "").empty();
  if (from_file) {
    if (int rc = LoadSession(flags, &session); rc != 0) return rc;
  } else {
    traffic::DatasetSpec spec;
    spec.num_days = 21;
    spec.num_roads = 5;
    spec.hyundai_calendar = false;
    int64_t value = 0;
    if (ParseInt64(Flag(flags, "days", ""), &value)) {
      spec.num_days = static_cast<int>(value);
    }
    if (ParseInt64(Flag(flags, "roads", ""), &value)) {
      spec.num_roads = static_cast<int>(value);
    }
    if (ParseInt64(Flag(flags, "seed", ""), &value)) {
      spec.seed = static_cast<uint64_t>(value);
    }
    session.dataset = traffic::GenerateDataset(spec);
    size_t divisor = 8;
    if (ParseInt64(Flag(flags, "divisor", ""), &value)) {
      divisor = static_cast<size_t>(value);
    }
    const core::PredictorType type =
        ParsePredictor(Flag(flags, "predictor", "H"));
    session.config.predictor =
        divisor <= 1 ? core::PredictorHparams::Paper(type)
                     : core::PredictorHparams::Scaled(type, divisor);
    session.config.discriminator = core::DiscriminatorHparams::Scaled(
        std::max<size_t>(1, divisor / 4));
    session.config.features = data::FeatureConfig::Both();
    session.config.features.num_adjacent =
        (session.dataset.num_roads() - 1) / 2;
    session.config.features.beta = 3;
    session.config.training.adversarial =
        Flag(flags, "adversarial", "0") == "1";
    session.config.training.adv_weight = 0.05f;
    if (ParseInt64(Flag(flags, "epochs", ""), &value)) {
      session.config.training.epochs = static_cast<int>(value);
    }
    if (!ParseQuantizeFlag(flags, &session.config.inference.quantize)) {
      return 1;
    }
    session.split = data::MakeSplit(session.dataset, 12, 3, 0.2,
                                    data::SplitStrategy::kBlockedByDay, 42);
  }
  clean = session.dataset;  // pristine copy: corruption source + truth

  session.config.training.guard.enabled = true;
  core::ApotsModel model(&session.dataset, session.config);
  std::printf("training %s on %zu anchors (%zu weights)...\n",
              session.config.Tag().c_str(), session.split.train.size(),
              model.NumWeights());
  auto trained = model.TrainGuarded(session.split.train);
  if (!trained.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 trained.status().ToString().c_str());
    return 1;
  }

  const int target = model.assembler().target_road();
  const int beta = model.assembler().beta();
  TablePrinter table({"fault rate", "valid", "MAE", "RMSE", "MAPE",
                      "fallback", "scored"});
  for (double rate : rates) {
    traffic::TrafficDataset faulted = clean;
    traffic::FaultSpec spec = base_spec;
    spec.rate = rate;
    traffic::FaultInjector injector(spec);
    auto mask_result = injector.Inject(&faulted);
    if (!mask_result.ok()) {
      std::fprintf(stderr, "injection at rate %.2f failed: %s\n", rate,
                   mask_result.status().ToString().c_str());
      return 1;
    }
    traffic::ValidityMask mask = std::move(mask_result).value();
    if (rate > 0.0) {
      auto repair = data::ImputeSpeeds(&faulted, mask);
      if (!repair.ok()) {
        std::fprintf(stderr, "imputation at rate %.2f failed: %s\n", rate,
                     repair.status().ToString().c_str());
        return 1;
      }
    }
    core::ApotsConfig eval_config = session.config;
    eval_config.fallback.enabled = true;
    core::ApotsModel eval_model(&faulted, eval_config);
    if (const Status st = eval_model.CopyWeightsFrom(model); !st.ok()) {
      std::fprintf(stderr, "weight transfer failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    eval_model.SetValidityMask(&mask);
    eval_model.FitFallback(session.split.train);
    const auto predictions = eval_model.PredictKmh(session.split.test);
    // Truths come from the pristine copy; score observed targets only,
    // like a deployment that cannot grade itself on fabricated values.
    std::vector<double> truths(session.split.test.size());
    for (size_t i = 0; i < truths.size(); ++i) {
      truths[i] = clean.Speed(target, session.split.test[i] + beta);
    }
    const auto metric_set = metrics::ComputeMasked(
        predictions, truths,
        metrics::ObservedTargetMask(mask, session.split.test, target, beta));
    table.AddRow({StrFormat("%.0f%%", rate * 100.0),
                  StrFormat("%.1f%%", mask.ValidRatio() * 100.0),
                  FormatMetric(metric_set.mae), FormatMetric(metric_set.rmse),
                  StrFormat("%.2f%%", metric_set.mape),
                  StrFormat("%zu", eval_model.last_fallback_count()),
                  StrFormat("%zu", metric_set.count)});
  }
  table.Print();
  return 0;
}

// Reads the shared attack flags into an AttackConfig. `steps_flag` names
// the PGD/SPSA iteration flag ("steps" for the attack command,
// "attack-steps" for serve, which already uses --steps-adjacent names).
attack::AttackConfig ParseAttackConfig(
    const std::map<std::string, std::string>& flags,
    const std::string& steps_flag) {
  attack::AttackConfig config;
  double real = 0.0;
  int64_t value = 0;
  if (ParseDouble(Flag(flags, "eps-kmh", ""), &real)) {
    config.budget.epsilon_kmh = static_cast<float>(real);
  }
  if (ParseDouble(Flag(flags, "smooth-kmh", ""), &real)) {
    config.budget.smooth_kmh = static_cast<float>(real);
  }
  if (ParseInt64(Flag(flags, steps_flag, ""), &value) && value > 0) {
    config.steps = static_cast<int>(value);
  }
  if (ParseInt64(Flag(flags, "spsa-samples", ""), &value) && value > 0) {
    config.spsa_samples = static_cast<int>(value);
  }
  if (ParseInt64(Flag(flags, "attack-seed", ""), &value)) {
    config.seed = static_cast<uint64_t>(value);
  }
  return config;
}

// Adversarial attack/defense demo: train, attack the speed matrix under
// the plausibility budget, optionally defend by RDAT-style fine-tuning,
// and report the accuracy at each stage (truths always from clean data).
int Attack(const std::map<std::string, std::string>& flags) {
  traffic::DatasetSpec spec;
  spec.num_days = 14;
  spec.num_roads = 5;
  spec.hyundai_calendar = false;
  int64_t value = 0;
  if (ParseInt64(Flag(flags, "days", ""), &value)) {
    spec.num_days = static_cast<int>(value);
  }
  if (ParseInt64(Flag(flags, "roads", ""), &value)) {
    spec.num_roads = static_cast<int>(value);
  }
  if (ParseInt64(Flag(flags, "seed", ""), &value)) {
    spec.seed = static_cast<uint64_t>(value);
  }
  Session session;
  session.dataset = traffic::GenerateDataset(spec);
  size_t divisor = 8;
  if (ParseInt64(Flag(flags, "divisor", ""), &value) && value > 0) {
    divisor = static_cast<size_t>(value);
  }
  const core::PredictorType type =
      ParsePredictor(Flag(flags, "predictor", "F"));
  session.config.predictor =
      divisor <= 1 ? core::PredictorHparams::Paper(type)
                   : core::PredictorHparams::Scaled(type, divisor);
  session.config.discriminator =
      core::DiscriminatorHparams::Scaled(std::max<size_t>(1, divisor / 4));
  session.config.features = data::FeatureConfig::Both();
  session.config.features.num_adjacent =
      (session.dataset.num_roads() - 1) / 2;
  session.config.features.beta = 3;
  if (ParseInt64(Flag(flags, "epochs", ""), &value)) {
    session.config.training.epochs = static_cast<int>(value);
  }
  session.config.training.guard.enabled = true;
  if (!ParseQuantizeFlag(flags, &session.config.inference.quantize)) return 1;
  session.split = data::MakeSplit(session.dataset, 12, 3, 0.2,
                                  data::SplitStrategy::kBlockedByDay, 42);

  core::ApotsModel model(&session.dataset, session.config);
  PrintDispatch(session.config.inference.quantize);
  std::printf("training %s on %zu anchors (%zu weights)...\n",
              session.config.Tag().c_str(), session.split.train.size(),
              model.NumWeights());
  auto trained = model.TrainGuarded(session.split.train);
  if (!trained.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 trained.status().ToString().c_str());
    return 1;
  }

  const attack::AttackConfig attack_config = ParseAttackConfig(flags, "steps");
  const bool spsa = Flag(flags, "method", "pgd") == "spsa";
  attack::Attacker attacker(attack_config);

  const auto truths = model.TrueKmh(session.split.test);
  const double clean_mae =
      metrics::Compute(model.PredictKmh(session.split.test), truths).mae;

  // MAE of `weights`'s predictions over the test split when its inputs
  // come from `dataset` (targets stay clean truth).
  const auto attacked_mae_of = [&](const traffic::TrafficDataset& dataset,
                                   core::ApotsModel& weights,
                                   double* out) -> bool {
    core::ApotsModel eval_model(&dataset, session.config);
    if (const Status st = eval_model.CopyWeightsFrom(weights); !st.ok()) {
      std::fprintf(stderr, "weight transfer failed: %s\n",
                   st.ToString().c_str());
      return false;
    }
    *out =
        metrics::Compute(eval_model.PredictKmh(session.split.test), truths)
            .mae;
    return true;
  };

  const auto build_plan = [&](core::ApotsModel* victim,
                              attack::AttackStats* stats) {
    return spsa ? attacker.BuildSpsaPlan(victim, session.split.test, 0, stats)
                : attacker.BuildPgdPlan(victim, session.split.test, 0, stats);
  };

  attack::AttackStats stats;
  auto plan = build_plan(&model, &stats);
  if (!plan.ok()) {
    std::fprintf(stderr, "attack failed: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  traffic::TrafficDataset attacked = session.dataset;
  plan.value().ApplyTo(&attacked, attack_config.budget);
  double attacked_mae = 0.0;
  if (!attacked_mae_of(attacked, model, &attacked_mae)) return 1;

  std::printf(
      "%s attack: eps %.1f km/h, smooth %.1f km/h, %d steps; "
      "max|delta| %.2f, max step %.2f, %ld cells, %llu queries\n",
      spsa ? "spsa" : "pgd", attack_config.budget.epsilon_kmh,
      attack_config.budget.smooth_kmh, attack_config.steps,
      plan.value().MaxAbsDelta(), plan.value().MaxTemporalStep(),
      plan.value().NonzeroCells(),
      static_cast<unsigned long long>(stats.queries));

  TablePrinter table({"arm", "MAE km/h", "vs clean"});
  const auto ratio = [&](double mae) {
    return clean_mae <= 0.0 ? std::string("-")
                            : StrFormat("%.2fx", mae / clean_mae);
  };
  table.AddRow({"clean", FormatMetric(clean_mae), "1.00x"});
  table.AddRow({"attacked", FormatMetric(attacked_mae),
                ratio(attacked_mae)});

  if (Flag(flags, "defend", "0") == "1") {
    attack::DefenseConfig defense_config;
    defense_config.attack = attack_config;
    if (ParseInt64(Flag(flags, "defense-rounds", ""), &value) && value > 0) {
      defense_config.rounds = static_cast<int>(value);
    }
    if (ParseInt64(Flag(flags, "finetune-epochs", ""), &value) &&
        value > 0) {
      defense_config.finetune_epochs = static_cast<int>(value);
    }
    attack::RdatDefense defense(defense_config);
    auto defended = defense.Run(&model, session.split.train);
    if (!defended.ok()) {
      std::fprintf(stderr, "defense failed: %s\n",
                   defended.status().ToString().c_str());
      return 1;
    }
    const double defended_clean_mae =
        metrics::Compute(model.PredictKmh(session.split.test), truths).mae;
    // Transfer arm: the attacker's plan was fixed against the deployed
    // (undefended) weights — the poisoned-feed scenario — and the defense
    // fine-tuned after. This is the recovery the robustness bench gates.
    double defended_transfer_mae = 0.0;
    if (!attacked_mae_of(attacked, model, &defended_transfer_mae)) return 1;
    // Adaptive re-attack: the attacker gets a fresh plan against the
    // defended weights — the honest robustness measure.
    attack::AttackStats defended_stats;
    auto defended_plan = build_plan(&model, &defended_stats);
    if (!defended_plan.ok()) {
      std::fprintf(stderr, "re-attack failed: %s\n",
                   defended_plan.status().ToString().c_str());
      return 1;
    }
    traffic::TrafficDataset reattacked = session.dataset;
    defended_plan.value().ApplyTo(&reattacked, attack_config.budget);
    double defended_attacked_mae = 0.0;
    if (!attacked_mae_of(reattacked, model, &defended_attacked_mae)) {
      return 1;
    }
    table.AddRow({"defended clean", FormatMetric(defended_clean_mae),
                  ratio(defended_clean_mae)});
    table.AddRow({"defended (transfer)", FormatMetric(defended_transfer_mae),
                  ratio(defended_transfer_mae)});
    table.AddRow({"defended (adaptive)", FormatMetric(defended_attacked_mae),
                  ratio(defended_attacked_mae)});
    const double gap = attacked_mae - clean_mae;
    if (gap > 0.0) {
      std::printf("defense recovered %.0f%% of the MAE gap against the "
                  "original plan (%.0f%% under adaptive re-attack; "
                  "%d rounds, %llu attack queries)\n",
                  100.0 * (attacked_mae - defended_transfer_mae) / gap,
                  100.0 * (attacked_mae - defended_attacked_mae) / gap,
                  defense_config.rounds,
                  static_cast<unsigned long long>(
                      defended.value().attack_queries));
    }
  }
  table.Print();
  return 0;
}

// Sharded serving: N shards x R replicas of the supervisor stack behind
// the health-checked router, with cross-shard boundary exchange and an
// optional seeded chaos storm (--chaos kill,stall,partition,skew,corrupt
// or all; off by default).
int ServeSharded(const std::map<std::string, std::string>& flags,
                 int shards, int replicas) {
  serve::ShardedConfig sc;
  traffic::DatasetSpec spec;
  spec.num_days = 7;
  spec.num_roads = 8;
  spec.hyundai_calendar = false;
  int64_t value = 0;
  if (ParseInt64(Flag(flags, "days", ""), &value)) {
    spec.num_days = static_cast<int>(value);
  }
  if (ParseInt64(Flag(flags, "roads", ""), &value)) {
    spec.num_roads = static_cast<int>(value);
  }
  if (ParseInt64(Flag(flags, "seed", ""), &value)) {
    spec.seed = static_cast<uint64_t>(value);
  }
  if (shards > spec.num_roads / 2) {
    std::fprintf(stderr,
                 "bad --shards: %d (valid: 1..%d with --roads %d; each "
                 "shard needs at least two roads)\n",
                 shards, spec.num_roads / 2, spec.num_roads);
    return 1;
  }
  sc.spec = spec;
  sc.num_shards = shards;
  sc.replicas_per_shard = replicas;
  double warmup = 0.5;
  if (ParseDouble(Flag(flags, "warmup", ""), &warmup)) {
    sc.warmup_fraction = warmup;
  }
  sc.predictor = ParsePredictor(Flag(flags, "predictor", "F"));
  if (ParseInt64(Flag(flags, "divisor", ""), &value) && value > 0) {
    sc.width_divisor = static_cast<size_t>(value);
  }
  if (ParseInt64(Flag(flags, "epochs", ""), &value)) {
    sc.train_epochs = static_cast<int>(value);
  }
  uint64_t feed_seed = 99;
  if (ParseInt64(Flag(flags, "feed-seed", ""), &value)) {
    feed_seed = static_cast<uint64_t>(value);
  }
  sc.feed = Flag(flags, "storm", "1") == "1"
                ? serve::FeedFaultSpec::Storm(feed_seed)
                : serve::FeedFaultSpec::Clean();
  double ms = 0.0;
  if (ParseDouble(Flag(flags, "deadline-ms", ""), &ms)) {
    sc.serve.deadline_ms = ms;
  }
  if (ParseDouble(Flag(flags, "watchdog-ms", ""), &ms)) {
    sc.serve.watchdog_timeout_ms = ms;
  }
  if (!ParseQuantizeFlag(flags, &sc.inference.quantize)) return 1;
  sc.checkpoint_root = Flag(flags, "checkpoint-dir", "");
  if (ParseInt64(Flag(flags, "checkpoint-every", ""), &value)) {
    sc.serve.checkpoint_every = value;
  }
  if (ParseInt64(Flag(flags, "anchors-per-tick", ""), &value) && value > 0) {
    sc.anchors_per_tick = static_cast<int>(value);
  }
  long max_ticks = 0;  // 0 = run the whole stream
  if (ParseInt64(Flag(flags, "ticks", ""), &value)) max_ticks = value;

  // --chaos names the fault kinds the seeded scheduler may inject;
  // unknown names are rejected after listing the valid set, matching the
  // --fault-kinds convention.
  unsigned chaos_kinds = 0;
  const std::string chaos_flag = Flag(flags, "chaos", "off");
  if (chaos_flag != "off") {
    auto parsed = chaos::ParseChaosKinds(chaos_flag);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad --chaos: %s (or: off)\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    chaos_kinds = parsed.value();
  }
  uint64_t chaos_seed = 2024;
  if (ParseInt64(Flag(flags, "chaos-seed", ""), &value)) {
    chaos_seed = static_cast<uint64_t>(value);
  }

  serve::ShardedService service(std::move(sc));
  std::unique_ptr<chaos::ChaosScheduler> scheduler;
  std::unique_ptr<chaos::ChaosDriver> driver;
  if (chaos_kinds != 0) {
    chaos::ChaosSpec cs = chaos::ChaosSpec::Storm(chaos_seed);
    cs.kinds = chaos_kinds;
    scheduler = std::make_unique<chaos::ChaosScheduler>(
        cs, service.num_shards(), service.replicas_per_shard());
    driver = std::make_unique<chaos::ChaosDriver>(&service, scheduler.get());
  }

  const int beta = service.config().beta;
  std::printf(
      "serving %d roads x %ld intervals over %d shards x %d replicas, "
      "warmup %ld, %s feed, chaos %s\n",
      spec.num_roads, service.truth().num_intervals(), shards, replicas,
      service.warmup_end(),
      Flag(flags, "storm", "1") == "1" ? "storm" : "clean",
      chaos_kinds == 0 ? "off"
                       : chaos::ChaosKindsToString(chaos_kinds).c_str());
  PrintDispatch(service.config().inference.quantize);

  std::vector<double> abs_err(static_cast<size_t>(shards), 0.0);
  std::vector<uint64_t> err_count(static_cast<size_t>(shards), 0);
  long ticks_run = 0;
  bool more = true;
  while (more) {
    if (driver) driver->Step(service.next_tick());
    more = service.RunTick();
    ++ticks_run;
    const auto& anchors = service.last_anchors();
    for (int s = 0; s < shards; ++s) {
      const int target = service.target_road(s);
      const auto& responses = service.last_responses(s);
      for (size_t i = 0; i < anchors.size(); ++i) {
        abs_err[static_cast<size_t>(s)] +=
            std::abs(responses[i].serve.kmh -
                     service.truth().Speed(target, anchors[i] + beta));
        ++err_count[static_cast<size_t>(s)];
      }
    }
    if (max_ticks > 0 && ticks_run >= max_ticks) break;
  }

  TablePrinter shard_table(
      {"shard", "target", "owned", "boundary", "live", "MAE km/h"});
  for (int s = 0; s < shards; ++s) {
    const auto& owned = service.partition().roads(s);
    int live = 0;
    for (int r = 0; r < replicas; ++r) {
      if (service.ReplicaAlive(s, r)) ++live;
    }
    shard_table.AddRow(
        {StrFormat("%d", s), StrFormat("%d", service.target_road(s)),
         StrFormat("%d..%d", owned.front(), owned.back()),
         StrFormat("%zu", service.partition().boundary(s).size()),
         StrFormat("%d/%d", live, replicas),
         err_count[static_cast<size_t>(s)] == 0
             ? std::string("-")
             : StrFormat("%.2f",
                         abs_err[static_cast<size_t>(s)] /
                             static_cast<double>(
                                 err_count[static_cast<size_t>(s)]))});
  }
  shard_table.Print();

  const serve::ShardedReport report = service.report();
  TablePrinter tier_table({"tier", "served", "share"});
  for (int tier = 0; tier < serve::kNumServeTiers; ++tier) {
    const uint64_t n = report.serve.tier_counts[tier];
    tier_table.AddRow(
        {serve::ServeTierName(static_cast<serve::ServeTier>(tier)),
         StrFormat("%llu", static_cast<unsigned long long>(n)),
         StrFormat("%.1f%%",
                   report.serve.requests == 0
                       ? 0.0
                       : 100.0 * static_cast<double>(n) /
                             static_cast<double>(report.serve.requests))});
  }
  tier_table.Print();
  std::printf(
      "availability %.4f (replica %.4f) over %llu routed anchors; "
      "%llu ladder answers\n",
      report.availability(), report.replica_availability(),
      static_cast<unsigned long long>(report.router.requests),
      static_cast<unsigned long long>(report.router.ladder_answers));
  std::printf(
      "router: %llu attempts, %llu retries, %llu failovers "
      "(p50 %.2fms p99 %.2fms), %llu quarantine skips\n",
      static_cast<unsigned long long>(report.router.attempts),
      static_cast<unsigned long long>(report.router.retries),
      static_cast<unsigned long long>(report.router.failovers),
      report.failover_p50_ms, report.failover_p99_ms,
      static_cast<unsigned long long>(report.router.quarantine_skips));
  std::printf(
      "exchange: %llu snapshots (%llu skipped), %llu records shipped, "
      "%llu epoch-lag serves, %llu stale-epoch full-tier serves\n",
      static_cast<unsigned long long>(report.exchange.snapshots_published),
      static_cast<unsigned long long>(report.exchange.publishes_skipped),
      static_cast<unsigned long long>(report.exchange.records_shipped),
      static_cast<unsigned long long>(report.exchange.epoch_lag_serves),
      static_cast<unsigned long long>(report.exchange.stale_epoch_serves));
  if (scheduler) {
    std::printf(
        "chaos: %llu kills, %llu restarts, %llu stalls, %llu partitions, "
        "%llu clock skews, %llu corruptions; %llu spared, %llu rejected\n",
        static_cast<unsigned long long>(report.kills),
        static_cast<unsigned long long>(report.restarts),
        static_cast<unsigned long long>(report.stalls),
        static_cast<unsigned long long>(report.partitions),
        static_cast<unsigned long long>(report.clock_skews),
        static_cast<unsigned long long>(report.checkpoint_corruptions),
        static_cast<unsigned long long>(scheduler->stats().spared),
        static_cast<unsigned long long>(driver->stats().rejected));
  }
  return 0;
}

// Parses one perturbation token of the --contexts mini-language:
//   clear-event[@B:E]   force the event flag to 0 over [B, E)
//   set-event[@B:E]     force the event flag to 1
//   rain+X / rain-X[@B:E]  add X mm of precipitation (clamped >= 0)
//   day=weekday|holiday|before-holiday|after-holiday|0..3
// Windows default to every interval.
bool ParsePerturbation(const std::string& token,
                       data::ContextPerturbation* p) {
  std::string body = Trim(token);
  if (body.empty()) return false;
  const size_t at = body.find('@');
  if (at != std::string::npos) {
    const auto range = Split(body.substr(at + 1), ':');
    int64_t begin = 0, end = 0;
    if (range.size() != 2 || !ParseInt64(range[0], &begin) ||
        !ParseInt64(range[1], &end)) {
      return false;
    }
    p->begin = begin;
    p->end = end;
    body = body.substr(0, at);
  }
  if (body == "clear-event") {
    p->kind = data::PerturbationKind::kClearEvent;
    return true;
  }
  if (body == "set-event") {
    p->kind = data::PerturbationKind::kSetEvent;
    return true;
  }
  if (StartsWith(body, "rain")) {
    double delta = 0.0;
    if (!ParseDouble(body.substr(4), &delta)) return false;
    p->kind = data::PerturbationKind::kRainDelta;
    p->value = static_cast<float>(delta);
    return true;
  }
  if (StartsWith(body, "day=")) {
    const std::string name = body.substr(4);
    static const char* kNames[] = {"weekday", "holiday", "before-holiday",
                                   "after-holiday"};
    p->kind = data::PerturbationKind::kDayTypeOverride;
    for (int i = 0; i < 4; ++i) {
      if (name == kNames[i]) {
        p->value = static_cast<float>(i);
        return true;
      }
    }
    int64_t index = 0;
    if (ParseInt64(name, &index) && index >= 0 && index <= 3) {
      p->value = static_cast<float>(index);
      return true;
    }
    return false;
  }
  return false;
}

// One context = comma-separated perturbations (applied in order; last
// writer wins on overlap).
bool ParseContextSpec(const std::string& text, data::ContextSpec* spec) {
  for (const std::string& token : Split(text, ',')) {
    data::ContextPerturbation p;
    if (!ParsePerturbation(token, &p)) {
      std::fprintf(stderr,
                   "bad perturbation: %s (valid: clear-event, set-event, "
                   "rain+X, rain-X, day=weekday|holiday|before-holiday|"
                   "after-holiday, each with optional @begin:end)\n",
                   Trim(token).c_str());
      return false;
    }
    spec->perturbations.push_back(p);
  }
  return !spec->perturbations.empty();
}

// Counterfactual what-if fan-out: trains a small model, registers the K
// contexts parsed from --contexts (';'-separated), and answers one
// heterogeneous (anchor, context) batch through the runtime — per-context
// prediction plus delta vs the base context, in one batched forward pass.
int Whatif(const std::map<std::string, std::string>& flags) {
  traffic::DatasetSpec spec;
  spec.num_days = 10;
  spec.num_roads = 5;
  spec.hyundai_calendar = false;
  int64_t value = 0;
  if (ParseInt64(Flag(flags, "days", ""), &value)) {
    spec.num_days = static_cast<int>(value);
  }
  if (ParseInt64(Flag(flags, "roads", ""), &value)) {
    spec.num_roads = static_cast<int>(value);
  }
  if (ParseInt64(Flag(flags, "seed", ""), &value)) {
    spec.seed = static_cast<uint64_t>(value);
  }
  Session session;
  session.dataset = traffic::GenerateDataset(spec);
  size_t divisor = 16;
  if (ParseInt64(Flag(flags, "divisor", ""), &value) && value > 0) {
    divisor = static_cast<size_t>(value);
  }
  const core::PredictorType type =
      ParsePredictor(Flag(flags, "predictor", "F"));
  session.config.predictor =
      divisor <= 1 ? core::PredictorHparams::Paper(type)
                   : core::PredictorHparams::Scaled(type, divisor);
  session.config.features = data::FeatureConfig::Both();
  session.config.features.num_adjacent =
      (session.dataset.num_roads() - 1) / 2;
  session.config.features.beta = 3;
  session.config.training.adversarial = false;
  if (ParseInt64(Flag(flags, "epochs", ""), &value)) {
    session.config.training.epochs = static_cast<int>(value);
  }
  if (!ParseQuantizeFlag(flags, &session.config.inference.quantize)) return 1;
  session.split = data::MakeSplit(session.dataset, 12, 3, 0.2,
                                  data::SplitStrategy::kBlockedByDay, 42);

  core::ApotsModel model(&session.dataset, session.config);
  PrintDispatch(session.config.inference.quantize);
  std::printf("training %s on %zu anchors (%zu weights)...\n",
              session.config.Tag().c_str(), session.split.train.size(),
              model.NumWeights());
  model.Train(session.split.train);

  long anchor = session.split.test.empty()
                    ? 12
                    : session.split.test[session.split.test.size() / 2];
  if (ParseInt64(Flag(flags, "anchor", ""), &value)) anchor = value;

  const std::string contexts_flag =
      Flag(flags, "contexts", "clear-event;set-event;rain+10;day=holiday");
  std::vector<std::string> context_texts;
  for (const std::string& text : Split(contexts_flag, ';')) {
    if (!Trim(text).empty()) context_texts.push_back(Trim(text));
  }
  if (context_texts.empty()) {
    std::fprintf(stderr, "--contexts parsed to zero contexts\n");
    return 1;
  }

  data::ContextTable table;
  for (size_t k = 0; k < context_texts.size(); ++k) {
    data::ContextSpec context;
    if (!ParseContextSpec(context_texts[k], &context)) return 1;
    const Status st = table.Register(k + 1, std::move(context));
    if (!st.ok()) {
      std::fprintf(stderr, "register context %zu failed: %s\n", k + 1,
                   st.ToString().c_str());
      return 1;
    }
  }
  model.SetContextTable(&table);

  // One heterogeneous batch: base first, then every counterfactual of the
  // same anchor — they share every untouched feature column in the cache.
  std::vector<core::WorkItem> items;
  items.push_back({anchor, 0});
  for (size_t k = 0; k < context_texts.size(); ++k) {
    items.push_back({anchor, k + 1});
  }
  const std::vector<double> kmh = model.PredictKmhItems(items);

  const std::vector<double> truth = model.TrueKmh({anchor});
  std::printf("anchor %ld (true %.2f km/h), %zu contexts in one batch\n",
              anchor, truth.empty() ? 0.0 : truth[0], context_texts.size());
  TablePrinter out({"context", "spec", "pred km/h", "delta vs base"});
  out.AddRow({"base", "live stream", FormatMetric(kmh[0]), "-"});
  for (size_t k = 0; k < context_texts.size(); ++k) {
    out.AddRow({StrFormat("%zu", k + 1), context_texts[k],
                FormatMetric(kmh[k + 1]),
                StrFormat("%+.2f", kmh[k + 1] - kmh[0])});
  }
  out.Print();

  const auto stats = model.inference_runtime().feature_cache()->stats();
  std::printf(
      "feature cache: %zu hits, %zu misses (%.0f%% hit rate); "
      "%llu unknown-context items\n",
      stats.hits, stats.misses,
      stats.hits + stats.misses == 0
          ? 0.0
          : 100.0 * static_cast<double>(stats.hits) /
                static_cast<double>(stats.hits + stats.misses),
      static_cast<unsigned long long>(
          model.inference_runtime().unknown_context_items()));
  return 0;
}

// Online-serving simulation: streams a synthetic corridor through the
// delivery-fault model into the supervisor stack and reports per-tier
// volume and accuracy, plus ingestion and checkpoint health.
int Serve(const std::map<std::string, std::string>& flags) {
  // --shards/--replicas/--chaos select the sharded serving plane; the
  // classic single-stack simulation remains the default.
  int64_t value = 0;
  int shards = 1;
  int replicas = 1;
  const std::string shards_flag = Flag(flags, "shards", "");
  if (!shards_flag.empty()) {
    if (!ParseInt64(shards_flag, &value) || value < 1) {
      std::fprintf(stderr, "bad --shards: %s (valid: integer >= 1)\n",
                   shards_flag.c_str());
      return 1;
    }
    shards = static_cast<int>(value);
  }
  const std::string replicas_flag = Flag(flags, "replicas", "");
  if (!replicas_flag.empty()) {
    if (!ParseInt64(replicas_flag, &value) || value < 1) {
      std::fprintf(stderr, "bad --replicas: %s (valid: integer >= 1)\n",
                   replicas_flag.c_str());
      return 1;
    }
    replicas = static_cast<int>(value);
  }
  if (shards > 1 || replicas > 1 || Flag(flags, "chaos", "off") != "off") {
    return ServeSharded(flags, shards, replicas);
  }

  serve::HarnessConfig hc;
  traffic::DatasetSpec spec;
  spec.num_days = 7;
  spec.num_roads = 5;
  spec.hyundai_calendar = false;
  if (ParseInt64(Flag(flags, "days", ""), &value)) {
    spec.num_days = static_cast<int>(value);
  }
  if (ParseInt64(Flag(flags, "roads", ""), &value)) {
    spec.num_roads = static_cast<int>(value);
  }
  if (ParseInt64(Flag(flags, "seed", ""), &value)) {
    spec.seed = static_cast<uint64_t>(value);
  }
  hc.spec = spec;
  double warmup = 0.5;
  if (ParseDouble(Flag(flags, "warmup", ""), &warmup)) {
    hc.warmup_fraction = warmup;
  }
  hc.predictor = ParsePredictor(Flag(flags, "predictor", "F"));
  if (ParseInt64(Flag(flags, "divisor", ""), &value) && value > 0) {
    hc.width_divisor = static_cast<size_t>(value);
  }
  if (ParseInt64(Flag(flags, "epochs", ""), &value)) {
    hc.train_epochs = static_cast<int>(value);
  }
  uint64_t feed_seed = 99;
  if (ParseInt64(Flag(flags, "feed-seed", ""), &value)) {
    feed_seed = static_cast<uint64_t>(value);
  }
  hc.feed = Flag(flags, "storm", "1") == "1"
                ? serve::FeedFaultSpec::Storm(feed_seed)
                : serve::FeedFaultSpec::Clean();
  double ms = 0.0;
  if (ParseDouble(Flag(flags, "deadline-ms", ""), &ms)) {
    hc.serve.deadline_ms = ms;
  }
  if (ParseDouble(Flag(flags, "watchdog-ms", ""), &ms)) {
    hc.serve.watchdog_timeout_ms = ms;
  }
  if (!ParseQuantizeFlag(flags, &hc.inference.quantize)) return 1;
  hc.serve.checkpoint_dir = Flag(flags, "checkpoint-dir", "");
  if (ParseInt64(Flag(flags, "checkpoint-every", ""), &value)) {
    hc.serve.checkpoint_every = value;
  }
  if (ParseInt64(Flag(flags, "anchors-per-tick", ""), &value) && value > 0) {
    hc.anchors_per_tick = static_cast<int>(value);
  }
  long kill_at = 0;  // ticks into the stream; 0 = never
  if (ParseInt64(Flag(flags, "kill-at", ""), &value)) kill_at = value;
  long max_ticks = 0;  // 0 = run the whole stream
  if (ParseInt64(Flag(flags, "ticks", ""), &value)) max_ticks = value;

  const bool attack_on = Flag(flags, "attack", "0") == "1";
  if (attack_on) {
    hc.attack.enabled = true;
    hc.feed.poison = true;
    hc.attack.use_spsa = Flag(flags, "attack-method", "pgd") == "spsa";
    hc.attack.attack = ParseAttackConfig(flags, "attack-steps");
    // A poisoned feed needs trained weights to aim at.
    if (hc.train_epochs <= 0) hc.train_epochs = 2;
  }

  // Front-door mode: tick anchors flow through the concurrent request
  // path (bounded MPSC queue, admission control, coalescing, deadlines)
  // instead of calling the supervisor inline.
  const bool frontend_on = Flag(flags, "frontend", "0") == "1";
  serve::FrontendConfig fc;
  if (ParseInt64(Flag(flags, "frontend-queue", ""), &value) && value > 0) {
    fc.queue_capacity = static_cast<size_t>(value);
  }
  if (ParseInt64(Flag(flags, "frontend-batch", ""), &value) && value > 0) {
    fc.max_batch = static_cast<size_t>(value);
  }
  if (ParseDouble(Flag(flags, "frontend-deadline-ms", ""), &ms)) {
    fc.default_deadline_ms = ms;
  }

  serve::SimulationHarness harness(std::move(hc));
  if (frontend_on) harness.EnableFrontend(fc);
  const int target = harness.target_road();
  const int beta = harness.model().assembler().beta();
  std::printf("serving %d roads x %ld intervals, warmup %ld, %s feed\n",
              spec.num_roads, harness.truth().num_intervals(),
              harness.warmup_end(),
              Flag(flags, "storm", "1") == "1" ? "storm" : "clean");
  PrintDispatch(harness.model().config().inference.quantize);

  double abs_err[serve::kNumServeTiers] = {0, 0, 0, 0};
  uint64_t err_count[serve::kNumServeTiers] = {0, 0, 0, 0};
  long ticks_run = 0;
  bool more = true;
  while (more) {
    more = harness.RunTick();
    ++ticks_run;
    const auto& anchors = harness.last_anchors();
    const auto& responses = harness.last_responses();
    for (size_t i = 0; i < anchors.size(); ++i) {
      const int tier = static_cast<int>(responses[i].tier);
      abs_err[tier] += std::abs(
          responses[i].kmh -
          harness.truth().Speed(target, anchors[i] + beta));
      ++err_count[tier];
    }
    if (kill_at > 0 && ticks_run == kill_at) {
      auto recovered = harness.KillAndRecover(spec.seed + 1);
      if (recovered.ok()) {
        std::printf("killed at tick %ld; recovered generation %llu "
                    "(watermark %ld)%s\n",
                    ticks_run,
                    static_cast<unsigned long long>(
                        recovered.value().generation),
                    harness.ingestor().watermark(),
                    recovered.value().fell_back() ? " after fallback" : "");
      } else {
        std::printf("killed at tick %ld; recovery failed: %s\n", ticks_run,
                    recovered.status().ToString().c_str());
      }
    }
    if (max_ticks > 0 && ticks_run >= max_ticks) break;
  }

  const serve::ServeReport report = harness.report();
  TablePrinter table({"tier", "served", "share", "MAE km/h"});
  for (int tier = 0; tier < serve::kNumServeTiers; ++tier) {
    const uint64_t n = report.tier_counts[tier];
    table.AddRow(
        {serve::ServeTierName(static_cast<serve::ServeTier>(tier)),
         StrFormat("%llu", static_cast<unsigned long long>(n)),
         StrFormat("%.1f%%", report.requests == 0
                                 ? 0.0
                                 : 100.0 * static_cast<double>(n) /
                                       static_cast<double>(report.requests)),
         err_count[tier] == 0
             ? std::string("-")
             : StrFormat("%.2f", abs_err[tier] /
                                     static_cast<double>(err_count[tier]))});
  }
  table.Print();
  const auto& ingest = harness.ingestor().stats();
  const auto& feed = harness.feed().stats();
  std::printf(
      "availability %.4f over %llu requests (%llu failures); "
      "max staleness %ld\n",
      report.availability(),
      static_cast<unsigned long long>(report.requests),
      static_cast<unsigned long long>(report.failures),
      report.max_staleness);
  std::printf(
      "feed: %llu generated, %llu delayed, %llu dup, %llu dropped, "
      "%llu torn ticks\n",
      static_cast<unsigned long long>(feed.generated),
      static_cast<unsigned long long>(feed.delayed),
      static_cast<unsigned long long>(feed.duplicated),
      static_cast<unsigned long long>(feed.dropped),
      static_cast<unsigned long long>(feed.torn_ticks));
  std::printf(
      "ingest: %llu applied (%llu late), %llu dup, %llu rejected, "
      "%llu imputed, %llu cache invalidations\n",
      static_cast<unsigned long long>(ingest.applied),
      static_cast<unsigned long long>(ingest.late),
      static_cast<unsigned long long>(ingest.duplicates),
      static_cast<unsigned long long>(ingest.rejected),
      static_cast<unsigned long long>(ingest.imputed),
      static_cast<unsigned long long>(ingest.cache_invalidations));
  std::printf(
      "protection: %llu deadline misses, %llu degraded, %llu watchdog "
      "trips, %llu checkpoints\n",
      static_cast<unsigned long long>(report.deadline_misses),
      static_cast<unsigned long long>(report.deadline_degraded),
      static_cast<unsigned long long>(report.watchdog_trips),
      static_cast<unsigned long long>(report.checkpoints_written));
  if (frontend_on && harness.frontend() != nullptr) {
    const serve::FrontendStats fs = harness.frontend()->stats();
    std::printf(
        "frontend: %llu submitted, %llu served, %llu coalesced, "
        "%llu shed (overload %llu, deadline %llu), max queue depth %llu, "
        "%llu inference calls\n",
        static_cast<unsigned long long>(fs.submitted),
        static_cast<unsigned long long>(fs.served),
        static_cast<unsigned long long>(fs.coalesce_hits),
        static_cast<unsigned long long>(fs.sheds()),
        static_cast<unsigned long long>(fs.shed_overload),
        static_cast<unsigned long long>(fs.shed_deadline),
        static_cast<unsigned long long>(fs.max_queue_depth),
        static_cast<unsigned long long>(fs.inference_calls));
  }
  if (attack_on) {
    const auto& detector = *harness.detector();
    std::string flagged;
    for (const int road : detector.FlaggedRoads()) {
      if (!flagged.empty()) flagged += ",";
      flagged += StrFormat("%d", road);
    }
    std::printf(
        "attack: %llu readings poisoned (max|delta| %.2f km/h); detector "
        "scored %llu records, %llu anomalous, flagged roads [%s]\n",
        static_cast<unsigned long long>(feed.poisoned),
        harness.attack_plan().MaxAbsDelta(),
        static_cast<unsigned long long>(detector.stats().observed),
        static_cast<unsigned long long>(detector.stats().anomalous),
        flagged.c_str());
  }
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: apots_cli "
      "<generate|train|evaluate|robustness|serve|attack|whatif>"
      " [--flag value]\n"
      "  generate --out d.csv [--days N] [--roads N] [--seed S]\n"
      "  train    --data d.csv [--model m.bin] [--predictor F|L|C|H]\n"
      "           [--adversarial 0|1] [--epochs N] [--divisor N]\n"
      "           [--guard 0|1]\n"
      "  evaluate --data d.csv --model m.bin [same model flags]\n"
      "  robustness [--data d.csv | --days N --roads N --seed S]\n"
      "           [--rates 0,0.05,0.15,0.3] [--predictor F|L|C|H]\n"
      "           [--epochs N] [--divisor N] [--adversarial 0|1]\n"
      "           [--fault-seed S] [--fault-kinds drop,stuck,noise,outage]\n"
      "  train/evaluate also take --fault-rate R --fault-seed S\n"
      "           --fault-kinds K to corrupt + repair the dataset first\n"
      "  serve    [--days N] [--roads N] [--seed S] [--warmup F]\n"
      "           [--predictor F|L|C|H] [--epochs N] [--divisor N]\n"
      "           [--storm 0|1] [--feed-seed S] [--deadline-ms MS]\n"
      "           [--watchdog-ms MS] [--checkpoint-dir D]\n"
      "           [--checkpoint-every N] [--kill-at TICK] [--ticks N]\n"
      "           [--anchors-per-tick N] [--attack 0|1]\n"
      "           [--shards N] [--replicas R] [--chaos off|K] [--chaos-seed S]\n"
      "           (K from kill,stall,partition,skew,corrupt or all;\n"
      "           --shards/--replicas/--chaos run the sharded plane)\n"
      "           [--frontend 0|1] [--frontend-queue N]\n"
      "           [--frontend-batch N] [--frontend-deadline-ms MS]\n"
      "           [--attack-method pgd|spsa] [--eps-kmh E]\n"
      "           [--smooth-kmh S] [--attack-steps N]\n"
      "  attack   [--days N] [--roads N] [--seed S] [--predictor F|L|C|H]\n"
      "           [--epochs N] [--divisor N] [--method pgd|spsa]\n"
      "           [--eps-kmh E] [--smooth-kmh S] [--steps N]\n"
      "           [--spsa-samples N] [--attack-seed S] [--defend 0|1]\n"
      "           [--defense-rounds N] [--finetune-epochs N]\n"
      "  whatif   [--days N] [--roads N] [--seed S] [--predictor F|L|C|H]\n"
      "           [--epochs N] [--divisor N] [--anchor A]\n"
      "           [--contexts \"SPEC;SPEC;...\"] where each SPEC is a\n"
      "           comma list of clear-event | set-event | rain+X | rain-X\n"
      "           | day=weekday|holiday|before-holiday|after-holiday,\n"
      "           each with an optional @begin:end interval window\n"
      "  every command also takes --metrics-json PATH (dump the metrics\n"
      "           registry as JSON on exit) and --trace PATH (record\n"
      "           chrome://tracing spans; open the file in a trace viewer)\n"
      "  model commands also take --quantize off|fp16|int8 (inference\n"
      "           weight precision; serve/attack print the dispatched\n"
      "           kernel, ISA, and precision)\n");
  return 2;
}

// Writes the metrics registry and/or the trace ring to the paths named by
// --metrics-json / --trace. Failures demote the exit code to 1 so scripts
// notice the missing artifact, but never mask a command's own failure.
int EmitObservability(const std::map<std::string, std::string>& flags,
                      int rc) {
  const std::string metrics_path = Flag(flags, "metrics-json", "");
  if (!metrics_path.empty()) {
    if (obs::MetricsRegistry::Default().WriteJson(metrics_path)) {
      std::printf("wrote metrics to %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write metrics to %s\n",
                   metrics_path.c_str());
      if (rc == 0) rc = 1;
    }
  }
  const std::string trace_path = Flag(flags, "trace", "");
  if (!trace_path.empty()) {
    if (obs::TraceRecorder::Default().WriteJson(trace_path)) {
      std::printf("wrote %zu trace events to %s\n",
                  obs::TraceRecorder::Default().EventCount(),
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_path.c_str());
      if (rc == 0) rc = 1;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const auto flags = ParseFlags(argc, argv, 2);
  if (!Flag(flags, "trace", "").empty()) {
    obs::TraceRecorder::Default().Enable({});
  }
  int rc = -1;
  if (command == "generate") rc = Generate(flags);
  else if (command == "train") rc = Train(flags);
  else if (command == "evaluate") rc = Evaluate(flags);
  else if (command == "robustness") rc = Robustness(flags);
  else if (command == "serve") rc = Serve(flags);
  else if (command == "attack") rc = Attack(flags);
  else if (command == "whatif") rc = Whatif(flags);
  if (rc < 0) return Usage();
  return EmitObservability(flags, rc);
}
