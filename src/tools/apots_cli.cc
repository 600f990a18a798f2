// apots_cli — command-line front end for the library, the entry point a
// downstream user would script against. Each subcommand declares its
// flags in one table (Planes() below) that parses them, records the
// subcommand's defaults and generates the usage text `apots_cli` prints
// without arguments. Exit status: 0 on success, 1 on a runtime failure,
// 2 on a usage error (an unknown, repeated or valueless flag, a stray
// argument, or a value of the wrong type or range), which is reported
// before any dataset, file or model work.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "attack/attacker.h"
#include "attack/defense.h"
#include "chaos/chaos.h"
#include "core/apots_model.h"
#include "data/context.h"
#include "data/imputation.h"
#include "data/windowing.h"
#include "metrics/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/harness.h"
#include "serve/sharded_service.h"
#include "tensor/cpu_features.h"
#include "tensor/quant.h"
#include "tensor/tensor_ops.h"
#include "traffic/dataset_generator.h"
#include "traffic/fault_injector.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using namespace apots;

// Feature window of the model subcommands: alpha intervals of history,
// predicting beta intervals ahead.
constexpr int kAlpha = 12;
constexpr int kBeta = 3;

// One row of a flag table: the name, the usage placeholder (for a choice,
// its '|'-separated values), and the default applied when the flag is
// absent (nullptr: the library type's own default, or unset).
struct Row {
  const char* name;
  const char* arg;
  const char* def = nullptr;
  bool required = false;
};
using Table = std::vector<Row>;

// Values of the F|L|C|H and off|fp16|int8 choices, in placeholder order.
constexpr core::PredictorType kPredictors[] = {
    core::PredictorType::kFc, core::PredictorType::kLstm,
    core::PredictorType::kCnn, core::PredictorType::kHybrid};
constexpr tensor::QuantMode kQuantModes[] = {tensor::QuantMode::kOff,
                                             tensor::QuantMode::kFp16,
                                             tensor::QuantMode::kInt8};

class Flags;

// The flags a subcommand reads in one mode: `serve` runs one stack or the
// sharded plane, `robustness` generated data or --data. `when` names the
// mode; it is empty for one-mode subcommands.
struct Plane {
  const char* command;
  const char* when;
  Table table;
  int (*run)(Flags&);
};

// Prints the usage of `planes`, generated from their tables.
void PrintUsage(const std::vector<const Plane*>& planes) {
  std::string names, text;
  for (const Plane* p : planes) {
    if (names.find(p->command) == std::string::npos) {
      names += (names.empty() ? "" : "|") + std::string(p->command);
    }
    std::string line = StrFormat("  %-11s", p->command);
    if (*p->when != '\0') {
      text += line + p->when + ":\n";
      line = std::string(13, ' ');
    }
    for (const Row& row : p->table) {
      std::string item = StrFormat("--%s %s", row.name, row.arg);
      if (row.def != nullptr) item += StrFormat(" (%s)", row.def);
      if (!row.required) item = "[" + item + "]";
      if (line.size() > 13 && line.size() + 1 + item.size() > 79) {
        text += line + "\n";
        line = std::string(13, ' ');
      }
      line += (line.size() > 13 ? " " : "") + item;
    }
    text += line + "\n";
  }
  if (names.find('|') != std::string::npos) names = "<" + names + ">";
  if (text.find("SPECS") != std::string::npos) {
    text +=
        "  SPECS: ';'-separated contexts, each a comma list of clear-event,\n"
        "  set-event, rain+X, rain-X or day=weekday|holiday|before-holiday|\n"
        "  after-holiday, each with an optional @begin:end interval window\n";
  }
  std::fprintf(stderr,
               "usage: apots_cli %s [--flag value]...\n%sexit status: 0 "
               "success, 1 runtime failure, 2 usage error\n",
               names.c_str(), text.c_str());
}

// A subcommand's flags. Parse() checks each --name value pair against the
// subcommand's tables; the typed getters read each value, or the table
// default, and check its type and range. The first error wins, and the
// subcommand reports it through Usage() before any work.
class Flags {
 public:
  explicit Flags(std::vector<const Plane*> planes)
      : planes_(std::move(planes)) {}

  const char* command() const { return planes_[0]->command; }

  void Parse(int argc, char** argv) {
    for (int i = 2; i < argc && ok(); i += 2) {
      const std::string token = argv[i];
      if (!StartsWith(token, "--")) {
        Fail("unexpected argument '" + token + "'");
      } else if (Find(token.c_str() + 2) == nullptr) {
        Fail("unknown flag " + token);
      } else if (Has(token.c_str() + 2)) {
        Fail(token + " given twice");
      } else if (i + 1 == argc || StartsWith(argv[i + 1], "--")) {
        Fail(token + " needs a value");
      } else {
        given_.emplace_back(token.substr(2), argv[i + 1]);
      }
    }
    if (planes_.size() == 1) Select(0);
  }

  // Reads the rest on plane `plane`: a given flag it does not read, or a
  // missing required one, is an error.
  void Select(size_t plane) {
    plane_ = plane;
    for (const auto& [name, value] : given_) {
      if (Find(name.c_str()) == nullptr) {
        Fail("--" + name + " is not read " + planes_[plane]->when);
      }
    }
    for (const Row& row : planes_[plane]->table) {
      if (row.required && !Has(row.name)) {
        Fail(StrFormat("--%s is required", row.name));
      }
    }
  }

  bool Has(const char* name) const { return Given(name) != nullptr; }
  std::string Text(const char* name) const {  // "" when unset
    const char* text = Value(name);
    return text == nullptr ? "" : text;
  }

  // Reads a number in [lo, hi] — an integer unless T is floating — into
  // `out`; leaves `out` alone when the flag is absent without a default.
  template <typename T>
  void Num(const char* name, T* out, double lo, double hi = HUGE_VAL) {
    constexpr bool kReal = std::is_floating_point_v<T>;
    const char* text = Value(name);
    int64_t integer = 0;
    double value = 0.0;
    if (text == nullptr) return;
    const bool parsed = kReal ? ParseDouble(text, &value)
                              : ParseInt64(text, &integer);
    if (!kReal) value = static_cast<double>(integer);
    hi = std::min<double>(hi, std::numeric_limits<T>::max());
    if (parsed && std::isfinite(value) && value >= lo && value <= hi) {
      *out = kReal ? static_cast<T>(value) : static_cast<T>(integer);
      return;
    }
    Fail(StrFormat("--%s %s: want %s%s", name, text,
                   kReal ? "a finite number" : "an integer",
                   lo == -HUGE_VAL ? ""
                   : hi >= std::numeric_limits<int>::max()
                       ? StrFormat(" >= %.15g", lo).c_str()
                       : StrFormat(" in [%.15g, %.15g]", lo, hi).c_str()));
  }

  // The value's index among the row's '|'-separated placeholder; 0 when
  // the subcommand has no such row.
  int Choice(const char* name) {
    const Row* row = Find(name);
    const char* text = Value(name);
    if (row == nullptr || text == nullptr) return 0;
    const std::vector<std::string> options = Split(row->arg, '|');
    for (size_t i = 0; i < options.size(); ++i) {
      if (options[i] == text) return static_cast<int>(i);
    }
    Fail(StrFormat("--%s %s: want one of %s", name, text, row->arg));
    return 0;
  }
  bool Bool(const char* name) { return Choice(name) == 1; }

  // Reads the value through a library parser returning Result<T>.
  template <typename T, typename Parser>
  void Parsed(const char* name, T* out, Parser parse) {
    const char* text = Value(name);
    if (text == nullptr) return;
    auto parsed = parse(std::string(text));
    if (parsed.ok()) {
      *out = std::move(parsed).value();
    } else {
      Fail(StrFormat("--%s: %s", name, parsed.status().message().c_str()));
    }
  }

  void Check(const Status& status) {
    if (!status.ok()) Fail(status.message());
  }
  void Fail(std::string what) {
    if (error_.empty()) error_ = std::move(what);
  }
  bool ok() const { return error_.empty(); }

  // Reports the first error with the subcommand's usage; returns 2.
  int Usage() const {
    std::fprintf(stderr, "apots_cli %s: %s\n", command(), error_.c_str());
    PrintUsage(planes_);
    return 2;
  }

 private:
  // The row on the selected plane; before Select, on the first that has it.
  const Row* Find(std::string_view name) const {
    for (size_t i = 0; i < planes_.size(); ++i) {
      for (const Row& row : planes_[i]->table) {
        if ((plane_ == kNone || i == plane_) && row.name == name) return &row;
      }
    }
    return nullptr;
  }
  const std::string* Given(const char* name) const {
    for (const auto& [key, value] : given_) {
      if (key == name) return &value;
    }
    return nullptr;
  }
  const char* Value(const char* name) const {
    if (const std::string* given = Given(name)) return given->c_str();
    const Row* row = Find(name);
    return row == nullptr ? nullptr : row->def;
  }

  static constexpr size_t kNone = static_cast<size_t>(-1);
  std::vector<const Plane*> planes_;
  size_t plane_ = kNone;
  std::vector<std::pair<std::string, std::string>> given_;
  std::string error_;
};

// Prints `what: status` and returns true when `status` is an error.
bool Failed(const char* what, const Status& status) {
  if (status.ok()) return false;
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  return true;
}

unsigned long long Ull(uint64_t n) { return n; }

// One-line dispatch summary: the build's matmul kernel rule, the ISA rung
// runtime dispatch lands on, and the inference weight precision.
void PrintDispatch(tensor::QuantMode quantize) {
  std::printf("kernels: %s (isa %s), quantize %s\n",
              tensor::KernelModeName(tensor::GetKernelMode()),
              tensor::ActiveIsaLabel(), tensor::QuantModeName(quantize));
}

// The corridor the dataset flags describe; only `generate` lands on the
// paper's 122-day holiday calendar.
traffic::DatasetSpec ReadDatasetSpec(Flags& f) {
  traffic::DatasetSpec spec;
  spec.hyundai_calendar = std::string_view(f.command()) == "generate";
  f.Num("days", &spec.num_days, 1);
  f.Num("roads", &spec.num_roads, 1);
  f.Num("seed", &spec.seed, 0);
  return spec;
}

// A model subcommand's session: ReadSession fills where the dataset comes
// from, the model and the sensor faults from the flags; Load, the one
// setup path, fills in the rest.
struct Session {
  std::string data_path;  ///< empty: generate the dataset from `spec`
  traffic::DatasetSpec spec;
  traffic::FaultSpec faults;  ///< rate 0: none
  core::ApotsConfig config;
  traffic::TrafficDataset dataset;
  data::SampleSplit split;
  traffic::ValidityMask mask;  ///< empty unless faults were injected
};

Session ReadSession(Flags& f) {
  Session s;
  s.data_path = f.Text("data");
  s.spec = ReadDatasetSpec(f);
  const core::PredictorType type = kPredictors[f.Choice("predictor")];
  size_t divisor = 1;
  f.Num("divisor", &divisor, 1);
  s.config.predictor = divisor == 1
                           ? core::PredictorHparams::Paper(type)
                           : core::PredictorHparams::Scaled(type, divisor);
  s.config.discriminator =
      core::DiscriminatorHparams::Scaled(std::max<size_t>(1, divisor / 4));
  s.config.features = data::FeatureConfig::Both();
  s.config.features.beta = kBeta;
  s.config.training.adversarial = f.Bool("adversarial");
  s.config.training.adv_weight = 0.05f;
  s.config.training.guard.enabled = true;
  f.Num("epochs", &s.config.training.epochs, 0);
  s.config.inference.quantize = kQuantModes[f.Choice("quantize")];
  s.faults.rate = 0.0;
  f.Num("fault-rate", &s.faults.rate, 0.0, 1.0);
  f.Num("fault-seed", &s.faults.seed, 0);
  f.Parsed("fault-kinds", &s.faults.kinds, traffic::ParseFaultKinds);
  return s;
}

// Loads or generates the dataset, sizes the feature window to its roads,
// injects faults (repaired by imputation, with mask-aware fallback) and
// splits by day. False (after printing) on a runtime failure.
bool Load(Session* s) {
  if (s->data_path.empty()) {
    s->dataset = traffic::GenerateDataset(s->spec);
  } else {
    auto dataset = traffic::TrafficDataset::ReadCsv(s->data_path);
    if (Failed(("cannot read " + s->data_path).c_str(), dataset.status())) {
      return false;
    }
    s->dataset = std::move(dataset).value();
  }
  s->config.features.num_adjacent = (s->dataset.num_roads() - 1) / 2;
  if (s->faults.rate > 0.0) {
    auto mask = traffic::FaultInjector(s->faults).Inject(&s->dataset);
    if (Failed("fault injection failed", mask.status())) return false;
    s->mask = std::move(mask).value();
    auto report = data::ImputeSpeeds(&s->dataset, s->mask);
    if (Failed("imputation failed", report.status())) return false;
    s->config.fallback.enabled = true;
    std::printf("injected %s faults over %.1f%% of cells (seed %llu); "
                "repaired %ld cells (locf=%ld profile=%ld mean=%ld)\n",
                traffic::FaultKindsToString(s->faults.kinds).c_str(),
                s->faults.rate * 100.0, Ull(s->faults.seed),
                report.value().cells_invalid, report.value().locf_filled,
                report.value().profile_filled, report.value().mean_filled);
  }
  s->split = data::MakeSplit(s->dataset, kAlpha, kBeta, 0.2,
                             data::SplitStrategy::kBlockedByDay, 42);
  return true;
}

// Prints the training banner and trains (under the guard when the config
// enables it); false (after printing) when training fails.
bool TrainModel(const Session& session, core::ApotsModel* model,
                core::TrainReport* report) {
  std::printf("training %s on %zu anchors (%zu weights)...\n",
              session.config.Tag().c_str(), session.split.train.size(),
              model->NumWeights());
  auto trained = model->TrainGuarded(session.split.train);
  if (Failed("training failed", trained.status())) return false;
  if (report != nullptr) *report = std::move(trained).value();
  return true;
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

int Generate(Flags& f) {
  const traffic::DatasetSpec spec = ReadDatasetSpec(f);
  const std::string out = f.Text("out");
  if (!f.ok()) return f.Usage();
  const traffic::TrafficDataset dataset = traffic::GenerateDataset(spec);
  if (Failed("generate failed", dataset.WriteCsv(out))) return 1;
  std::printf("wrote %s: %d roads x %ld intervals (%d days), %zu incidents\n",
              out.c_str(), dataset.num_roads(), dataset.num_intervals(),
              dataset.num_days(), dataset.incident_log().size());
  return 0;
}

int Train(Flags& f) {
  Session session = ReadSession(f);
  session.config.training.guard.enabled = f.Bool("guard");
  const std::string model_path = f.Text("model");
  if (!f.ok()) return f.Usage();
  if (!Load(&session)) return 1;
  core::ApotsModel model(&session.dataset, session.config);
  if (!session.mask.empty()) model.SetValidityMask(&session.mask);
  core::TrainReport report;
  if (!TrainModel(session, &model, &report)) return 1;
  for (const std::string& incident : report.incidents) {
    std::printf("guard: %s\n", incident.c_str());
  }
  std::printf("final epoch: mse=%.5f (%d epochs, %d rollbacks%s)\n",
              report.last.mse_loss, report.epochs_completed,
              report.rollbacks,
              report.stopped_early ? ", stopped early" : "");
  Report(session, &model, session.split.test);
  if (model_path.empty()) return 0;
  if (Failed("save failed", model.Save(model_path))) return 1;
  std::printf("saved weights to %s\n", model_path.c_str());
  return 0;
}

int Evaluate(Flags& f) {
  Session session = ReadSession(f);
  const std::string model_path = f.Text("model");
  if (!f.ok()) return f.Usage();
  if (!Load(&session)) return 1;
  core::ApotsModel model(&session.dataset, session.config);
  if (Failed("load failed", model.Load(model_path))) return 1;
  if (!session.mask.empty()) model.SetValidityMask(&session.mask);
  Report(session, &model, session.split.test);
  return 0;
}

Result<std::vector<double>> ParseRates(const std::string& text) {
  std::vector<double> rates;
  for (const std::string& token : Split(text, ',')) {
    double rate = 0.0;
    if (!ParseDouble(token, &rate) || !(rate >= 0.0 && rate <= 1.0)) {
      return Status::InvalidArgument("bad entry '" + Trim(token) +
                                     "' (want rates in [0, 1])");
    }
    rates.push_back(rate);
  }
  return rates;
}

// Accuracy-vs-fault-rate sweep: trains one model on clean data, then
// re-evaluates the same weights against datasets corrupted at increasing
// fault rates (repaired by imputation, guarded by the fallback).
int Robustness(Flags& f) {
  f.Select(f.Has("data") ? 1 : 0);
  Session session = ReadSession(f);
  std::vector<double> rates;
  f.Parsed("rates", &rates, ParseRates);
  if (!f.ok()) return f.Usage();
  if (!Load(&session)) return 1;
  const traffic::TrafficDataset clean = session.dataset;  // truth source

  core::ApotsModel model(&session.dataset, session.config);
  if (!TrainModel(session, &model, nullptr)) return 1;

  const std::vector<long>& test = session.split.test;
  const int target = model.assembler().target_road();
  const int beta = model.assembler().beta();
  TablePrinter table({"fault rate", "valid", "MAE", "RMSE", "MAPE",
                      "fallback", "scored"});
  for (double rate : rates) {
    traffic::TrafficDataset faulted = clean;
    traffic::FaultSpec spec = session.faults;
    spec.rate = rate;
    auto mask_result = traffic::FaultInjector(spec).Inject(&faulted);
    const std::string at = StrFormat(" at rate %.2f failed", rate);
    if (Failed(("injection" + at).c_str(), mask_result.status())) return 1;
    traffic::ValidityMask mask = std::move(mask_result).value();
    if (rate > 0.0 && Failed(("imputation" + at).c_str(),
                             data::ImputeSpeeds(&faulted, mask).status())) {
      return 1;
    }
    core::ApotsConfig eval_config = session.config;
    eval_config.fallback.enabled = true;
    core::ApotsModel eval_model(&faulted, eval_config);
    if (Failed("weight transfer failed", eval_model.CopyWeightsFrom(model))) {
      return 1;
    }
    eval_model.SetValidityMask(&mask);
    eval_model.FitFallback(session.split.train);
    const auto predictions = eval_model.PredictKmh(test);
    // Truths come from the pristine copy; score observed targets only,
    // like a deployment that cannot grade itself on fabricated values.
    std::vector<double> truths(test.size());
    for (size_t i = 0; i < truths.size(); ++i) {
      truths[i] = clean.Speed(target, test[i] + beta);
    }
    const auto metric_set = metrics::ComputeMasked(
        predictions, truths,
        metrics::ObservedTargetMask(mask, test, target, beta));
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

// The attack flags `attack` and `serve` share; `steps` names the
// iteration flag, which `serve` calls --attack-steps.
attack::AttackConfig ReadAttackConfig(Flags& f, const char* steps) {
  attack::AttackConfig config;
  f.Num("eps-kmh", &config.budget.epsilon_kmh, -HUGE_VAL);
  f.Num("smooth-kmh", &config.budget.smooth_kmh, -HUGE_VAL);
  f.Num(steps, &config.steps, 1);
  f.Num("spsa-samples", &config.spsa_samples, 1);
  f.Num("attack-seed", &config.seed, 0);
  f.Check(config.Validate());
  return config;
}

// Adversarial attack/defense demo: train, attack the speed matrix under
// the plausibility budget, optionally defend by RDAT-style fine-tuning,
// and report the accuracy at each stage (truths always from clean data).
int Attack(Flags& f) {
  Session session = ReadSession(f);
  const bool spsa = f.Choice("method") == 1;
  const attack::AttackConfig attack_config = ReadAttackConfig(f, "steps");
  const bool defend = f.Bool("defend");
  attack::DefenseConfig defense_config;
  defense_config.attack = attack_config;
  f.Num("defense-rounds", &defense_config.rounds, 1);
  f.Num("finetune-epochs", &defense_config.finetune_epochs, 1);
  if (defend) f.Check(defense_config.Validate());
  if (!f.ok()) return f.Usage();
  if (!Load(&session)) return 1;

  core::ApotsModel model(&session.dataset, session.config);
  PrintDispatch(session.config.inference.quantize);
  if (!TrainModel(session, &model, nullptr)) return 1;
  attack::Attacker attacker(attack_config);
  const std::vector<long>& test = session.split.test;
  const auto truths = model.TrueKmh(test);
  const double clean_mae =
      metrics::Compute(model.PredictKmh(test), truths).mae;

  // MAE over the test split of the current weights fed `inputs` (targets
  // stay clean truth); NaN, after printing, when the weights cannot move.
  const auto mae_on = [&](const traffic::TrafficDataset& inputs) {
    core::ApotsModel eval_model(&inputs, session.config);
    if (Failed("weight transfer failed", eval_model.CopyWeightsFrom(model))) {
      return std::nan("");
    }
    return metrics::Compute(eval_model.PredictKmh(test), truths).mae;
  };
  // Attacks the current weights and applies the plan to `attacked`.
  const auto attack_into = [&](traffic::TrafficDataset* attacked,
                               attack::AttackStats* stats) {
    auto plan = spsa ? attacker.BuildSpsaPlan(&model, test, 0, stats)
                     : attacker.BuildPgdPlan(&model, test, 0, stats);
    if (plan.ok()) plan.value().ApplyTo(attacked, attack_config.budget);
    return plan;
  };

  attack::AttackStats stats;
  traffic::TrafficDataset attacked = session.dataset;
  const auto plan = attack_into(&attacked, &stats);
  if (Failed("attack failed", plan.status())) return 1;
  const double attacked_mae = mae_on(attacked);
  if (std::isnan(attacked_mae)) return 1;

  std::printf(
      "%s attack: eps %.1f km/h, smooth %.1f km/h, %d steps; "
      "max|delta| %.2f, max step %.2f, %ld cells, %llu queries\n",
      spsa ? "spsa" : "pgd", attack_config.budget.epsilon_kmh,
      attack_config.budget.smooth_kmh, attack_config.steps,
      plan.value().MaxAbsDelta(), plan.value().MaxTemporalStep(),
      plan.value().NonzeroCells(), Ull(stats.queries));

  TablePrinter table({"arm", "MAE km/h", "vs clean"});
  const auto add_arm = [&](const char* arm, double mae) {
    table.AddRow({arm, FormatMetric(mae),
                  clean_mae <= 0.0 ? std::string("-")
                                   : StrFormat("%.2fx", mae / clean_mae)});
  };
  table.AddRow({"clean", FormatMetric(clean_mae), "1.00x"});
  add_arm("attacked", attacked_mae);

  if (defend) {
    attack::RdatDefense defense(defense_config);
    auto defended = defense.Run(&model, session.split.train);
    if (Failed("defense failed", defended.status())) return 1;
    const double defended_clean_mae =
        metrics::Compute(model.PredictKmh(test), truths).mae;
    // Transfer arm: the attacker's plan was fixed against the deployed
    // (undefended) weights — the poisoned-feed scenario — and the defense
    // fine-tuned after. This is the recovery the robustness bench gates.
    const double transfer_mae = mae_on(attacked);
    if (std::isnan(transfer_mae)) return 1;
    // Adaptive re-attack: the attacker gets a fresh plan against the
    // defended weights — the honest robustness measure.
    attack::AttackStats defended_stats;
    traffic::TrafficDataset reattacked = session.dataset;
    const auto replan = attack_into(&reattacked, &defended_stats);
    if (Failed("re-attack failed", replan.status())) return 1;
    const double adaptive_mae = mae_on(reattacked);
    if (std::isnan(adaptive_mae)) return 1;
    add_arm("defended clean", defended_clean_mae);
    add_arm("defended (transfer)", transfer_mae);
    add_arm("defended (adaptive)", adaptive_mae);
    const double gap = attacked_mae - clean_mae;
    if (gap > 0.0) {
      std::printf("defense recovered %.0f%% of the MAE gap against the "
                  "original plan (%.0f%% under adaptive re-attack; "
                  "%d rounds, %llu attack queries)\n",
                  100.0 * (attacked_mae - transfer_mae) / gap,
                  100.0 * (attacked_mae - adaptive_mae) / gap,
                  defense_config.rounds,
                  Ull(defended.value().attack_queries));
    }
  }
  table.Print();
  return 0;
}

// Counterfactual what-if fan-out: trains a small model, registers the K
// contexts parsed from --contexts (';'-separated), and answers one
// heterogeneous (anchor, context) batch through the runtime — per-context
// prediction plus delta vs the base context, in one batched forward pass.
int Whatif(Flags& f) {
  Session session = ReadSession(f);
  session.config.training.guard.enabled = false;
  long anchor = -1;  // default: the middle test anchor
  f.Num("anchor", &anchor, kAlpha,
        static_cast<double>(session.spec.num_days) *
                session.spec.intervals_per_day - kBeta - 1);
  std::vector<std::string> context_texts;
  for (const std::string& text : Split(f.Text("contexts"), ';')) {
    if (!Trim(text).empty()) context_texts.push_back(Trim(text));
  }
  if (context_texts.empty()) f.Fail("--contexts holds no context");
  data::ContextTable table;
  for (size_t k = 0; k < context_texts.size() && f.ok(); ++k) {
    auto context = data::ParseContextSpec(context_texts[k]);
    if (!context.ok()) {
      f.Fail("--contexts: " + context.status().message());
    } else {
      f.Check(table.Register(k + 1, std::move(context).value()));
    }
  }
  if (!f.ok()) return f.Usage();
  if (!Load(&session)) return 1;

  core::ApotsModel model(&session.dataset, session.config);
  PrintDispatch(session.config.inference.quantize);
  if (!TrainModel(session, &model, nullptr)) return 1;
  const std::vector<long>& test = session.split.test;
  if (anchor < 0) anchor = test.empty() ? kAlpha : test[test.size() / 2];
  model.SetContextTable(&table);

  // One heterogeneous batch: base first, then every counterfactual of the
  // same anchor — they share every untouched feature column in the cache.
  std::vector<core::WorkItem> items;
  for (size_t k = 0; k <= context_texts.size(); ++k) {
    items.push_back({anchor, k});
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
      Ull(model.inference_runtime().unknown_context_items()));
  return 0;
}

// Fills the fields serve::HarnessConfig and serve::ShardedConfig share.
template <typename Config>
void ReadServeStack(Flags& f, Config* config) {
  config->spec = ReadDatasetSpec(f);
  f.Num("warmup", &config->warmup_fraction, 0.0, 1.0);
  if (config->warmup_fraction == 1.0) f.Fail("--warmup 1: want less than 1");
  config->predictor = kPredictors[f.Choice("predictor")];
  f.Num("divisor", &config->width_divisor, 1);
  f.Num("epochs", &config->train_epochs, 0);
  uint64_t feed_seed = 0;
  f.Num("feed-seed", &feed_seed, 0);
  config->feed = f.Bool("storm") ? serve::FeedFaultSpec::Storm(feed_seed)
                                 : serve::FeedFaultSpec::Clean();
  f.Num("deadline-ms", &config->serve.deadline_ms, 0.0);
  f.Num("watchdog-ms", &config->serve.watchdog_timeout_ms, 0.0);
  config->inference.quantize = kQuantModes[f.Choice("quantize")];
  f.Num("checkpoint-every", &config->serve.checkpoint_every, 0);
  f.Num("anchors-per-tick", &config->anchors_per_tick, 1);
}

// Prints the per-tier volume table, with each tier's MAE when `abs_err`
// and `err_count` are given.
void PrintTiers(const uint64_t* counts, uint64_t requests,
                const double* abs_err, const uint64_t* err_count) {
  std::vector<std::string> header = {"tier", "served", "share"};
  if (abs_err != nullptr) header.push_back("MAE km/h");
  TablePrinter table(header);
  for (int tier = 0; tier < serve::kNumServeTiers; ++tier) {
    std::vector<std::string> row = {
        serve::ServeTierName(static_cast<serve::ServeTier>(tier)),
        StrFormat("%llu", Ull(counts[tier])),
        StrFormat("%.1f%%", requests == 0
                                ? 0.0
                                : 100.0 * static_cast<double>(counts[tier]) /
                                      static_cast<double>(requests))};
    if (abs_err != nullptr) {
      row.push_back(err_count[tier] == 0
                        ? std::string("-")
                        : StrFormat("%.2f", abs_err[tier] /
                                                static_cast<double>(
                                                    err_count[tier])));
    }
    table.AddRow(row);
  }
  table.Print();
}

// Sharded serving: N shards x R replicas of the supervisor stack behind
// the health-checked router, with cross-shard boundary exchange and an
// optional seeded chaos storm.
int ServeSharded(Flags& f, int shards, int replicas, unsigned chaos_kinds) {
  serve::ShardedConfig sc;
  ReadServeStack(f, &sc);
  sc.num_shards = shards;
  sc.replicas_per_shard = replicas;
  sc.checkpoint_root = f.Text("checkpoint-dir");
  long max_ticks = 0;  // 0 = run the whole stream
  f.Num("ticks", &max_ticks, 0);
  uint64_t chaos_seed = 0;
  f.Num("chaos-seed", &chaos_seed, 0);
  const int roads = sc.spec.num_roads;
  if (shards > roads / 2) {
    f.Fail(StrFormat("--shards %d: want at most %d with --roads %d (each "
                     "shard needs two roads)",
                     shards, roads / 2, roads));
  }
  if (!f.ok()) return f.Usage();

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
      roads, service.truth().num_intervals(), shards, replicas,
      service.warmup_end(), f.Bool("storm") ? "storm" : "clean",
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
    const size_t i = static_cast<size_t>(s);
    shard_table.AddRow(
        {StrFormat("%d", s), StrFormat("%d", service.target_road(s)),
         StrFormat("%d..%d", owned.front(), owned.back()),
         StrFormat("%zu", service.partition().boundary(s).size()),
         StrFormat("%d/%d", live, replicas),
         err_count[i] == 0
             ? std::string("-")
             : StrFormat("%.2f",
                         abs_err[i] / static_cast<double>(err_count[i]))});
  }
  shard_table.Print();

  const serve::ShardedReport report = service.report();
  PrintTiers(report.serve.tier_counts, report.serve.requests, nullptr,
             nullptr);
  std::printf(
      "availability %.4f (replica %.4f) over %llu routed anchors; "
      "%llu ladder answers\n",
      report.availability(), report.replica_availability(),
      Ull(report.router.requests), Ull(report.router.ladder_answers));
  std::printf(
      "router: %llu attempts, %llu retries, %llu failovers "
      "(p50 %.2fms p99 %.2fms), %llu quarantine skips\n",
      Ull(report.router.attempts), Ull(report.router.retries),
      Ull(report.router.failovers), report.failover_p50_ms,
      report.failover_p99_ms, Ull(report.router.quarantine_skips));
  const auto& exchange = report.exchange;
  std::printf(
      "exchange: %llu snapshots (%llu skipped), %llu records shipped, "
      "%llu epoch-lag serves, %llu stale-epoch full-tier serves\n",
      Ull(exchange.snapshots_published), Ull(exchange.publishes_skipped),
      Ull(exchange.records_shipped), Ull(exchange.epoch_lag_serves),
      Ull(exchange.stale_epoch_serves));
  if (scheduler) {
    std::printf(
        "chaos: %llu kills, %llu restarts, %llu stalls, %llu partitions, "
        "%llu clock skews, %llu corruptions; %llu spared, %llu rejected\n",
        Ull(report.kills), Ull(report.restarts), Ull(report.stalls),
        Ull(report.partitions), Ull(report.clock_skews),
        Ull(report.checkpoint_corruptions), Ull(scheduler->stats().spared),
        Ull(driver->stats().rejected));
  }
  return 0;
}

// Online-serving simulation on one stack: streams a synthetic corridor
// through the delivery-fault model into the supervisor stack and reports
// per-tier volume and accuracy, plus ingestion and checkpoint health.
int ServeStack(Flags& f) {
  serve::HarnessConfig hc;
  ReadServeStack(f, &hc);
  hc.serve.checkpoint_dir = f.Text("checkpoint-dir");
  long kill_at = 0;    // ticks into the stream; 0 = never
  long max_ticks = 0;  // 0 = run the whole stream
  f.Num("kill-at", &kill_at, 0);
  f.Num("ticks", &max_ticks, 0);
  const bool attack_on = f.Bool("attack");
  hc.attack.use_spsa = f.Choice("attack-method") == 1;
  hc.attack.attack = ReadAttackConfig(f, "attack-steps");
  // Front-door mode: tick anchors flow through the concurrent request
  // path (bounded MPSC queue, admission control, coalescing, deadlines)
  // instead of calling the supervisor inline.
  const bool frontend_on = f.Bool("frontend");
  serve::FrontendConfig fc;
  f.Num("frontend-queue", &fc.queue_capacity, 1);
  f.Num("frontend-batch", &fc.max_batch, 1);
  f.Num("frontend-deadline-ms", &fc.default_deadline_ms, 0.0);
  if (!f.ok()) return f.Usage();
  if (attack_on) {
    hc.attack.enabled = true;
    hc.feed.poison = true;
    // A poisoned feed needs trained weights to aim at.
    if (hc.train_epochs <= 0) hc.train_epochs = 2;
  }

  const traffic::DatasetSpec spec = hc.spec;
  serve::SimulationHarness harness(std::move(hc));
  if (frontend_on) harness.EnableFrontend(fc);
  const int target = harness.target_road();
  const int beta = harness.model().assembler().beta();
  std::printf("serving %d roads x %ld intervals, warmup %ld, %s feed\n",
              spec.num_roads, harness.truth().num_intervals(),
              harness.warmup_end(), f.Bool("storm") ? "storm" : "clean");
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
                    ticks_run, Ull(recovered.value().generation),
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
  PrintTiers(report.tier_counts, report.requests, abs_err, err_count);
  const auto& ingest = harness.ingestor().stats();
  const auto& feed = harness.feed().stats();
  std::printf(
      "availability %.4f over %llu requests (%llu failures); "
      "max staleness %ld\n",
      report.availability(), Ull(report.requests), Ull(report.failures),
      report.max_staleness);
  std::printf(
      "feed: %llu generated, %llu delayed, %llu dup, %llu dropped, "
      "%llu torn ticks\n",
      Ull(feed.generated), Ull(feed.delayed), Ull(feed.duplicated),
      Ull(feed.dropped), Ull(feed.torn_ticks));
  std::printf(
      "ingest: %llu applied (%llu late), %llu dup, %llu rejected, "
      "%llu imputed, %llu cache invalidations\n",
      Ull(ingest.applied), Ull(ingest.late), Ull(ingest.duplicates),
      Ull(ingest.rejected), Ull(ingest.imputed),
      Ull(ingest.cache_invalidations));
  std::printf(
      "protection: %llu deadline misses, %llu degraded, %llu watchdog "
      "trips, %llu checkpoints\n",
      Ull(report.deadline_misses), Ull(report.deadline_degraded),
      Ull(report.watchdog_trips), Ull(report.checkpoints_written));
  if (frontend_on && harness.frontend() != nullptr) {
    const serve::FrontendStats fs = harness.frontend()->stats();
    std::printf(
        "frontend: %llu submitted, %llu served, %llu coalesced, "
        "%llu shed (overload %llu, deadline %llu), max queue depth %llu, "
        "%llu inference calls\n",
        Ull(fs.submitted), Ull(fs.served), Ull(fs.coalesce_hits),
        Ull(fs.sheds()), Ull(fs.shed_overload), Ull(fs.shed_deadline),
        Ull(fs.max_queue_depth), Ull(fs.inference_calls));
  }
  if (attack_on) {
    const auto& detector = *harness.detector();
    std::string flagged;
    for (const int road : detector.FlaggedRoads()) {
      flagged += (flagged.empty() ? "" : ",") + StrFormat("%d", road);
    }
    std::printf(
        "attack: %llu readings poisoned (max|delta| %.2f km/h); detector "
        "scored %llu records, %llu anomalous, flagged roads [%s]\n",
        Ull(feed.poisoned), harness.attack_plan().MaxAbsDelta(),
        Ull(detector.stats().observed), Ull(detector.stats().anomalous),
        flagged.c_str());
  }
  return 0;
}

Result<unsigned> ParseChaos(const std::string& text) {
  if (text == "off") return 0u;
  return chaos::ParseChaosKinds(text);
}

// --shards or --replicas above 1, or --chaos other than off, select the
// sharded plane; one supervisor stack is the default.
int Serve(Flags& f) {
  int shards = 1;
  int replicas = 1;
  unsigned chaos_kinds = 0;
  f.Num("shards", &shards, 1);
  f.Num("replicas", &replicas, 1);
  f.Parsed("chaos", &chaos_kinds, ParseChaos);
  const bool sharded = shards > 1 || replicas > 1 || chaos_kinds != 0;
  f.Select(sharded ? 1 : 0);
  return sharded ? ServeSharded(f, shards, replicas, chaos_kinds)
                 : ServeStack(f);
}

Table Concat(std::initializer_list<Table> parts) {
  Table table;
  for (const Table& part : parts) {
    table.insert(table.end(), part.begin(), part.end());
  }
  return table;
}

// Every subcommand's flag table, one per plane.
const std::vector<Plane>& Planes() {
  static const std::vector<Plane> planes = [] {
    const auto dataset = [](const char* days, const char* roads) {
      return Table{{"days", "N", days}, {"roads", "N", roads}, {"seed", "N"}};
    };
    const auto model = [](const char* predictor, const char* divisor) {
      return Table{{"predictor", "F|L|C|H", predictor},
                   {"divisor", "N", divisor}, {"epochs", "N"},
                   {"quantize", "off|fp16|int8", "off"}};
    };
    const auto attack = [](const char* steps) {
      return Table{{"eps-kmh", "KMH"}, {"smooth-kmh", "KMH"}, {steps, "N"},
                   {"spsa-samples", "N"}, {"attack-seed", "N"}};
    };
    const auto serve_stack = [&](const char* roads) {
      return Concat(
          {dataset("7", roads), {{"warmup", "F"}}, model("F", "16"),
           {{"storm", "0|1", "1"}, {"feed-seed", "N", "99"},
            {"deadline-ms", "MS"}, {"watchdog-ms", "MS"},
            {"checkpoint-dir", "PATH"}, {"checkpoint-every", "N"},
            {"anchors-per-tick", "N"}, {"ticks", "N"}, {"shards", "N", "1"},
            {"replicas", "N", "1"}, {"chaos", "off|CHAOS", "off"}}});
    };
    const Row data = {"data", "PATH", nullptr, true};
    const Table adversarial = {{"adversarial", "0|1", "0"}};
    const Table faults = {{"fault-seed", "N"}, {"fault-kinds", "FAULTS"}};
    const Table rates = {{"rates", "RATES", "0,0.05,0.15,0.3"}};
    const Table obs = {{"metrics-json", "PATH"}, {"trace", "PATH"}};
    return std::vector<Plane>{
        {"generate", "",
         Concat({{{"out", "PATH", "dataset.csv"}}, dataset("122", "5"), obs}),
         Generate},
        {"train", "",
         Concat({{data, {"model", "PATH"}}, model("F", "8"), adversarial,
                 {{"guard", "0|1", "1"}, {"fault-rate", "R"}}, faults, obs}),
         Train},
        {"evaluate", "",
         Concat({{data, {"model", "PATH", nullptr, true}}, model("F", "8"),
                 adversarial, {{"fault-rate", "R"}}, faults, obs}),
         Evaluate},
        {"robustness", "without --data",
         Concat({dataset("21", "5"), rates, model("H", "8"), adversarial,
                 faults, obs}),
         Robustness},
        {"robustness", "with --data",
         Concat({{data}, rates, model("F", "8"), adversarial, faults, obs}),
         Robustness},
        {"serve", "on one stack",
         Concat({serve_stack("5"),
                 {{"kill-at", "N"}, {"frontend", "0|1", "0"},
                  {"frontend-queue", "N"}, {"frontend-batch", "N"},
                  {"frontend-deadline-ms", "MS"}, {"attack", "0|1", "0"},
                  {"attack-method", "pgd|spsa", "pgd"}},
                 attack("attack-steps"), obs}),
         Serve},
        {"serve",
         "on the sharded plane (--shards or --replicas above 1, or --chaos "
         "not off)",
         Concat({serve_stack("8"), {{"chaos-seed", "N", "2024"}}, obs}),
         Serve},
        {"attack", "",
         Concat({dataset("14", "5"), model("F", "8"),
                 {{"method", "pgd|spsa", "pgd"}}, attack("steps"),
                 {{"defend", "0|1", "0"}, {"defense-rounds", "N"},
                  {"finetune-epochs", "N"}},
                 obs}),
         Attack},
        {"whatif", "",
         Concat({dataset("10", "5"), {{"anchor", "N"}}, model("F", "16"),
                 {{"contexts", "SPECS",
                   "clear-event;set-event;rain+10;day=holiday"}},
                 obs}),
         Whatif}};
  }();
  return planes;
}

// Writes the metrics registry and/or the trace ring to the paths named by
// --metrics-json / --trace. Failures demote the exit code to 1 so scripts
// notice the missing artifact, but never mask a command's own failure.
int EmitObservability(const Flags& f, int rc) {
  const std::string metrics_path = f.Text("metrics-json");
  if (!metrics_path.empty()) {
    if (obs::MetricsRegistry::Default().WriteJson(metrics_path)) {
      std::printf("wrote metrics to %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write metrics to %s\n",
                   metrics_path.c_str());
      if (rc == 0) rc = 1;
    }
  }
  const std::string trace_path = f.Text("trace");
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
  std::vector<const Plane*> all, planes;
  for (const Plane& plane : Planes()) {
    all.push_back(&plane);
    if (argc >= 2 && std::string_view(argv[1]) == plane.command) {
      planes.push_back(&plane);
    }
  }
  if (planes.empty()) {
    if (argc >= 2) std::fprintf(stderr, "apots_cli: unknown command %s\n",
                                argv[1]);
    PrintUsage(all);
    return 2;
  }
  Flags flags(planes);
  flags.Parse(argc, argv);
  if (!flags.ok()) return flags.Usage();
  if (flags.Has("trace")) obs::TraceRecorder::Default().Enable({});
  const int rc = planes[0]->run(flags);
  return rc == 2 ? rc : EmitObservability(flags, rc);
}
