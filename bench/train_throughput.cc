// End-to-end training-throughput benchmark: samples/second of one MSE
// minibatch step per predictor family at the quick-profile scale, plus the
// cost of one full adversarial round. Useful for sizing the experiment
// profiles.
//
// `--perf_json[=path]` skips google-benchmark and instead times one guarded
// adversarial LSTM training run under three execution arms, writing a
// machine-readable report (default bench_out/perf_train.json) that CI
// archives and gates on:
//   full_batch_1t   1 thread, full-batch step
//   full_batch_4t   multiple threads, full-batch step (row-parallel kernels
//                   only — no data-parallel sharding, no replica syncing)
//   micro_batch_4t  multiple threads, data-parallel micro-batches
// Every arm runs the one matmul dispatch (tensor_ops.h). The thread count
// is APOTS_NUM_THREADS when set (>1), else min(4, hardware_concurrency) —
// oversubscribing a small machine makes the multi-threaded arms slower than
// serial and tells us nothing.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/adversarial_trainer.h"
#include "core/apots_model.h"
#include "data/windowing.h"
#include "traffic/dataset_generator.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

using namespace apots;

struct Env {
  traffic::TrafficDataset dataset;
  std::vector<long> anchors;

  Env() : dataset(traffic::GenerateDataset(traffic::DatasetSpec::Small(3))) {
    auto split = data::MakeSplit(dataset, 12, 3, 0.2,
                                 data::SplitStrategy::kBlockedByDay, 11);
    anchors.assign(split.train.begin(),
                   split.train.begin() +
                       std::min<size_t>(512, split.train.size()));
  }
};

Env& GetEnv() {
  static Env* env = new Env();
  return *env;
}

core::ApotsConfig ConfigFor(core::PredictorType type, bool adversarial) {
  core::ApotsConfig config;
  config.predictor = core::PredictorHparams::Scaled(type, 8);
  config.discriminator = core::DiscriminatorHparams::Scaled(2);
  config.features = data::FeatureConfig::Both();
  config.features.num_adjacent = 1;  // the Small dataset has 3 roads
  config.features.beta = 3;
  config.training.adversarial = adversarial;
  config.training.epochs = 1;
  config.training.batch_size = 64;
  config.training.adv_period = 4;
  config.training.adv_warmup_rounds = 0;
  config.seed = 99;
  return config;
}

void BM_TrainEpoch(benchmark::State& state, core::PredictorType type,
                   bool adversarial) {
  Env& env = GetEnv();
  core::ApotsModel model(&env.dataset, ConfigFor(type, adversarial));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Train(env.anchors));
  }
  state.SetItemsProcessed(state.iterations() * env.anchors.size());
}

void BM_TrainFc(benchmark::State& state) {
  BM_TrainEpoch(state, core::PredictorType::kFc, false);
}
void BM_TrainFcAdv(benchmark::State& state) {
  BM_TrainEpoch(state, core::PredictorType::kFc, true);
}
void BM_TrainCnn(benchmark::State& state) {
  BM_TrainEpoch(state, core::PredictorType::kCnn, false);
}
void BM_TrainLstm(benchmark::State& state) {
  BM_TrainEpoch(state, core::PredictorType::kLstm, false);
}
void BM_TrainHybrid(benchmark::State& state) {
  BM_TrainEpoch(state, core::PredictorType::kHybrid, false);
}
void BM_TrainHybridAdv(benchmark::State& state) {
  BM_TrainEpoch(state, core::PredictorType::kHybrid, true);
}

BENCHMARK(BM_TrainFc)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TrainFcAdv)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TrainCnn)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TrainLstm)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TrainHybrid)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TrainHybridAdv)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --perf_json harness
// ---------------------------------------------------------------------------

namespace perf {

constexpr size_t kEpochs = 2;
constexpr size_t kMicroBatch = 32;
constexpr size_t kRepeats = 2;  // best-of, to shave scheduler noise

// The perf config is deliberately GEMM-dominated (LSTM at half paper width,
// adversarial on) so the report reflects the kernels the training loop
// actually spends its time in: per-timestep gate matmuls forward and the
// transpose-B matmuls in backpropagation-through-time.
core::ApotsConfig PerfConfig(size_t micro_batch) {
  core::ApotsConfig config;
  config.predictor =
      core::PredictorHparams::Scaled(core::PredictorType::kLstm, 2);
  config.discriminator = core::DiscriminatorHparams::Scaled(2);
  config.features = data::FeatureConfig::Both();
  config.features.num_adjacent = 1;
  config.features.beta = 3;
  config.training.adversarial = true;
  config.training.epochs = kEpochs;
  config.training.batch_size = 64;
  config.training.micro_batch = micro_batch;
  config.training.adv_period = 4;
  config.training.adv_warmup_rounds = 0;
  config.training.guard.enabled = true;
  config.seed = 99;
  return config;
}

struct ArmSpec {
  const char* name;
  size_t threads;
  size_t micro_batch;  // 0 = full-batch step
};

struct ArmResult {
  ArmSpec spec;
  double seconds = 0.0;
  double samples_per_sec = 0.0;
};

ArmResult RunArm(const ArmSpec& spec) {
  Env& env = GetEnv();
  ArmResult result;
  result.spec = spec;
  result.seconds = 1e100;
  for (size_t rep = 0; rep < kRepeats; ++rep) {
    ResetGlobalPool(spec.threads);
    core::ApotsModel model(&env.dataset, PerfConfig(spec.micro_batch));
    Stopwatch watch;
    auto report = model.TrainGuarded(env.anchors);
    const double seconds = watch.ElapsedSeconds();
    if (!report.ok()) {
      std::fprintf(stderr, "perf arm %s failed: %s\n", spec.name,
                   report.status().ToString().c_str());
      std::exit(1);
    }
    result.seconds = std::min(result.seconds, seconds);
  }
  result.samples_per_sec =
      static_cast<double>(env.anchors.size() * kEpochs) / result.seconds;
  return result;
}

size_t ParallelThreads() {
  if (const char* env = std::getenv("APOTS_NUM_THREADS")) {
    const long parsed = std::atol(env);
    if (parsed > 1) return static_cast<size_t>(parsed);
  }
  const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  return std::min<size_t>(4, hw);
}

int RunPerfJson(const std::string& path) {
  Env& env = GetEnv();
  const size_t threads = ParallelThreads();
  const ArmSpec arms[] = {
      {"full_batch_1t", 1, 0},
      {"full_batch_4t", threads, 0},
      {"micro_batch_4t", threads, kMicroBatch},
  };
  std::vector<ArmResult> results;
  for (const ArmSpec& spec : arms) {
    results.push_back(RunArm(spec));
    std::fprintf(stderr, "%-15s %7.3fs  %8.1f samples/s\n",
                 results.back().spec.name, results.back().seconds,
                 results.back().samples_per_sec);
  }
  ResetGlobalPool(1);
  // Name-based lookup — never positional, so adding arms cannot silently
  // skew the derived speedups.
  const auto arm_seconds = [&results](const char* name) {
    for (const ArmResult& r : results) {
      if (std::strcmp(r.spec.name, name) == 0) return r.seconds;
    }
    std::fprintf(stderr, "missing arm %s\n", name);
    std::exit(1);
  };

  std::ofstream out;
  if (!bench::OpenReport(path, &out)) return 1;
  out << "{\n"
      << "  \"bench\": \"train_throughput\",\n"
      << "  \"config\": {\n"
      << "    \"predictor\": \"lstm_scaled_2\",\n"
      << "    \"adversarial\": true,\n"
      << "    \"train_guard\": true,\n"
      << "    \"anchors\": " << env.anchors.size() << ",\n"
      << "    \"epochs\": " << kEpochs << ",\n"
      << "    \"batch_size\": 64,\n"
      << "    \"micro_batch\": " << kMicroBatch << ",\n"
      << "    \"parallel_threads\": " << threads << "\n"
      << "  },\n"
      << "  \"arms\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ArmResult& r = results[i];
    out << "    {\"name\": \"" << r.spec.name
        << "\", \"threads\": " << r.spec.threads
        << ", \"micro_batch\": " << r.spec.micro_batch << ", \"seconds\": "
        << r.seconds << ", \"samples_per_sec\": " << r.samples_per_sec << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  const double full_batch_4t = arm_seconds("full_batch_4t");
  out << "  ],\n"
      << "  \"speedup_full_batch_4t_vs_1t\": "
      << arm_seconds("full_batch_1t") / full_batch_4t << ",\n"
      << "  \"speedup_micro_batch_vs_full_batch_4t\": "
      << full_batch_4t / arm_seconds("micro_batch_4t") << "\n"
      << "}\n";
  out.close();
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

}  // namespace perf

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--perf_json", 11) == 0) {
      std::string path = "bench_out/perf_train.json";
      if (argv[i][11] == '=') path = argv[i] + 12;
      return perf::RunPerfJson(path);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
