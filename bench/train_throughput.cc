// Training-throughput benchmark: times one guarded adversarial LSTM
// training run under three execution arms and writes a machine-readable
// report (default bench_out/perf_train.json):
//   full_batch_1t   1 thread, full-batch step
//   full_batch_4t   multiple threads, full-batch step (row-parallel kernels
//                   only — no data-parallel sharding, no replica syncing)
//   micro_batch_4t  multiple threads, data-parallel micro-batches
// Every arm runs the one matmul dispatch (tensor_ops.h). The thread count
// is APOTS_NUM_THREADS when set (>1), else min(4, hardware_concurrency) —
// oversubscribing a small machine makes the multi-threaded arms slower than
// serial and tells us nothing. The report has no checks: the committed
// baseline comparison gates its throughput.
//
// Flags: --perf_json[=path] selects the output file; --quick is accepted
// and changes nothing.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/apots_model.h"
#include "data/windowing.h"
#include "traffic/dataset_generator.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

using namespace apots;

/// The Small dataset and its first 512 training anchors.
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

/// Best-of-kRepeats wall seconds of one guarded training run.
double TrainSeconds(const Env& env, const ArmSpec& spec) {
  double best = 1e100;
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
    best = std::min(best, seconds);
  }
  return best;
}

size_t ParallelThreads() {
  if (const char* env = std::getenv("APOTS_NUM_THREADS")) {
    const long parsed = std::atol(env);
    if (parsed > 1) return static_cast<size_t>(parsed);
  }
  const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  return std::min<size_t>(4, hw);
}

int Run(const std::string& path, bool /*quick*/) {
  const Env env;
  const size_t threads = ParallelThreads();
  const ArmSpec arms[] = {
      {"full_batch_1t", 1, 0},
      {"full_batch_4t", threads, 0},
      {"micro_batch_4t", threads, kMicroBatch},
  };
  bench::Report report("train_throughput");
  report.Set("config.predictor", "lstm_scaled_2")
      .Set("config.adversarial", true)
      .Set("config.train_guard", true)
      .Set("config.anchors", env.anchors.size())
      .Set("config.epochs", kEpochs)
      .Set("config.batch_size", 64)
      .Set("config.micro_batch", kMicroBatch)
      .Set("config.parallel_threads", threads);
  double seconds[3] = {};
  for (size_t i = 0; i < 3; ++i) {
    seconds[i] = TrainSeconds(env, arms[i]);
    const double samples_per_sec =
        static_cast<double>(env.anchors.size() * kEpochs) / seconds[i];
    std::fprintf(stderr, "%-15s %7.3fs  %8.1f samples/s\n", arms[i].name,
                 seconds[i], samples_per_sec);
    report.AddRow("arms")
        .Set("name", arms[i].name)
        .Set("threads", arms[i].threads)
        .Set("micro_batch", arms[i].micro_batch)
        .Set("seconds", seconds[i])
        .Set("samples_per_sec", samples_per_sec);
  }
  ResetGlobalPool(1);
  report.Set("speedup_full_batch_4t_vs_1t", seconds[0] / seconds[1])
      .Set("speedup_micro_batch_vs_full_batch_4t", seconds[1] / seconds[2]);
  return report.Write(path);
}

}  // namespace

int main(int argc, char** argv) {
  return apots::bench::PerfMain(argc, argv, "bench_out/perf_train.json", Run);
}
