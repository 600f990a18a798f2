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
// The report's `backward` section is a one-thread probe of each predictor
// family at Scaled(*, 8) over a 13-row, alpha-12 input: the recorded
// forward (Predictor::Forward(x, true)), the Backward after it, and their
// ratio, at 1, 64 and 192 rows (a one-key step, the MSE step and the
// adversarial round), as the median and 10th percentile of kProbeReps reps
// after warm-up, and the training arena's high-water mark after the rows
// so far. It is report-only: no check reads it and no baseline holds its
// keys.
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
#include "core/predictor.h"
#include "data/windowing.h"
#include "tensor/tensor_ops.h"
#include "traffic/dataset_generator.h"
#include "util/rng.h"
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

constexpr size_t kProbeReps = 31;
constexpr size_t kProbeWarmup = 3;

/// The 10th percentile of `values` (nearest rank, rounded down).
double Percentile10(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 10];
}

/// Adds the backward probe's rows to `report`, on one thread.
void ProbeBackward(bench::Report* report) {
  ResetGlobalPool(1);
  constexpr size_t kFeatureRows = 13;
  constexpr size_t kAlpha = 12;
  for (core::PredictorType type :
       {core::PredictorType::kFc, core::PredictorType::kLstm,
        core::PredictorType::kCnn, core::PredictorType::kHybrid}) {
    Rng rng(5);
    auto predictor = core::MakePredictor(
        core::PredictorHparams::Scaled(type, 8), kFeatureRows, kAlpha, &rng);
    for (size_t rows : {1u, 64u, 192u}) {
      tensor::Tensor x({rows, kFeatureRows, kAlpha});
      tensor::FillUniform(&x, &rng, -1.0f, 1.0f);
      tensor::Tensor grad({rows, 1});
      tensor::FillUniform(&grad, &rng, -1.0f, 1.0f);
      std::vector<double> forward_ms, backward_ms, ratio;
      for (size_t rep = 0; rep < kProbeWarmup + kProbeReps; ++rep) {
        Stopwatch forward;
        (void)predictor->Forward(x, /*training=*/true);
        const double f = forward.ElapsedMillis();
        Stopwatch backward;
        (void)predictor->Backward(grad);
        const double b = backward.ElapsedMillis();
        if (rep < kProbeWarmup) continue;
        forward_ms.push_back(f);
        backward_ms.push_back(b);
        ratio.push_back(b / f);
      }
      const char* family = core::PredictorTypeName(type);
      std::fprintf(stderr,
                   "backward %s rows %3zu: forward %7.3f ms  backward %7.3f "
                   "ms  ratio %5.2f (medians)  arena %zu floats\n",
                   family, rows, bench::Median(forward_ms),
                   bench::Median(backward_ms), bench::Median(ratio),
                   predictor->training_workspace().high_water_floats());
      report->AddRow("backward")
          .Set("family", family)
          .Set("rows", rows)
          .Set("forward_ms_p50", bench::Median(forward_ms))
          .Set("forward_ms_p10", Percentile10(forward_ms))
          .Set("backward_ms_p50", bench::Median(backward_ms))
          .Set("backward_ms_p10", Percentile10(backward_ms))
          .Set("ratio_p50", bench::Median(ratio))
          .Set("ratio_p10", Percentile10(ratio))
          .Set("arena_floats",
               predictor->training_workspace().high_water_floats());
    }
  }
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
  ProbeBackward(&report);
  return report.Write(path);
}

}  // namespace

int main(int argc, char** argv) {
  return apots::bench::PerfMain(argc, argv, "bench_out/perf_train.json", Run);
}
