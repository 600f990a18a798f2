// Observability overhead benchmark. The obs:: layer promises that
// instrumenting the hot paths costs nothing measurable: counters are one
// relaxed atomic add, histograms one clock read plus one atomic add, and a
// disabled TraceSpan is a single relaxed load. This bench proves it on the
// most instrumented path we have — the PR 3 batched inference runtime —
// by timing identical PredictKmh workloads under three arms:
//   baseline      SetMetricsEnabled(false), trace disabled — instruments
//                 compile in but take the cheap early-out branch
//   metrics_on    metrics enabled (the production default), trace disabled
//   metrics_trace metrics AND the trace ring enabled
// and writes bench_out/perf_obs.json with the relative overheads. The
// gate: metrics_on must be within 2% of baseline (min-of-repeats timing,
// so scheduler noise cannot manufacture a pass or a fail on its own).
//
// Flags: --perf_json[=path] selects the output file; --quick shrinks the
// workload for CI smoke runs.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/apots_model.h"
#include "data/windowing.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "traffic/dataset_generator.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

using namespace apots;

core::ApotsConfig ModelConfig() {
  // Same model as infer_latency: LSTM at half paper width, the arm whose
  // per-batch instrument density is highest.
  core::ApotsConfig config;
  config.predictor =
      core::PredictorHparams::Scaled(core::PredictorType::kLstm, 2);
  config.features = data::FeatureConfig::Both();
  config.features.num_adjacent = 1;
  config.features.beta = 3;
  config.seed = 99;
  return config;
}

struct ArmResult {
  const char* name;
  double seconds = 0.0;  // min over repeats
  double anchors_per_sec = 0.0;
};

// One timed pass: `rounds` PredictKmh calls over the anchor set. Returns
// wall seconds for the whole pass.
double TimedPass(core::ApotsModel* model, const std::vector<long>& anchors,
                 size_t rounds) {
  Stopwatch watch;
  for (size_t round = 0; round < rounds; ++round) {
    const std::vector<double> pred = model->PredictKmh(anchors);
    if (pred.empty()) std::abort();  // keep the call observable
  }
  return watch.ElapsedSeconds();
}

ArmResult RunArm(const char* name, core::ApotsModel* model,
                 const std::vector<long>& anchors, size_t rounds,
                 size_t repeats, bool metrics, bool trace) {
  obs::SetMetricsEnabled(metrics);
  if (trace) {
    obs::TraceRecorder::Default().Enable({});
  } else {
    obs::TraceRecorder::Default().Disable();
  }
  // Fresh runtime per arm so cache warmth is identical across arms; one
  // untimed warm-up pass fills the feature cache and the arenas.
  model->SetInferenceConfig(core::InferenceConfig());
  TimedPass(model, anchors, 1);

  ArmResult result;
  result.name = name;
  result.seconds = TimedPass(model, anchors, rounds);
  for (size_t rep = 1; rep < repeats; ++rep) {
    result.seconds = std::min(result.seconds,
                              TimedPass(model, anchors, rounds));
  }
  result.anchors_per_sec =
      static_cast<double>(anchors.size() * rounds) / result.seconds;
  obs::SetMetricsEnabled(true);
  obs::TraceRecorder::Default().Disable();
  return result;
}

int Run(const std::string& path, bool quick) {
  traffic::TrafficDataset dataset =
      traffic::GenerateDataset(traffic::DatasetSpec::Small(3));
  auto split = data::MakeSplit(dataset, 12, 3, 0.2,
                               data::SplitStrategy::kBlockedByDay, 11);
  const size_t cap = quick ? 96 : 384;
  std::vector<long> anchors(split.test.begin(),
                            split.test.begin() +
                                std::min<size_t>(cap, split.test.size()));
  core::ApotsModel model(&dataset, ModelConfig());
  ResetGlobalPool(1);  // single-threaded: no scheduler noise in the gate

  const size_t rounds = quick ? 3 : 10;
  const size_t repeats = quick ? 3 : 5;
  const ArmResult arms[] = {
      RunArm("baseline", &model, anchors, rounds, repeats,
             /*metrics=*/false, /*trace=*/false),
      RunArm("metrics_on", &model, anchors, rounds, repeats,
             /*metrics=*/true, /*trace=*/false),
      RunArm("metrics_trace", &model, anchors, rounds, repeats,
             /*metrics=*/true, /*trace=*/true),
  };
  const double base = arms[0].seconds;
  const double metrics_overhead = arms[1].seconds / base - 1.0;
  const double trace_overhead = arms[2].seconds / base - 1.0;
  for (const ArmResult& arm : arms) {
    std::fprintf(stderr, "%-14s %8.4fs  %10.1f anchors/s  (%+.2f%%)\n",
                 arm.name, arm.seconds, arm.anchors_per_sec,
                 (arm.seconds / base - 1.0) * 100.0);
  }

  std::ofstream out;
  if (!bench::OpenReport(path, &out)) return 1;
  out << "{\n"
      << "  \"bench\": \"obs_overhead\",\n"
      << "  \"config\": {\"quick\": " << (quick ? "true" : "false")
      << ", \"anchors\": " << anchors.size() << ", \"rounds\": " << rounds
      << ", \"repeats\": " << repeats << "},\n"
      << "  \"arms\": [\n";
  for (size_t i = 0; i < 3; ++i) {
    out << "    {\"name\": \"" << arms[i].name
        << "\", \"seconds\": " << arms[i].seconds
        << ", \"anchors_per_sec\": " << arms[i].anchors_per_sec << "}"
        << (i + 1 < 3 ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"metrics_overhead\": " << metrics_overhead << ",\n"
      << "  \"metrics_trace_overhead\": " << trace_overhead << "\n"
      << "}\n";
  out.close();

  // The acceptance gate: metrics-on within 2% of instruments-disabled.
  const bool ok = metrics_overhead < 0.02;
  std::fprintf(stderr,
               "wrote %s (metrics overhead %+.2f%%, +trace %+.2f%%, "
               "gate <2%%: %s)\n",
               path.c_str(), metrics_overhead * 100.0,
               trace_overhead * 100.0, ok ? "pass" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return apots::bench::PerfMain(argc, argv, "bench_out/perf_obs.json", Run);
}
