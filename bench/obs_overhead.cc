// Observability overhead benchmark. The obs:: layer promises that
// instrumenting the hot paths costs nothing measurable: counters are one
// relaxed atomic add, histograms one clock read plus one atomic add, and a
// disabled TraceSpan is a single relaxed load. This bench proves it on the
// most instrumented path we have — the batched inference runtime — by
// timing identical PredictKmh workloads under three arms:
//   baseline      SetMetricsEnabled(false), trace disabled — instruments
//                 compile in but take the cheap early-out branch
//   metrics_on    metrics enabled (the production default), trace disabled
//   metrics_trace metrics AND the trace ring enabled
// and writes bench_out/perf_obs.json with the relative overheads. Each
// instrumented arm is timed against baseline in interleaved pairs
// (bench::TimePairs), and its overhead is the median per-pair ratio minus
// one, so a host whose speed drifts over seconds cannot manufacture a pass
// or a fail. The gate: metrics_on within 2% of baseline.
//
// Flags: --perf_json[=path] selects the output file; --quick shrinks the
// workload for CI smoke runs.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/apots_model.h"
#include "data/windowing.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "traffic/dataset_generator.h"
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

int Run(const std::string& path, bool quick) {
  traffic::TrafficDataset dataset =
      traffic::GenerateDataset(traffic::DatasetSpec::Small(3));
  auto split = data::MakeSplit(dataset, 12, 3, 0.2,
                               data::SplitStrategy::kBlockedByDay, 11);
  // One timed call is one PredictKmh over these anchors, a single batch:
  // short calls keep the two calls of a pair close in time.
  const size_t cap = quick ? 32 : 64;
  std::vector<long> anchors(split.test.begin(),
                            split.test.begin() +
                                std::min<size_t>(cap, split.test.size()));
  core::ApotsModel model(&dataset, ModelConfig());
  ResetGlobalPool(1);  // single-threaded: no scheduler noise in the gate

  // Each arm's call switches its instruments on or off first. One runtime
  // serves every arm, so cache warmth is identical; an untimed call first
  // fills the cache and arenas.
  const size_t pairs = quick ? 201 : 401;
  const auto arm = [&model, &anchors](bool metrics, bool trace) {
    return [&model, &anchors, metrics, trace] {
      obs::SetMetricsEnabled(metrics);
      if (trace) {
        obs::TraceRecorder::Default().Enable({});
      } else {
        obs::TraceRecorder::Default().Disable();
      }
      if (model.PredictKmh(anchors).empty()) std::abort();
    };
  };
  arm(false, false)();
  const bench::PairedTimes metrics =
      bench::TimePairs(pairs, arm(false, false), arm(true, false));
  const bench::PairedTimes trace =
      bench::TimePairs(pairs, arm(false, false), arm(true, true));
  obs::SetMetricsEnabled(true);
  obs::TraceRecorder::Default().Disable();

  bench::Report report("obs_overhead");
  report.Set("config.quick", quick)
      .Set("config.anchors", anchors.size())
      .Set("config.rounds", 1)
      .Set("config.repeats", pairs);
  const auto add_arm = [&](const char* name, double seconds) {
    const double rate = static_cast<double>(anchors.size()) / seconds;
    report.AddRow("arms")
        .Set("name", name)
        .Set("seconds", seconds)
        .Set("anchors_per_sec", rate);
    std::fprintf(stderr, "%-14s %8.4fs  %10.1f anchors/s\n", name, seconds,
                 rate);
  };
  add_arm("baseline", metrics.a_seconds);
  add_arm("metrics_on", metrics.b_seconds);
  add_arm("metrics_trace", trace.b_seconds);
  report.Set("metrics_overhead", metrics.ratio - 1.0)
      .Set("metrics_trace_overhead", trace.ratio - 1.0);
  std::fprintf(stderr, "metrics overhead %+.2f%%, +trace %+.2f%% (median of "
               "%zu pairs)\n", (metrics.ratio - 1.0) * 100.0,
               (trace.ratio - 1.0) * 100.0, pairs);
  report.Check("metrics_overhead < 0.02",
               report.Number("metrics_overhead") < 0.02);
  return report.Write(path);
}

}  // namespace

int main(int argc, char** argv) {
  return apots::bench::PerfMain(argc, argv, "bench_out/perf_obs.json", Run);
}
