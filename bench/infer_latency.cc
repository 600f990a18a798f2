// Inference latency/throughput benchmark for the batched zero-allocation
// runtime. Times repeated PredictKmh rounds over a fixed anchor set under
// the arms below and writes a machine-readable report (default
// bench_out/perf_infer.json) that CI archives and gates on:
//   per_anchor        one recorded fp32 training forward per anchor,
//                     outside the runtime, no feature cache — the seed's
//                     one-anchor-at-a-time deployment path and the bitwise
//                     ground truth
//   batched           batch 64, workspace arenas + feature cache, 1 thread
//   batched_parallel  batch 64, workspace arenas + feature cache, batches
//                     sharded across min(4, hardware_concurrency) threads
//                     (APOTS_NUM_THREADS overrides when > 1)
//   int8 / fp16       batched config with quantized inference weights on
//                     the SIMD kernels
// Every fp32 arm must produce bitwise identical predictions, although in
// FMA builds per_anchor runs 1-row products on the register tiles and the
// batched arms run 64-row products on the packed panels — the report
// records the comparison (cold and warm cache) next to the timings.
// The int8/fp16 arms trade bitwise equality for an accuracy band:
// each reports mae_delta_kmh, its true-MAE (vs ground-truth speeds) minus
// the fp32 arm's, and the bench fails if any |delta| exceeds 0.5 km/h —
// quantization noise is near-zero-mean, so a healthy kernel moves accuracy
// by far less while a broken one blows the bound immediately. It also
// fails when batched serves fewer anchors/s than per_anchor, or when
// fewer than 3 exact or 2 quantized arms ran.
//
// Flags: --perf_json[=path] selects the output file; --quick shrinks the
// anchor set and round counts for CI smoke runs.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/apots_model.h"
#include "data/windowing.h"
#include "obs/metrics.h"
#include "tensor/cpu_features.h"
#include "tensor/quant.h"
#include "traffic/dataset_generator.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

using namespace apots;

size_t ParallelThreads() {
  if (const char* env = std::getenv("APOTS_NUM_THREADS")) {
    const long parsed = std::atol(env);
    if (parsed > 1) return static_cast<size_t>(parsed);
  }
  const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  return std::min<size_t>(4, hw);
}

core::ApotsConfig ModelConfig() {
  core::ApotsConfig config;
  // LSTM at half paper width: the most GEMM- and dispatch-heavy predictor,
  // so batching effects dominate the measurement. Weights keep their
  // deterministic random initialization — latency does not depend on the
  // weight values, and bitwise identity must hold for any weights.
  config.predictor =
      core::PredictorHparams::Scaled(core::PredictorType::kLstm, 2);
  config.features = data::FeatureConfig::Both();
  config.features.num_adjacent = 1;  // the Small dataset has 3 roads
  config.features.beta = 3;
  config.seed = 99;
  return config;
}

struct ArmSpec {
  const char* name;
  core::InferenceConfig cfg;
  size_t threads;
  size_t rounds;
  /// Bitwise-identity arms (fp32). Quantized arms are gated on
  /// mae_delta_kmh instead.
  bool exact;
  /// Runs PerAnchorKmh instead of the runtime.
  bool per_anchor = false;
};

struct ArmResult {
  ArmSpec spec;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double anchors_per_sec = 0.0;
  bool bitwise_cold = false;
  bool bitwise_warm = false;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  double mae_kmh = 0.0;
  double mae_delta_kmh = 0.0;
  std::vector<double> predictions;  // last round, for the accuracy band
};

double MeanAbsError(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += std::fabs(a[i] - b[i]);
  return a.empty() ? 0.0 : sum / static_cast<double>(a.size());
}

/// The seed path: one recorded fp32 training forward per anchor,
/// assembled without a feature cache.
std::vector<double> PerAnchorKmh(core::ApotsModel* model,
                                 const std::vector<long>& anchors) {
  std::vector<double> out;
  out.reserve(anchors.size());
  for (const long anchor : anchors) {
    const tensor::Tensor pred = model->predictor().Forward(
        model->assembler().BatchMatrix({anchor}), /*training=*/false);
    out.push_back(model->assembler().UnscaleSpeed(pred[0]));
  }
  return out;
}

ArmResult RunArm(core::ApotsModel* model, const std::vector<long>& anchors,
                 const ArmSpec& spec,
                 const std::vector<double>& baseline) {
  ArmResult result;
  result.spec = spec;
  ResetGlobalPool(spec.threads);
  model->SetInferenceConfig(spec.cfg);  // fresh runtime: cold cache + arenas

  // Per-arm latency histogram from the shared registry: percentiles come
  // from one definition (obs::Histogram) instead of a local sort-and-index,
  // and land in any --metrics-json dump alongside the runtime's own
  // instruments.
  obs::Histogram& latency_ms = obs::MetricsRegistry::Default().GetHistogram(
      std::string("bench.infer_latency.") + spec.name + ".call_ms");
  latency_ms.Reset();
  double total_seconds = 0.0;
  for (size_t round = 0; round < spec.rounds; ++round) {
    Stopwatch watch;
    std::vector<double> pred = spec.per_anchor ? PerAnchorKmh(model, anchors)
                                               : model->PredictKmh(anchors);
    const double seconds = watch.ElapsedSeconds();
    latency_ms.Record(seconds * 1e3);
    total_seconds += seconds;
    const bool match = !baseline.empty() && pred == baseline;
    if (round == 0) result.bitwise_cold = match;
    result.bitwise_warm = match;
    if (round + 1 == spec.rounds) result.predictions = std::move(pred);
  }
  result.p50_ms = latency_ms.Percentile(0.50);
  result.p99_ms = latency_ms.Percentile(0.99);
  result.anchors_per_sec =
      static_cast<double>(anchors.size() * spec.rounds) / total_seconds;
  const auto stats = model->inference_runtime().feature_cache()->stats();
  result.cache_hits = stats.hits;
  result.cache_misses = stats.misses;
  ResetGlobalPool(1);
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
  const size_t threads = ParallelThreads();

  core::InferenceConfig per_anchor;
  per_anchor.batch_size = 1;

  const core::InferenceConfig batched;  // B=64; shards when threads > 1

  core::InferenceConfig int8_cfg = batched;
  int8_cfg.quantize = tensor::QuantMode::kInt8;
  core::InferenceConfig fp16_cfg = batched;
  fp16_cfg.quantize = tensor::QuantMode::kFp16;

  const size_t slow_rounds = quick ? 2 : 8;
  const size_t fast_rounds = quick ? 4 : 24;
  const ArmSpec arms[] = {
      {"per_anchor", per_anchor, 1, slow_rounds, true, /*per_anchor=*/true},
      {"batched", batched, 1, fast_rounds, true},
      {"batched_parallel", batched, threads, fast_rounds, true},
      {"int8", int8_cfg, 1, fast_rounds, false},
      {"fp16", fp16_cfg, 1, fast_rounds, false},
  };

  // Ground truth for the bitwise comparison: the seed path.
  const std::vector<double> baseline = PerAnchorKmh(&model, anchors);
  // Ground truth for the accuracy band: the actual future speeds. The
  // accuracy cost of a reduced-precision arm is how much it moves the
  // model's error against reality, not how far its raw outputs drift.
  const std::vector<double> truth = model.TrueKmh(anchors);
  const double fp32_mae = MeanAbsError(baseline, truth);

  std::vector<ArmResult> results;
  for (const ArmSpec& spec : arms) {
    results.push_back(RunArm(&model, anchors, spec, baseline));
    ArmResult& r = results.back();
    r.mae_kmh = MeanAbsError(r.predictions, truth);
    r.mae_delta_kmh = r.mae_kmh - fp32_mae;
    std::fprintf(stderr,
                 "%-17s p50 %8.2fms  p99 %8.2fms  %9.1f anchors/s  "
                 "bitwise cold=%d warm=%d  mae_delta %+.4f km/h\n",
                 r.spec.name, r.p50_ms, r.p99_ms, r.anchors_per_sec,
                 r.bitwise_cold ? 1 : 0, r.bitwise_warm ? 1 : 0,
                 r.mae_delta_kmh);
  }

  bench::Report report("infer_latency");
  report.Set("config.predictor", "lstm_scaled_2")
      .Set("config.anchors", anchors.size())
      .Set("config.quick", quick)
      .Set("config.parallel_threads", threads)
      .Set("config.isa", tensor::ActiveIsaLabel())
      .Set("config.vnni", tensor::HasVnni());
  bool bitwise_all = true;  // over the exact (fp32) arms only
  bool accuracy_ok = true;  // |mae_delta| <= 0.5 km/h on the inexact arms
  std::vector<std::string> rows;
  for (const ArmResult& r : results) {
    if (r.spec.exact) {
      bitwise_all = bitwise_all && r.bitwise_cold && r.bitwise_warm;
    } else {
      accuracy_ok = accuracy_ok && std::fabs(r.mae_delta_kmh) <= 0.5;
    }
    rows.push_back(report.AddRow("arms")
                       .Set("name", r.spec.name)
                       .Set("batch_size", r.spec.cfg.batch_size)
                       .Set("threads", r.spec.threads)
                       .Set("workspace", !r.spec.per_anchor)
                       .Set("feature_cache", !r.spec.per_anchor)
                       .Set("quantize",
                            tensor::QuantModeName(r.spec.cfg.quantize))
                       .Set("exact", r.spec.exact)
                       .Set("rounds", r.spec.rounds)
                       .Set("p50_ms", r.p50_ms)
                       .Set("p99_ms", r.p99_ms)
                       .Set("anchors_per_sec", r.anchors_per_sec)
                       .Set("cache_hits", r.cache_hits)
                       .Set("cache_misses", r.cache_misses)
                       .Set("mae_kmh", r.mae_kmh)
                       .Set("mae_delta_kmh", r.mae_delta_kmh)
                       .Set("bitwise_match_cold", r.bitwise_cold)
                       .Set("bitwise_match_warm", r.bitwise_warm)
                       .key());
  }
  // Rows in `arms` order: per_anchor, batched, batched_parallel, int8, fp16.
  const auto rate = [&](size_t row) {
    return results[row].anchors_per_sec;
  };
  report.Set("speedup_batched_vs_per_anchor", rate(1) / rate(0))
      .Set("speedup_batched_parallel_vs_per_anchor", rate(2) / rate(0))
      .Set("speedup_int8_vs_batched", rate(3) / rate(1))
      .Set("bitwise_match_all", bitwise_all)
      .Set("accuracy_band_ok", accuracy_ok);

  report.ExpectTrue("bitwise_match_all");
  report.ExpectTrue("accuracy_band_ok");
  // The batched path must never fall below the per-anchor baseline; the
  // committed baseline tracks the real speedup.
  report.Check("batched anchors_per_sec >= per_anchor anchors_per_sec",
               report.Number(rows[1] + ".anchors_per_sec") >=
                   report.Number(rows[0] + ".anchors_per_sec"));
  size_t exact_arms = 0;
  size_t quantized_arms = 0;
  for (const std::string& row : rows) {
    exact_arms += report.Flag(row + ".exact") ? 1 : 0;
    quantized_arms += report.Text(row + ".quantize") != "\"off\"" ? 1 : 0;
  }
  report.Check("at least 3 exact arms", exact_arms >= 3);
  report.Check("at least 2 quantized arms", quantized_arms >= 2);
  return report.Write(path);
}

}  // namespace

int main(int argc, char** argv) {
  return apots::bench::PerfMain(argc, argv, "bench_out/perf_infer.json", Run);
}
