// Load bench for the front-door request path (serve::Frontend, PR 7).
// Drives a fully-ingested serving stack through the concurrent MPSC
// front door and reports one machine-readable JSON (default
// bench_out/perf_frontend.json) that CI archives and gates on:
//   clean      closed-loop producers, ample queue: zero sheds by
//              construction, and every answer must be bitwise identical
//              to InferenceRuntime::Predict via the model facade
//   coalesce   manual-pump, K duplicates of M keys in one drain cycle:
//              exactly one inference per key, fan-out bitwise identical,
//              deterministic hit counts
//   closed_loop  T producers submitting back-to-back: throughput under
//              natural backpressure, p99 latency
//   open_loop  paced arrival ladder: max sustainable QPS whose p99
//              latency meets the SLO with shed rate <= 1%
//   overload   burst 4x the ring capacity with the consumer stalled:
//              sheds are structural, availability must stay 1.0, queue
//              depth must stay bounded by the ring
//   quantized  closed loop against a second stack serving int8 inference
//              weights (run last, own harness — the fp32 arms above are
//              untouched): throughput plus mae_delta_kmh, the true-MAE
//              shift vs the fp32 clean arm, which must stay within
//              0.5 km/h
//
// Flags: --perf_json[=path] selects the output file; --quick shrinks the
// stream and the rate ladder for CI smoke runs.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "serve/frontend.h"
#include "serve/harness.h"
#include "tensor/quant.h"
#include "util/stopwatch.h"

namespace {

using namespace apots;

serve::HarnessConfig BaseConfig(bool quick) {
  serve::HarnessConfig config;
  traffic::DatasetSpec spec;
  spec.num_roads = 5;
  spec.num_days = quick ? 4 : 10;
  spec.intervals_per_day = quick ? 96 : 288;
  spec.seed = 4242;
  spec.hyundai_calendar = false;
  config.spec = spec;
  config.warmup_fraction = 0.5;
  config.predictor = core::PredictorType::kFc;
  config.width_divisor = 16;
  config.train_epochs = 0;  // load mechanics do not need a trained model
  config.model_seed = 7;
  return config;
}

/// Builds a harness with the whole stream already ingested, so the
/// frontend serves against a quiescent, fully-fresh live dataset and the
/// bench measures the request path, not the ingest path.
std::unique_ptr<serve::SimulationHarness> BuildIngestedHarness(
    serve::HarnessConfig config) {
  auto harness =
      std::make_unique<serve::SimulationHarness>(std::move(config));
  while (harness->IngestTick()) {
  }
  return harness;
}

/// Servable anchor window [lo, lo + span): streamed region only, so every
/// clean answer is the full tier.
void AnchorWindow(const serve::SimulationHarness& harness, long* lo,
                  long* span) {
  *lo = harness.warmup_end();
  *span = harness.last_servable_tick() - *lo + 1;
}

struct ObservedAnswer {
  long anchor = 0;
  double kmh = 0.0;
  serve::ServeTier tier = serve::ServeTier::kFull;
  serve::RequestOutcome outcome = serve::RequestOutcome::kServed;
};

/// Closed-loop arm: each producer submits and waits, back to back.
struct ClosedLoopResult {
  serve::FrontendStats stats;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::vector<ObservedAnswer> answers;
};

ClosedLoopResult RunClosedLoop(serve::SimulationHarness* harness,
                               int threads, int requests_per_thread,
                               long lo, long span) {
  serve::FrontendConfig fc;
  fc.queue_capacity = 4096;
  fc.max_batch = 64;
  serve::Frontend frontend(&harness->supervisor(), fc);

  obs::Histogram& latency_ms = obs::MetricsRegistry::Default().GetHistogram(
      "bench.frontend_qps.latency_ms");
  latency_ms.Reset();

  std::vector<std::vector<ObservedAnswer>> per_thread(
      static_cast<size_t>(threads));
  Stopwatch watch;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto& out = per_thread[static_cast<size_t>(t)];
      out.reserve(static_cast<size_t>(requests_per_thread));
      for (int i = 0; i < requests_per_thread; ++i) {
        serve::FrontendRequest request;
        // Per-thread stride so the window is covered and duplicates
        // across threads exercise coalescing.
        request.anchor = lo + (static_cast<long>(i) * threads + t) % span;
        const serve::FrontendResponse response = frontend.Submit(request);
        latency_ms.Record(response.total_ms);
        out.push_back({request.anchor, response.serve.kmh,
                       response.serve.tier, response.outcome});
      }
    });
  }
  for (auto& worker : workers) worker.join();
  const double elapsed_ms = watch.ElapsedMillis();
  frontend.Stop();

  ClosedLoopResult result;
  result.stats = frontend.stats();
  const double total =
      static_cast<double>(threads) * requests_per_thread;
  result.qps = elapsed_ms <= 0.0 ? 0.0 : total / (elapsed_ms / 1e3);
  result.p50_ms = latency_ms.Percentile(0.50);
  result.p99_ms = latency_ms.Percentile(0.99);
  for (auto& observed : per_thread) {
    result.answers.insert(result.answers.end(), observed.begin(),
                          observed.end());
  }
  return result;
}

/// Checks every closed-loop answer against the direct
/// InferenceRuntime::Predict path (the model facade with fallback
/// disabled). Bitwise: `!=` on the doubles, no tolerance.
bool CheckBitwise(serve::SimulationHarness* harness,
                  const std::vector<ObservedAnswer>& answers,
                  uint64_t* compared) {
  std::vector<long> distinct;
  for (const ObservedAnswer& answer : answers) {
    distinct.push_back(answer.anchor);
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  const std::vector<double> direct = harness->DirectPredictKmh(distinct);
  std::map<long, double> expected;
  for (size_t i = 0; i < distinct.size(); ++i) {
    expected[distinct[i]] = direct[i];
  }
  bool all_match = true;
  for (const ObservedAnswer& answer : answers) {
    ++*compared;
    if (answer.tier != serve::ServeTier::kFull ||
        answer.kmh != expected[answer.anchor]) {
      all_match = false;
    }
  }
  return all_match;
}

/// Deterministic coalescing arm: manual pump, K duplicates of each of M
/// keys submitted before a single drain cycle. Expected counts are exact,
/// not statistical.
struct CoalesceResult {
  serve::FrontendStats stats;
  uint64_t expected_hits = 0;
  uint64_t keys = 0;
  bool counts_exact = false;
  bool fanout_bitwise = false;
};

CoalesceResult RunCoalesce(serve::SimulationHarness* harness, long lo) {
  constexpr int kKeys = 16;
  constexpr int kDuplicates = 8;
  serve::FrontendConfig fc;
  fc.queue_capacity = 256;
  fc.max_batch = 256;
  fc.background = false;  // the bench thread is the consumer
  serve::Frontend frontend(&harness->supervisor(), fc);

  std::vector<std::shared_ptr<serve::PendingResponse>> handles;
  for (int dup = 0; dup < kDuplicates; ++dup) {
    for (int key = 0; key < kKeys; ++key) {
      serve::FrontendRequest request;
      request.anchor = lo + key;
      handles.push_back(frontend.SubmitAsync(request));
    }
  }
  while (frontend.RunCycle() > 0) {
  }

  CoalesceResult result;
  result.stats = frontend.stats();
  result.keys = kKeys;
  result.expected_hits =
      static_cast<uint64_t>(kKeys) * (kDuplicates - 1);
  result.counts_exact =
      result.stats.inference_calls == 1 &&
      result.stats.inferred_keys == kKeys &&
      result.stats.served == kKeys &&
      result.stats.coalesce_hits == result.expected_hits &&
      result.stats.sheds() == 0;

  // Every duplicate must carry bits identical to its key's slot owner.
  result.fanout_bitwise = true;
  std::map<long, double> first_bits;
  for (const auto& handle : handles) {
    const serve::FrontendResponse& response = handle->Wait();
    const long anchor = handle->request().anchor;
    auto [it, inserted] = first_bits.try_emplace(anchor, response.serve.kmh);
    if (!inserted &&
        std::memcmp(&it->second, &response.serve.kmh, sizeof(double)) != 0) {
      result.fanout_bitwise = false;
    }
  }
  return result;
}

/// One open-loop step: paced arrivals at `offered_qps` for `duration_s`.
struct OpenLoopStep {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double shed_rate = 0.0;
  uint64_t requests = 0;
  bool sustainable = false;
};

OpenLoopStep RunOpenLoopStep(serve::SimulationHarness* harness,
                             double offered_qps, double duration_s,
                             double slo_ms, long lo, long span) {
  serve::FrontendConfig fc;
  fc.queue_capacity = 1024;
  fc.max_batch = 64;
  serve::Frontend frontend(&harness->supervisor(), fc);

  obs::Histogram& latency_ms = obs::MetricsRegistry::Default().GetHistogram(
      "bench.frontend_qps.open_latency_ms");
  latency_ms.Reset();

  const int64_t total =
      std::max<int64_t>(1, static_cast<int64_t>(offered_qps * duration_s));
  const auto period = std::chrono::nanoseconds(
      static_cast<int64_t>(1e9 / offered_qps));
  std::vector<std::shared_ptr<serve::PendingResponse>> handles;
  handles.reserve(static_cast<size_t>(total));

  const auto start = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < total; ++i) {
    // Open loop: arrivals follow the schedule, not the service rate. A
    // late dispatcher catches up in a burst instead of silently lowering
    // the offered rate.
    const auto due = start + period * i;
    if (std::chrono::steady_clock::now() < due) {
      std::this_thread::sleep_until(due);
    }
    serve::FrontendRequest request;
    request.anchor = lo + static_cast<long>(i) % span;
    handles.push_back(frontend.SubmitAsync(request));
  }
  for (const auto& handle : handles) {
    const serve::FrontendResponse& response = handle->Wait();
    if (response.outcome == serve::RequestOutcome::kServed ||
        response.outcome == serve::RequestOutcome::kCoalesced) {
      latency_ms.Record(response.total_ms);
    }
  }
  const auto end = std::chrono::steady_clock::now();
  frontend.Stop();

  OpenLoopStep step;
  step.offered_qps = offered_qps;
  step.requests = static_cast<uint64_t>(total);
  const double elapsed_s =
      std::chrono::duration<double>(end - start).count();
  step.achieved_qps =
      elapsed_s <= 0.0 ? 0.0 : static_cast<double>(total) / elapsed_s;
  step.p50_ms = latency_ms.Percentile(0.50);
  step.p99_ms = latency_ms.Percentile(0.99);
  step.shed_rate = frontend.stats().shed_rate();
  step.sustainable = step.p99_ms <= slo_ms && step.shed_rate <= 0.01;
  return step;
}

/// Overload arm: manual pump, a burst 4x the ring with the consumer
/// stalled. Admission control must shed exactly the overflow, answer
/// everything, and never let the queue outgrow the ring.
struct OverloadResult {
  serve::FrontendStats stats;
  uint64_t burst = 0;
  uint64_t capacity = 0;
  double availability = 0.0;
  bool sheds_structural = false;
  bool depth_bounded = false;
};

OverloadResult RunOverload(serve::SimulationHarness* harness, long lo,
                           long span) {
  constexpr size_t kCapacity = 64;
  serve::FrontendConfig fc;
  fc.queue_capacity = kCapacity;
  fc.max_batch = 64;
  fc.background = false;  // consumer stalled: admission is on its own
  serve::Frontend frontend(&harness->supervisor(), fc);

  const size_t burst = kCapacity * 4;
  std::vector<std::shared_ptr<serve::PendingResponse>> handles;
  handles.reserve(burst);
  for (size_t i = 0; i < burst; ++i) {
    serve::FrontendRequest request;
    request.anchor = lo + static_cast<long>(i) % span;
    handles.push_back(frontend.SubmitAsync(request));
  }
  // The overflow is already answered from the ladder; drain the rest.
  while (frontend.RunCycle() > 0) {
  }
  uint64_t answered = 0;
  for (const auto& handle : handles) {
    if (handle->ready()) ++answered;
  }

  OverloadResult result;
  result.stats = frontend.stats();
  result.burst = burst;
  result.capacity = kCapacity;
  result.availability =
      static_cast<double>(answered) / static_cast<double>(burst);
  result.sheds_structural =
      result.stats.shed_overload == burst - kCapacity &&
      result.stats.answered() == burst;
  result.depth_bounded = result.stats.max_queue_depth <= kCapacity;
  return result;
}

/// Mean |served km/h - true km/h| over a closed-loop answer set.
double AnswersMae(serve::SimulationHarness* harness,
                  const std::vector<ObservedAnswer>& answers) {
  const int target = harness->target_road();
  const int beta = harness->model().assembler().beta();
  double sum = 0.0;
  for (const ObservedAnswer& answer : answers) {
    sum += std::fabs(answer.kmh -
                     harness->truth().Speed(target, answer.anchor + beta));
  }
  return answers.empty() ? 0.0
                         : sum / static_cast<double>(answers.size());
}

int Run(const std::string& path, bool quick) {
  auto harness = BuildIngestedHarness(BaseConfig(quick));
  long lo = 0;
  long span = 0;
  AnchorWindow(*harness, &lo, &span);
  std::fprintf(stderr, "anchor window: [%ld, %ld)\n", lo, lo + span);

  const double slo_ms = quick ? 50.0 : 100.0;

  // Arm 1: clean closed loop + bitwise identity.
  const int threads = 4;
  const int per_thread = quick ? 400 : 4000;
  ClosedLoopResult clean =
      RunClosedLoop(harness.get(), threads, per_thread, lo, span);
  uint64_t compared = 0;
  const bool bitwise_clean =
      CheckBitwise(harness.get(), clean.answers, &compared);
  std::fprintf(stderr,
               "clean: %.0f qps, p50 %.3fms p99 %.3fms, sheds %llu, "
               "coalesce_rate %.3f, %llu compared, bitwise=%d\n",
               clean.qps, clean.p50_ms, clean.p99_ms,
               static_cast<unsigned long long>(clean.stats.sheds()),
               clean.stats.coalesce_rate(),
               static_cast<unsigned long long>(compared),
               bitwise_clean ? 1 : 0);

  // Arm 2: deterministic coalescing.
  const CoalesceResult coalesce = RunCoalesce(harness.get(), lo);
  std::fprintf(
      stderr,
      "coalesce: %llu keys, %llu hits (expected %llu), %llu inference "
      "calls, exact=%d fanout_bitwise=%d\n",
      static_cast<unsigned long long>(coalesce.keys),
      static_cast<unsigned long long>(coalesce.stats.coalesce_hits),
      static_cast<unsigned long long>(coalesce.expected_hits),
      static_cast<unsigned long long>(coalesce.stats.inference_calls),
      coalesce.counts_exact ? 1 : 0, coalesce.fanout_bitwise ? 1 : 0);

  // Arm 3: open-loop rate ladder -> max sustainable QPS at the p99 SLO.
  std::vector<double> ladder;
  if (quick) {
    ladder = {500.0, 2000.0, 8000.0, 32000.0};
  } else {
    ladder = {1000.0, 4000.0, 16000.0, 64000.0, 128000.0};
  }
  const double duration_s = quick ? 0.5 : 2.0;
  double max_sustainable_qps = 0.0;
  double sustainable_p99 = 0.0;
  std::vector<OpenLoopStep> steps;
  for (const double rate : ladder) {
    const OpenLoopStep step = RunOpenLoopStep(harness.get(), rate,
                                              duration_s, slo_ms, lo, span);
    std::fprintf(stderr,
                 "open_loop: offered %.0f achieved %.0f qps, p99 %.3fms, "
                 "shed_rate %.4f, sustainable=%d\n",
                 step.offered_qps, step.achieved_qps, step.p99_ms,
                 step.shed_rate, step.sustainable ? 1 : 0);
    if (step.sustainable && step.achieved_qps > max_sustainable_qps) {
      max_sustainable_qps = step.achieved_qps;
      sustainable_p99 = step.p99_ms;
    }
    steps.push_back(step);
  }

  // Arm 4: overload shedding.
  const OverloadResult overload = RunOverload(harness.get(), lo, span);
  std::fprintf(
      stderr,
      "overload: burst %llu over capacity %llu, availability %.4f, "
      "sheds %llu, max depth %llu, structural=%d bounded=%d\n",
      static_cast<unsigned long long>(overload.burst),
      static_cast<unsigned long long>(overload.capacity),
      overload.availability,
      static_cast<unsigned long long>(overload.stats.sheds()),
      static_cast<unsigned long long>(overload.stats.max_queue_depth),
      overload.sheds_structural ? 1 : 0, overload.depth_bounded ? 1 : 0);

  // Arm 5 (run last, own harness — the fp32 stack above stays untouched):
  // closed loop against a stack serving int8 inference weights. Gated on
  // mae_delta_kmh, the true-MAE shift vs the fp32 clean arm: quantization
  // noise is near-zero-mean, so a healthy kernel moves accuracy by far
  // less than the 0.5 km/h band while a broken one blows it immediately.
  serve::HarnessConfig quant_config = BaseConfig(quick);
  quant_config.inference.quantize = tensor::QuantMode::kInt8;
  auto quant_harness = BuildIngestedHarness(std::move(quant_config));
  ClosedLoopResult quant = RunClosedLoop(quant_harness.get(), threads,
                                         per_thread, lo, span);
  const double clean_mae = AnswersMae(harness.get(), clean.answers);
  const double quant_mae = AnswersMae(quant_harness.get(), quant.answers);
  const double mae_delta = quant_mae - clean_mae;
  const bool quant_accuracy_ok = std::fabs(mae_delta) <= 0.5;
  std::fprintf(stderr,
               "quantized: %.0f qps, p50 %.3fms p99 %.3fms, sheds %llu, "
               "mae %.3f (fp32 %.3f, delta %+.4f km/h, ok=%d)\n",
               quant.qps, quant.p50_ms, quant.p99_ms,
               static_cast<unsigned long long>(quant.stats.sheds()),
               quant_mae, clean_mae, mae_delta, quant_accuracy_ok ? 1 : 0);

  bench::Report report("frontend_qps");
  report.Set("config.quick", quick)
      .Set("config.slo_ms", slo_ms)
      .Set("config.threads", threads)
      .Set("clean.requests", clean.stats.submitted)
      .Set("clean.qps", clean.qps)
      .Set("clean.p50_ms", clean.p50_ms)
      .Set("clean.p99_ms", clean.p99_ms)
      .Set("clean.sheds", clean.stats.sheds())
      .Set("clean.coalesce_rate", clean.stats.coalesce_rate())
      .Set("clean.bitwise_match", bitwise_clean)
      .Set("coalesce.keys", coalesce.keys)
      .Set("coalesce.hits", coalesce.stats.coalesce_hits)
      .Set("coalesce.expected_hits", coalesce.expected_hits)
      .Set("coalesce.inference_calls", coalesce.stats.inference_calls)
      .Set("coalesce.counts_exact", coalesce.counts_exact)
      .Set("coalesce.fanout_bitwise", coalesce.fanout_bitwise)
      .Set("open_loop.slo_ms", slo_ms)
      .Set("open_loop.max_sustainable_qps", max_sustainable_qps)
      .Set("open_loop.sustainable_p99_ms", sustainable_p99)
      .Set("overload.submitted", overload.stats.submitted)
      .Set("overload.answered", overload.stats.answered())
      .Set("overload.availability", overload.availability)
      .Set("overload.sheds", overload.stats.sheds())
      .Set("overload.shed_rate", overload.stats.shed_rate())
      .Set("overload.max_queue_depth", overload.stats.max_queue_depth)
      .Set("overload.queue_capacity", overload.capacity)
      .Set("overload.sheds_structural", overload.sheds_structural)
      .Set("overload.depth_bounded", overload.depth_bounded)
      .Set("quantized.quantize",
           tensor::QuantModeName(tensor::QuantMode::kInt8))
      .Set("quantized.requests", quant.stats.submitted)
      .Set("quantized.qps", quant.qps)
      .Set("quantized.p50_ms", quant.p50_ms)
      .Set("quantized.p99_ms", quant.p99_ms)
      .Set("quantized.sheds", quant.stats.sheds())
      .Set("quantized.mae_kmh", quant_mae)
      .Set("quantized.mae_delta_kmh", mae_delta)
      .Set("quantized.accuracy_band_ok", quant_accuracy_ok);

  // The clean closed loop never sheds and answers bitwise identically to
  // InferenceRuntime::Predict, with exact coalescing counts.
  report.ExpectTrue("clean.bitwise_match");
  report.ExpectAtMost("clean.sheds", 0);
  report.ExpectTrue("coalesce.counts_exact");
  report.ExpectTrue("coalesce.fanout_bitwise");
  // An absolute floor at the p99 SLO: the committed baseline tracks the
  // real number, this catches a collapsed serving loop on a slow host.
  report.ExpectAtLeast("open_loop.max_sustainable_qps", 300);
  // A 4x-capacity burst is answered in full: sheds are the ladder
  // answering, not drops.
  report.ExpectAtLeast("overload.availability", 1.0);
  report.ExpectAtLeast("overload.sheds", 1);
  report.ExpectTrue("overload.sheds_structural");
  report.ExpectTrue("overload.depth_bounded");
  // The int8 arm answers and holds the accuracy band against fp32.
  report.Check("quantized.qps > 0", report.Number("quantized.qps") > 0.0);
  report.ExpectTrue("quantized.accuracy_band_ok");
  return report.Write(path);
}

}  // namespace

int main(int argc, char** argv) {
  return apots::bench::PerfMain(argc, argv, "bench_out/perf_frontend.json",
                                Run);
}
