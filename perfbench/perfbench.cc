// The repository benchmark: one binary, three workloads, every metric named
// with its unit and sample count.
//
//   perfbench --workload live_stream|whatif_sweep|train_adv --seed N
//             --seconds S --trace 0|1 [--smoke]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// first measures untraced throughput, then runs the workload with
// obs::TraceRecorder on, and reports the per-layer metrics of the traced
// part plus trace.overhead_ratio (untraced over traced throughput). Layers
// are timed from outside, around calls into public functions, and from the
// stats and spans the program already exposes. --smoke shrinks every input
// so the three workloads finish in seconds.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when any correctness check fails.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/apots_model.h"
#include "data/context.h"
#include "data/windowing.h"
#include "obs/trace.h"
#include "serve/frontend.h"
#include "serve/harness.h"
#include "tensor/cpu_features.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"
#include "traffic/dataset_generator.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace apots;
using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

// ---------------------------------------------------------------------------
// Order statistics over raw samples (no histogram buckets).
// ---------------------------------------------------------------------------

/// Nearest-rank quantile: the ceil(q * n)-th smallest sample.
double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return samples[rank - 1];
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Time metrics are taken per slice of a run (a few seconds of the same
/// work each) and the run reports its best slice. A shared 4-vCPU virtual
/// machine changes speed by up to 40% for seconds at a time as neighbours
/// load it; every slice pays for a slow spell, but a code change moves the
/// best slice as much as any other, and the best slice varies far less
/// between runs than a whole-run median.
struct Slices {
  std::vector<double> values;
  size_t min_samples = 0;  ///< samples behind the thinnest slice

  void Add(double value, size_t samples) {
    min_samples = values.empty() ? samples : std::min(min_samples, samples);
    values.push_back(value);
  }
  double Lowest() const {
    return values.empty() ? 0.0
                          : *std::min_element(values.begin(), values.end());
  }
  double Highest() const {
    return values.empty() ? 0.0
                          : *std::max_element(values.begin(), values.end());
  }
};

// ---------------------------------------------------------------------------
// Metric table.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

struct Report {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples) {
    metrics.push_back({name, value, unit, samples});
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

// ---------------------------------------------------------------------------
// Host fingerprint and the thread split.
// ---------------------------------------------------------------------------

size_t HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

/// CPUs the process may run on, as found before any thread was pinned.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
      }
    }
    return out;
  }();
  return cpus;
}

/// Restricts the calling thread to `cpus` (all allowed CPUs when empty).
void PinThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus.empty() ? AllowedCpus() : cpus) CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Trace analysis: per-span self time and durations.
// ---------------------------------------------------------------------------

/// Spans whose self time the traced run reports: the program's own spans
/// and the benchmark's spans around the public calls it times.
const char* const kSpans[] = {
    "frontend.cycle",    "serve.predict",       "infer.predict",
    "infer.batch",       "pool.parallel_for",   "pool.worker",
    "train.epoch",       "train.mse_step",      "train.adv_round",
    "bench.ingest_tick", "bench.run_cycle",     "bench.predict_items",
    "bench.train_guarded", "bench.assemble",    "bench.forward",
};

struct SpanStats {
  double self_ms = 0.0;
  std::vector<double> dur_ms;
};

/// A span's self time is its duration minus the time covered by its direct
/// children on the same thread (spans nest strictly per thread).
std::map<std::string, SpanStats> AnalyzeTrace(
    std::vector<obs::TraceEvent> events) {
  std::sort(events.begin(), events.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.depth < b.depth;
            });
  std::vector<int64_t> child_ns(events.size(), 0);
  std::vector<size_t> stack;
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    while (!stack.empty()) {
      const obs::TraceEvent& top = events[stack.back()];
      if (top.tid == e.tid && top.depth < e.depth &&
          top.start_ns + top.dur_ns >= e.start_ns + e.dur_ns) {
        break;
      }
      stack.pop_back();
    }
    if (!stack.empty()) child_ns[stack.back()] += e.dur_ns;
    stack.push_back(i);
  }
  std::map<std::string, SpanStats> out;
  for (size_t i = 0; i < events.size(); ++i) {
    SpanStats& s = out[events[i].name];
    s.self_ms += static_cast<double>(events[i].dur_ns - child_ns[i]) / 1e6;
    s.dur_ms.push_back(static_cast<double>(events[i].dur_ns) / 1e6);
  }
  return out;
}

void StartTrace() {
  obs::TraceOptions options;
  options.seed = 1;
  options.events_per_thread = size_t{1} << 19;
  obs::TraceRecorder::Default().Enable(options);
}

std::map<std::string, SpanStats> StopTrace() {
  auto& recorder = obs::TraceRecorder::Default();
  const uint64_t dropped = recorder.DroppedEvents();
  std::vector<obs::TraceEvent> events = recorder.Snapshot();
  recorder.Disable();
  if (dropped > 0) {
    std::fprintf(stderr, "warning: trace ring dropped %llu events\n",
                 static_cast<unsigned long long>(dropped));
  }
  return AnalyzeTrace(std::move(events));
}

// ---------------------------------------------------------------------------
// Layer probe: assembly and forward timed on the workload's own batches.
// ---------------------------------------------------------------------------

/// Forward operation count of the H predictor per item, from its layer
/// shapes (a multiply-add counts two): "same" convolutions over the
/// [rows, alpha] image, then the LSTM gates at every step, then the head.
double HybridForwardFlops(const core::PredictorHparams& hp, size_t rows,
                          size_t alpha) {
  double flops = 0.0;
  size_t channels = 1;
  for (size_t i = 0; i < hp.cnn_channels.size(); ++i) {
    const double k = static_cast<double>(hp.cnn_kernels[i]);
    flops += 2.0 * static_cast<double>(channels * hp.cnn_channels[i]) * k *
             k * static_cast<double>(rows * alpha);
    channels = hp.cnn_channels[i];
  }
  size_t features = channels * rows;
  for (size_t hidden : hp.lstm_hidden) {
    flops += 2.0 * 4.0 * static_cast<double>(hidden * (features + hidden)) *
             static_cast<double>(alpha);
    features = hidden;
  }
  return flops + 2.0 * static_cast<double>(features);
}

struct LayerProbe {
  double assemble_ms = 0.0;
  double forward_ms = 0.0;
  size_t items = 0;
};

LayerProbe ProbeBatches(core::ApotsModel& model,
                        const std::vector<core::WorkItem>& items,
                        const data::ContextTable* table, size_t batch) {
  LayerProbe probe;
  const data::FeatureAssembler& assembler = model.assembler();
  const size_t rows = static_cast<size_t>(assembler.NumRows());
  const size_t alpha = static_cast<size_t>(assembler.alpha());
  data::FeatureCache* cache = model.inference_runtime().feature_cache();
  tensor::Workspace ws;
  for (size_t lo = 0; lo < items.size(); lo += batch) {
    const size_t n = std::min(batch, items.size() - lo);
    std::vector<long> anchors(n);
    std::vector<data::ResolvedContext> contexts(n);
    std::vector<std::shared_ptr<const data::ContextSpec>> pins;
    for (size_t i = 0; i < n; ++i) {
      anchors[i] = items[lo + i].anchor;
      if (items[lo + i].context != 0 && table != nullptr) {
        auto spec = table->Find(items[lo + i].context);
        contexts[i] = {items[lo + i].context, spec.get()};
        pins.push_back(std::move(spec));
      }
    }
    tensor::Tensor x({n, rows, alpha});
    const auto t0 = Clock::now();
    {
      obs::TraceSpan span("bench.assemble");
      assembler.AssembleBatchInto(anchors.data(), contexts.data(), n, cache,
                                  &x);
    }
    const auto t1 = Clock::now();
    {
      obs::TraceSpan span("bench.forward");
      ws.Reset();
      (void)model.predictor().Forward(x, /*training=*/false, &ws);
    }
    const auto t2 = Clock::now();
    probe.assemble_ms += MsBetween(t0, t1);
    probe.forward_ms += MsBetween(t1, t2);
    probe.items += n;
  }
  return probe;
}

/// Times FeatureAssembler::AssembleBatchInto and the inference
/// Predictor::Forward on each batch. Like InferenceRuntime's batches, the
/// probe runs inside a pool task, so the kernels under it run inline.
LayerProbe ProbeInference(core::ApotsModel& model,
                          const std::vector<core::WorkItem>& items,
                          const data::ContextTable* table, size_t batch) {
  LayerProbe probe;
  ThreadPool& pool = GlobalPool();
  pool.ParallelFor(0, pool.num_threads(), 1, [&](size_t lo, size_t, size_t) {
    if (lo == 0) probe = ProbeBatches(model, items, table, batch);
  });
  return probe;
}

// ---------------------------------------------------------------------------
// Per-layer metric emission shared by all workloads. Layers a workload does
// not exercise read 0.
// ---------------------------------------------------------------------------

struct LayerMetrics {
  // serve.* (live_stream)
  std::vector<double> queue_ms, cycle_ms, tick_ms, lag_ms;
  std::vector<double> latency_ms;  ///< open-loop, from due time
  double keys_per_call = 0.0, coalesce_ratio = 0.0, shed_ratio = 0.0;
  double tier_full_ratio = 0.0;
  double records_per_tick = 0.0, late_per_tick = 0.0, imputed_per_tick = 0.0;
  double invalidations_per_tick = 0.0;
  // data.cache.*
  double cache_hit_ratio = 0.0;
  double cache_evictions = 0.0;
  // probe
  LayerProbe probe;
  double flops_per_item = 0.0;
  // core.train.*
  double rollbacks = 0.0;
  double overhead_ratio = 0.0;
  size_t pool_threads = 1;
  std::map<std::string, SpanStats> spans;
};

void EmitLayers(const LayerMetrics& m, Report* report) {
  auto span = [&m](const char* name) -> const SpanStats& {
    static const SpanStats kEmpty;
    auto it = m.spans.find(name);
    return it == m.spans.end() ? kEmpty : it->second;
  };
  report->Add("serve.frontend.queue_wait_ms_p50", Quantile(m.queue_ms, 0.5),
              "ms", m.queue_ms.size());
  report->Add("serve.frontend.queue_wait_ms_p99", Quantile(m.queue_ms, 0.99),
              "ms", m.queue_ms.size());
  report->Add("serve.frontend.cycle_ms_p99", Quantile(m.cycle_ms, 0.99), "ms",
              m.cycle_ms.size());
  report->Add("serve.frontend.latency_ms_p99", Quantile(m.latency_ms, 0.99),
              "ms", m.latency_ms.size());
  report->Add("serve.frontend.keys_per_call", m.keys_per_call, "keys/call", 1);
  report->Add("serve.frontend.coalesce_ratio", m.coalesce_ratio, "ratio", 1);
  report->Add("serve.frontend.shed_ratio", m.shed_ratio, "ratio", 1);
  report->Add("serve.supervisor.tier_full_ratio", m.tier_full_ratio, "ratio",
              1);
  report->Add("serve.ingest.tick_ms_p50", Quantile(m.tick_ms, 0.5), "ms",
              m.tick_ms.size());
  report->Add("serve.ingest.tick_ms_p99", Quantile(m.tick_ms, 0.99), "ms",
              m.tick_ms.size());
  report->Add("serve.ingest.records_per_tick", m.records_per_tick,
              "records/tick", m.tick_ms.size());
  report->Add("serve.ingest.late_per_tick", m.late_per_tick, "records/tick",
              m.tick_ms.size());
  report->Add("serve.ingest.imputed_per_tick", m.imputed_per_tick,
              "cells/tick", m.tick_ms.size());
  report->Add("serve.ingest.cache_invalidations_per_tick",
              m.invalidations_per_tick, "keys/tick", m.tick_ms.size());
  report->Add("data.cache.hit_ratio", m.cache_hit_ratio, "ratio", 1);
  report->Add("data.cache.evictions", m.cache_evictions, "count", 1);
  const double items = static_cast<double>(m.probe.items);
  report->Add("data.assemble_ms_per_item", Ratio(m.probe.assemble_ms, items),
              "ms", m.probe.items);
  report->Add("nn.forward_ms_per_item", Ratio(m.probe.forward_ms, items), "ms",
              m.probe.items);
  // Computed, not counted: operations from the layer shapes over the
  // measured forward time.
  report->Add("nn.forward_gflop_per_s",
              Ratio(m.flops_per_item * items, m.probe.forward_ms * 1e6),
              "GFLOP/s", m.probe.items);
  const SpanStats& batch = span("infer.batch");
  report->Add("util.pool.busy_ratio",
              Ratio(Sum(batch.dur_ms),
                    Sum(span("infer.predict").dur_ms) *
                        static_cast<double>(m.pool_threads)),
              "ratio", batch.dur_ms.size());
  report->Add("core.infer.batch_ms_p50", Quantile(batch.dur_ms, 0.5), "ms",
              batch.dur_ms.size());
  const SpanStats& mse = span("train.mse_step");
  const SpanStats& adv = span("train.adv_round");
  report->Add("core.train.mse_step_ms_p50", Quantile(mse.dur_ms, 0.5), "ms",
              mse.dur_ms.size());
  report->Add("core.train.adv_round_ms_p50", Quantile(adv.dur_ms, 0.5), "ms",
              adv.dur_ms.size());
  report->Add("core.train.adv_time_share",
              Ratio(Sum(adv.dur_ms), Sum(span("train.epoch").dur_ms)), "ratio",
              adv.dur_ms.size());
  report->Add("core.train.rollbacks", m.rollbacks, "count", 1);
  report->Add("loadgen.lag_ms_p99", Quantile(m.lag_ms, 0.99), "ms",
              m.lag_ms.size());
  report->Add("trace.overhead_ratio", m.overhead_ratio, "ratio", 1);
  for (const char* name : kSpans) {
    const SpanStats& s = span(name);
    report->Add(std::string("self_ms.") + name, s.self_ms, "ms",
                s.dur_ms.size());
  }
}

// ---------------------------------------------------------------------------
// Options and shared set-up.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

/// Sets up `build()` at least kSetups times and for at least half a second
/// (so millisecond set-ups get enough repeats for a steady median), keeps
/// the last instance, and reports the median set-up time.
constexpr size_t kSetups = 5;

struct SetupTime {
  double median_s = 0.0;
  size_t count = 0;
};

template <typename T, typename Fn>
SetupTime MedianSetup(std::unique_ptr<T>* slot, Fn build) {
  std::vector<double> seconds;
  while (seconds.size() < kSetups || Sum(seconds) < 0.5) {
    slot->reset();
    const auto t0 = Clock::now();
    *slot = build();
    seconds.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  return {Quantile(seconds, 0.5), seconds.size()};
}

/// The deployment every workload runs against is a fixed fixture: corridor,
/// feed-fault pattern and model weights do not depend on --seed, so the
/// run-to-run spread reflects the system rather than a different world.
/// The seed draws what users send: arrivals, anchors, days, samples.
constexpr uint64_t kWorldSeed = 2022;

serve::HarnessConfig HarnessFor(int days, int warm_days, int train_epochs) {
  serve::HarnessConfig config;
  traffic::DatasetSpec spec;
  spec.num_roads = 5;
  spec.num_days = days;
  spec.intervals_per_day = 96;
  spec.seed = kWorldSeed;
  spec.hyundai_calendar = false;
  config.spec = spec;
  config.warmup_fraction =
      static_cast<double>(warm_days) / static_cast<double>(days);
  config.predictor = core::PredictorType::kHybrid;
  config.width_divisor = 8;
  config.train_epochs = train_epochs;
  config.model_seed = kWorldSeed + 1;
  config.feed = serve::FeedFaultSpec();  // delays, duplicates, drops
  config.feed.seed = kWorldSeed + 2;
  return config;
}

// ---------------------------------------------------------------------------
// live_stream: open-loop requests beside a ticking ingest stream.
// ---------------------------------------------------------------------------

struct LiveParams {
  double tick_ms = 2.0;        ///< wall time per stream tick
  /// Open-loop Poisson arrival rate. A one-key forward pass takes 1 to
  /// 1.5 ms as the shared host speeds up and slows down, and batch time
  /// grows with the keys in the batch, so the serving thread is busy a
  /// fifth to a third of the time. Nearer the knee of the queue, latency
  /// magnifies host speed: at 500 qps, a host 30% slower made the median
  /// latency 70% longer and the tail twice as long, and at 2000 qps the
  /// thread was always busy. Here latency follows host speed about in
  /// proportion, as capacity does.
  double rate_qps = 200.0;
  double deadline_ms = 25.0;   ///< per-request budget from its due time
  int window = 8;              ///< trailing anchors a request may target
  size_t outstanding = 64;     ///< requests in flight in the saturated phase
  double open_share = 0.75;    ///< share of the run spent open-loop
  double lag_bound_ms = 10.0;  ///< generator p99 lag above this fails the run
  int warm_days = 4;
  int train_epochs = 3;
};

struct Issued {
  std::shared_ptr<serve::PendingResponse> handle;
  Clock::time_point due;
  Clock::time_point submit;
};

class LiveStream {
 public:
  LiveStream(double seconds, const LiveParams& params)
      : params_(params) {
    const double ticks = seconds * 1e3 / params.tick_ms * 1.2 + 64.0;
    const int days =
        params.warm_days + static_cast<int>(std::ceil(ticks / 96.0)) + 1;
    harness_ = std::make_unique<serve::SimulationHarness>(
        HarnessFor(days, params.warm_days, params.train_epochs));
    serve::FrontendConfig fc;
    fc.background = false;  // the main thread pumps, as in RunTick
    frontend_ = std::make_unique<serve::Frontend>(&harness_->supervisor(), fc);
    // One tick so the trailing window is populated before the first request.
    harness_->IngestTick();
    published_tick_.store(harness_->next_tick() - 1);
  }

  serve::SimulationHarness& harness() { return *harness_; }
  uint64_t probed() const { return probed_; }

  struct Phase {
    Slices qps;          ///< saturated answers per second
    /// Open-loop latency from due time, and the median serving-cycle time,
    /// of each open-loop slice.
    std::vector<std::vector<double>> slice_latency_ms;
    std::vector<double> slice_cycle_ms;
    uint64_t attempted = 0;
    uint64_t ok = 0;
    double abs_err_sum = 0.0;  ///< over the open-loop answers
    double capacity_qps = 0.0;  ///< over every saturated slice
    std::vector<double> fast_latency_ms;  ///< see FastSliceLatency
    uint64_t failures = 0;
    LayerMetrics layers;
  };

  /// Alternates short slices of the saturated closed loop and of the open
  /// loop, each followed by the bitwise probe. Slicing spreads both
  /// measurements over the whole run, so drift in host speed during a run
  /// weighs on them alike.
  Phase Run(uint64_t seed, double saturated_s, double open_s,
            Report* report) {
    Phase phase;
    LayerMetrics& layers = phase.layers;
    const auto frontend0 = frontend_->stats();
    const auto ingest0 = harness_->ingestor().stats();
    const auto cache0 = Cache()->stats();
    const serve::ServeReport serve0 = harness_->supervisor().report();

    const int slices = std::max(
        1, static_cast<int>(std::lround((saturated_s + open_s) / 1.25)));
    double sat_answered = 0.0;
    double sat_s = 0.0;
    const std::vector<int>& cpus = AllowedCpus();
    for (int i = 0; i < slices; ++i) {
      // Each slice serves from the next core in turn: on shared virtual
      // machines one core can run a third slower than another for minutes,
      // and the best slice should not depend on where the scheduler first
      // put the serving thread.
      if (!cpus.empty()) {
        serve_cpu_ = cpus[static_cast<size_t>(i) % cpus.size()];
        PinThread({serve_cpu_});
      }
      const Saturated sat = Saturate(seed + 2 * i + 1, saturated_s / slices);
      sat_answered += sat.answered;
      sat_s += sat.seconds;
      phase.qps.Add(Ratio(sat.answered, sat.seconds),
                    static_cast<size_t>(sat.answered));
      Probe(report);
      RunOpenLoop(seed + 2 * i, open_s / slices, &phase);
      Probe(report);
    }
    PinThread({});
    phase.capacity_qps = Ratio(sat_answered, sat_s);
    phase.fast_latency_ms = FastSliceLatency(phase);

    const auto frontend1 = frontend_->stats();
    const auto ingest1 = harness_->ingestor().stats();
    const auto cache1 = Cache()->stats();
    const serve::ServeReport serve1 = harness_->supervisor().report();

    report->Check(frontend1.submitted == frontend1.served +
                                             frontend1.coalesce_hits +
                                             frontend1.sheds(),
                  "frontend accounting: submitted != served + coalesced + "
                  "sheds");
    const double calls = static_cast<double>(frontend1.inference_calls -
                                             frontend0.inference_calls);
    layers.keys_per_call = Ratio(
        static_cast<double>(frontend1.inferred_keys - frontend0.inferred_keys),
        calls);
    const double answered =
        static_cast<double>(frontend1.answered() - frontend0.answered());
    layers.coalesce_ratio = Ratio(
        static_cast<double>(frontend1.coalesce_hits - frontend0.coalesce_hits),
        answered);
    layers.shed_ratio =
        Ratio(static_cast<double>(frontend1.sheds() - frontend0.sheds()),
              static_cast<double>(frontend1.submitted - frontend0.submitted));
    layers.tier_full_ratio = Ratio(
        static_cast<double>(serve1.tier_counts[0] - serve0.tier_counts[0]),
        static_cast<double>(serve1.requests - serve0.requests));
    phase.failures = serve1.failures - serve0.failures;
    const double ticks = static_cast<double>(layers.tick_ms.size());
    layers.records_per_tick =
        Ratio(static_cast<double>((ingest1.applied + ingest1.duplicates +
                                   ingest1.rejected) -
                                  (ingest0.applied + ingest0.duplicates +
                                   ingest0.rejected)),
              ticks);
    layers.late_per_tick =
        Ratio(static_cast<double>(ingest1.late - ingest0.late), ticks);
    layers.imputed_per_tick =
        Ratio(static_cast<double>(ingest1.imputed - ingest0.imputed), ticks);
    layers.invalidations_per_tick =
        Ratio(static_cast<double>(ingest1.cache_invalidations -
                                  ingest0.cache_invalidations),
              ticks);
    layers.cache_hit_ratio =
        Ratio(static_cast<double>(cache1.hits - cache0.hits),
              static_cast<double>((cache1.hits + cache1.misses) -
                                  (cache0.hits + cache0.misses)));
    layers.cache_evictions =
        static_cast<double>(cache1.evictions - cache0.evictions);
    return phase;
  }

  /// Batches shaped like the frontend's: `keys` trailing anchors at the
  /// current watermark.
  std::vector<core::WorkItem> ProbeItems(size_t keys, size_t batches) const {
    std::vector<core::WorkItem> items;
    const long tick = published_tick_.load();
    for (size_t b = 0; b < batches; ++b) {
      for (size_t k = 0; k < keys; ++k) {
        items.push_back(
            {tick - static_cast<long>((b + k) % params_.window), 0});
      }
    }
    return items;
  }

  /// Saturated closed loop: the serving thread keeps a fixed number of
  /// requests outstanding (submit them, pump until all are answered,
  /// repeat) with the stream paused on a neural-tier window.
  struct Saturated {
    double answered = 0.0;
    double seconds = 0.0;
  };
  Saturated Saturate(uint64_t seed, double seconds) {
    SettleOnNeuralTier();
    Rng rng(seed * 2654435761ULL + 29);
    std::vector<std::shared_ptr<serve::PendingResponse>> handles;
    uint64_t answered = 0;
    const auto start = Clock::now();
    const auto end = After(start, seconds);
    while (Clock::now() < end) {
      handles.clear();
      for (size_t i = 0; i < params_.outstanding; ++i) {
        serve::FrontendRequest request;
        request.anchor = PickAnchor(&rng);
        request.deadline_ms = 0.0;  // capacity, not deadlines
        handles.push_back(frontend_->SubmitAsync(request));
      }
      while (frontend_->queue_depth() > 0) {
        obs::TraceSpan span("bench.run_cycle");
        frontend_->RunCycle();
      }
      answered += handles.size();
    }
    return {static_cast<double>(answered),
            MsBetween(start, Clock::now()) / 1e3};
  }

 private:
  data::FeatureCache* Cache() {
    return harness_->model().inference_runtime().feature_cache();
  }

  /// One step of the consumer: ingest a due tick, else run one frontend
  /// cycle, else back off like Frontend::Run (yield, then sleep).
  void Step(int* idle) {
    const auto now = Clock::now();
    if (now >= next_tick_due_) {
      next_tick_due_ = After(next_tick_due_, params_.tick_ms / 1e3);
      if (harness_->next_tick() <= harness_->last_servable_tick()) {
        const auto t0 = Clock::now();
        {
          obs::TraceSpan span("bench.ingest_tick");
          harness_->IngestTick();
        }
        if (tick_ms_ != nullptr) {
          tick_ms_->push_back(MsBetween(t0, Clock::now()));
        }
        published_tick_.store(harness_->next_tick() - 1,
                              std::memory_order_release);
        return;
      }
    }
    size_t drained = 0;
    const auto t0 = Clock::now();
    // Empty polls stay untraced: idle spinning would flood the trace ring.
    if (frontend_->queue_depth() > 0) {
      obs::TraceSpan span("bench.run_cycle");
      drained = frontend_->RunCycle();
    } else {
      drained = frontend_->RunCycle();
    }
    if (drained > 0) {
      if (cycle_ms_ != nullptr) {
        cycle_ms_->push_back(MsBetween(t0, Clock::now()));
      }
      *idle = 0;
      return;
    }
    if (++*idle < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  void PumpUntil(Clock::time_point until) {
    int idle = 0;
    while (Clock::now() < until) Step(&idle);
  }

  void Drain(const std::atomic<bool>& producer_done) {
    int idle = 0;
    while (!producer_done.load(std::memory_order_acquire) ||
           frontend_->queue_depth() > 0) {
      Step(&idle);
    }
  }

  long PickAnchor(Rng* rng) const {
    const long tick = published_tick_.load(std::memory_order_acquire);
    int k = 0;
    while (k + 1 < params_.window && rng->Bernoulli(0.5)) ++k;
    return tick - k;
  }

  double TruthKmh(long anchor) const {
    const int beta = harness_->model().assembler().beta();
    return harness_->truth().Speed(harness_->target_road(), anchor + beta);
  }

  void RunOpenLoop(uint64_t seed, double seconds, Phase* phase) {
    const auto start = Clock::now();
    const auto end = After(start, seconds);
    next_tick_due_ = start;
    std::vector<Issued> issued;
    issued.reserve(static_cast<size_t>(params_.rate_qps * seconds * 1.2) + 16);
    cycle_ms_ = &phase->layers.cycle_ms;
    tick_ms_ = &phase->layers.tick_ms;
    const size_t cycles0 = phase->layers.cycle_ms.size();
    std::atomic<bool> done{false};
    std::thread generator([&] {
      std::vector<int> others;
      for (int cpu : AllowedCpus()) {
        if (cpu != serve_cpu_) others.push_back(cpu);
      }
      PinThread(others);  // never share the serving thread's core
      Rng rng(seed * 2654435761ULL + 17);
      double offset_s = 0.0;
      for (;;) {
        offset_s += rng.Exponential(params_.rate_qps);
        const auto due = After(start, offset_s);
        if (due >= end) break;
        // Spin on the generator's own core: waking a halted core after a
        // sleep costs milliseconds on virtual machines, which would show up
        // as generator lag rather than as the system's latency.
        while (Clock::now() < due) {
        }
        const auto submit = Clock::now();
        serve::FrontendRequest request;
        request.anchor = PickAnchor(&rng);
        request.deadline_ms =
            std::max(0.001, params_.deadline_ms - MsBetween(due, submit));
        issued.push_back({frontend_->SubmitAsync(request), due, submit});
      }
      done.store(true, std::memory_order_release);
    });
    PumpUntil(end);
    Drain(done);
    generator.join();
    cycle_ms_ = nullptr;
    tick_ms_ = nullptr;

    // The first 5% is warm-up: answered, but not counted, so waking idle
    // cores and first-touch faults do not land in the tail.
    const auto counted_from = After(start, 0.05 * seconds);
    std::vector<double> latency_ms;
    for (const Issued& req : issued) {
      if (req.due < counted_from) continue;
      const serve::FrontendResponse& response = req.handle->Wait();
      const double lag = MsBetween(req.due, req.submit);
      const double latency = lag + response.total_ms;
      phase->layers.lag_ms.push_back(lag);
      phase->layers.latency_ms.push_back(latency);
      latency_ms.push_back(latency);
      if (response.outcome != serve::RequestOutcome::kShedOverload) {
        phase->layers.queue_ms.push_back(response.queue_ms);
      }
      const bool neural =
          (response.serve.tier == serve::ServeTier::kFull ||
           response.serve.tier == serve::ServeTier::kImputed) &&
          (response.outcome == serve::RequestOutcome::kServed ||
           response.outcome == serve::RequestOutcome::kCoalesced);
      ++phase->attempted;
      if (neural && latency <= params_.deadline_ms) ++phase->ok;
      const long anchor = req.handle->request().anchor;
      phase->abs_err_sum += std::fabs(response.serve.kmh - TruthKmh(anchor));
    }
    const std::vector<double> cycles(phase->layers.cycle_ms.begin() + cycles0,
                                     phase->layers.cycle_ms.end());
    // A slice that served nothing says nothing about host speed.
    phase->slice_cycle_ms.push_back(
        cycles.empty() ? HUGE_VAL : Quantile(cycles, 0.5));
    phase->slice_latency_ms.push_back(std::move(latency_ms));
  }

  /// Open-loop latency while the host ran fastest: the requests of every
  /// slice whose median serving cycle is within 5% of the fastest slice's.
  /// A shared virtual machine flips between speeds a half apart within
  /// seconds, and the queue magnifies that in latency. The slice with the
  /// least latency would vary with the arrivals it happened to get; this
  /// chooses slices by cycle time, not by their latency, and pools every
  /// slice at the best speed for more samples.
  static std::vector<double> FastSliceLatency(const Phase& phase) {
    std::vector<double> pooled;
    if (phase.slice_cycle_ms.empty()) return pooled;
    const double fastest = *std::min_element(phase.slice_cycle_ms.begin(),
                                             phase.slice_cycle_ms.end());
    for (size_t i = 0; i < phase.slice_cycle_ms.size(); ++i) {
      if (phase.slice_cycle_ms[i] <= 1.05 * fastest) {
        const std::vector<double>& slice = phase.slice_latency_ms[i];
        pooled.insert(pooled.end(), slice.begin(), slice.end());
      }
    }
    return pooled;
  }

  /// Advances the stream (unpaced) until every anchor a request may target
  /// is served by a neural tier, so capacity measures inference rather
  /// than the outage pattern of the feed.
  void SettleOnNeuralTier() {
    const serve::ServingSupervisor& sup = harness_->supervisor();
    for (int tries = 0; tries < 1000; ++tries) {
      const long tick = published_tick_.load();
      bool neural = true;
      for (int k = 0; k < params_.window; ++k) {
        const serve::ServeTier tier = sup.TierFor(tick - k);
        neural = neural && (tier == serve::ServeTier::kFull ||
                            tier == serve::ServeTier::kImputed);
      }
      if (neural ||
          harness_->next_tick() > harness_->last_servable_tick()) {
        return;
      }
      harness_->IngestTick();
      published_tick_.store(harness_->next_tick() - 1);
    }
  }


  /// Correctness, outside the timed requests: with the stream paused, the
  /// trailing window served through the frontend must match the direct
  /// model path bit for bit on every full-tier answer.
  void Probe(Report* report) {
    std::vector<long> anchors;
    const long tick = published_tick_.load();
    for (int k = 0; k < params_.window; ++k) anchors.push_back(tick - k);
    std::vector<std::shared_ptr<serve::PendingResponse>> handles;
    for (long anchor : anchors) {
      serve::FrontendRequest request;
      request.anchor = anchor;
      request.deadline_ms = 0.0;
      handles.push_back(frontend_->SubmitAsync(request));
    }
    while (frontend_->RunCycle() > 0) {
    }
    const std::vector<double> direct = harness_->DirectPredictKmh(anchors);
    for (size_t i = 0; i < anchors.size(); ++i) {
      const serve::FrontendResponse& response = handles[i]->Wait();
      if (response.serve.tier != serve::ServeTier::kFull) continue;
      ++probed_;
      const bool same =
          std::memcmp(&response.serve.kmh, &direct[i], sizeof(double)) == 0;
      report->Check(same,
                    "live_stream full-tier answer differs from "
                    "DirectPredictKmh");
      if (!same) ++report->failed;
    }
  }

  LiveParams params_;
  std::unique_ptr<serve::SimulationHarness> harness_;
  std::unique_ptr<serve::Frontend> frontend_;
  std::atomic<long> published_tick_{0};
  Clock::time_point next_tick_due_ = Clock::now();
  int serve_cpu_ = -1;  ///< core the serving thread is pinned to
  std::vector<double>* cycle_ms_ = nullptr;
  std::vector<double>* tick_ms_ = nullptr;
  uint64_t probed_ = 0;
};

int RunLive(const Options& opt, size_t pool_threads, Report* report) {
  LiveParams params;
  if (opt.smoke) params.train_epochs = 1;
  std::unique_ptr<LiveStream> live;
  const SetupTime setup = MedianSetup(&live, [&] {
    return std::make_unique<LiveStream>(opt.seconds, params);
  });

  if (!opt.trace) {
    LiveStream::Phase phase =
        live->Run(opt.seed, opt.seconds * (1.0 - params.open_share),
                  opt.seconds * params.open_share, report);
    report->attempted = phase.attempted;
    report->failed += phase.failures;
    report->Check(phase.failures == 0, "supervisor reported failed anchors");
    const double lag_p99 = Quantile(phase.layers.lag_ms, 0.99);
    report->Check(lag_p99 <= params.lag_bound_ms,
                  "load generator p99 lag above its bound");
    report->Check(live->probed() > 0, "no full-tier answer was probed");
    std::fprintf(stderr,
                 "live_stream: %llu requests at %.0f qps, lag p99 %.3f ms, "
                 "%llu probed answers\n",
                 static_cast<unsigned long long>(phase.attempted),
                 params.rate_qps, lag_p99,
                 static_cast<unsigned long long>(live->probed()));
    report->Add("setup_s", setup.median_s, "s", setup.count);
    report->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
    report->Add("throughput_per_s", phase.qps.Highest(), "1/s",
                phase.qps.min_samples);
    // No tail latency here: over ten runs its spread was more than twice
    // that of capacity, as the tail magnifies host speed even at this
    // rate. The traced run reports serve.frontend.latency_ms_p99.
    const std::vector<double>& latency = phase.fast_latency_ms;
    report->Add("latency_p50_ms", Quantile(latency, 0.5), "ms",
                latency.size());
    report->Add("quality_mae_kmh",
                Ratio(phase.abs_err_sum, static_cast<double>(phase.attempted)),
                "km/h", phase.attempted);
    report->Add("ok_ratio",
                Ratio(static_cast<double>(phase.ok),
                      static_cast<double>(phase.attempted)),
                "ratio", phase.attempted);
    return 0;
  }

  // Tracing overhead: untraced then traced capacity at the same paused
  // stream position; the traced run then continues with the open loop.
  const double saturated_s = opt.seconds * (1.0 - params.open_share) / 2;
  const LiveStream::Saturated plain = live->Saturate(opt.seed, saturated_s);
  StartTrace();
  LiveStream::Phase traced = live->Run(opt.seed + 1000, saturated_s,
                                       opt.seconds * params.open_share,
                                       report);
  LayerMetrics& layers = traced.layers;
  const size_t keys = std::max<size_t>(
      1, static_cast<size_t>(std::lround(layers.keys_per_call)));
  layers.probe = ProbeInference(live->harness().model(),
                                live->ProbeItems(keys, 64), nullptr, keys);
  layers.spans = StopTrace();
  report->attempted = traced.attempted;
  report->failed += traced.failures;
  report->Check(traced.failures == 0, "supervisor reported failed anchors");
  const auto& hp = live->harness().model().config().predictor;
  layers.flops_per_item = HybridForwardFlops(
      hp, static_cast<size_t>(live->harness().model().assembler().NumRows()),
      static_cast<size_t>(live->harness().model().assembler().alpha()));
  layers.pool_threads = pool_threads;
  layers.overhead_ratio =
      Ratio(Ratio(plain.answered, plain.seconds), traced.capacity_qps);
  EmitLayers(layers, report);
  return 0;
}

// ---------------------------------------------------------------------------
// whatif_sweep: day x context fan-out on a quiescent stack.
// ---------------------------------------------------------------------------

constexpr uint64_t kCtxSetEvent = 1;
constexpr uint64_t kCtxRainWindow = 2;
constexpr uint64_t kCtxHoliday = 3;
constexpr uint64_t kNumContexts = 4;  // base + the three above

struct WhatifParams {
  int warm_days = 4;
  /// More days than the feature cache holds, so a day comes round again
  /// only after its columns were evicted: each call starts cold.
  int sweep_days = 64;
  int train_epochs = 3;
};

class WhatifSweep {
 public:
  WhatifSweep(uint64_t seed, const WhatifParams& params) {
    const int days = params.warm_days + params.sweep_days + 1;
    harness_ = std::make_unique<serve::SimulationHarness>(
        HarnessFor(days, params.warm_days, params.train_epochs));
    while (harness_->IngestTick()) {
    }
    const long lo = harness_->warmup_end();
    serve::ServingSupervisor& sup = harness_->supervisor();
    APOTS_CHECK(
        sup.RegisterContext(kCtxSetEvent, data::ContextSpec().SetEvent()).ok());
    APOTS_CHECK(sup.RegisterContext(kCtxRainWindow,
                                    data::ContextSpec().RainDelta(
                                        10.0f, lo + 36, lo + 44))
                    .ok());
    APOTS_CHECK(
        sup.RegisterContext(kCtxHoliday, data::ContextSpec().DayType(1)).ok());
    for (int d = 0; d < params.sweep_days; ++d) days_.push_back(d);
    Rng rng(seed * 977 + 3);
    std::vector<size_t> order(days_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.Shuffle(&order);
    std::vector<int> shuffled;
    for (size_t i : order) shuffled.push_back(days_[i]);
    days_ = shuffled;
  }

  serve::SimulationHarness& harness() { return *harness_; }

  std::vector<core::WorkItem> NextDayItems() {
    const int day = days_[next_day_++ % days_.size()];
    const long first = harness_->warmup_end() + static_cast<long>(day) * 96;
    const long last =
        std::min(first + 96, harness_->last_servable_tick() + 1);
    std::vector<core::WorkItem> items;
    for (long anchor = first; anchor < last; ++anchor) {
      for (uint64_t ctx = 0; ctx < kNumContexts; ++ctx) {
        items.push_back({anchor, ctx});
      }
    }
    return items;
  }

  struct Phase {
    Slices qps;     ///< items per second of call time
    Slices p50_ms;  ///< per-call latency
    uint64_t calls = 0;
    uint64_t items = 0;
    uint64_t base_items = 0;
    double base_abs_err = 0.0;
    double busy_ms = 0.0;
    std::vector<std::pair<core::WorkItem, double>> samples;
    LayerMetrics layers;
  };

  Phase RunPhase(uint64_t seed, double seconds) {
    Phase phase;
    core::ApotsModel& model = harness_->model();
    data::FeatureCache* cache = model.inference_runtime().feature_cache();
    const auto cache0 = cache->stats();
    const int beta = model.assembler().beta();
    const int target = harness_->target_road();
    Rng rng(seed * 131 + 7);
    // Slices of about five seconds, a hundred calls each.
    const int slices = std::max(1, static_cast<int>(std::lround(seconds / 5)));
    std::vector<double> call_ms;
    double slice_items = 0.0;
    auto close_slice = [&] {
      if (call_ms.empty()) return;
      phase.qps.Add(Ratio(slice_items, Sum(call_ms) / 1e3), call_ms.size());
      phase.p50_ms.Add(Quantile(call_ms, 0.5), call_ms.size());
      call_ms.clear();
      slice_items = 0.0;
    };
    const auto start = Clock::now();
    const auto end = After(start, seconds);
    auto slice_end = After(start, seconds / slices);
    while (Clock::now() < end || phase.calls < 2) {
      if (Clock::now() >= slice_end) {
        close_slice();
        slice_end = After(slice_end, seconds / slices);
      }
      const std::vector<core::WorkItem> items = NextDayItems();
      const auto t0 = Clock::now();
      std::vector<double> kmh;
      {
        obs::TraceSpan span("bench.predict_items");
        kmh = model.PredictKmhItems(items);
      }
      const double ms = MsBetween(t0, Clock::now());
      call_ms.push_back(ms);
      slice_items += static_cast<double>(items.size());
      ++phase.calls;
      phase.busy_ms += ms;
      phase.items += items.size();
      for (size_t i = 0; i < items.size(); ++i) {
        if (items[i].context != 0) continue;
        ++phase.base_items;
        phase.base_abs_err +=
            std::fabs(kmh[i] - harness_->truth().Speed(
                                   target, items[i].anchor + beta));
      }
      for (int s = 0; s < 4; ++s) {
        const size_t i = static_cast<size_t>(rng.UniformInt(items.size()));
        phase.samples.push_back({items[i], kmh[i]});
      }
    }
    close_slice();
    const auto cache1 = cache->stats();
    phase.layers.cache_hit_ratio =
        Ratio(static_cast<double>(cache1.hits - cache0.hits),
              static_cast<double>((cache1.hits + cache1.misses) -
                                  (cache0.hits + cache0.misses)));
    phase.layers.cache_evictions =
        static_cast<double>(cache1.evictions - cache0.evictions);
    return phase;
  }

  /// Sampled items must match the single-item path bit for bit.
  void Verify(const Phase& phase, Report* report) {
    core::ApotsModel& model = harness_->model();
    for (const auto& [item, kmh] : phase.samples) {
      const double single = model.PredictKmhItems({item})[0];
      report->Check(std::memcmp(&single, &kmh, sizeof(double)) == 0,
                    "what-if item differs from the single-item path");
      if (std::memcmp(&single, &kmh, sizeof(double)) != 0) ++report->failed;
    }
    report->Check(model.inference_runtime().unknown_context_items() == 0,
                  "what-if sweep resolved unknown contexts");
  }

 private:
  std::unique_ptr<serve::SimulationHarness> harness_;
  std::vector<int> days_;
  size_t next_day_ = 0;
};

int RunWhatif(const Options& opt, size_t pool_threads, Report* report) {
  WhatifParams params;
  if (opt.smoke) {
    params.sweep_days = 4;
    params.train_epochs = 1;
  }
  std::unique_ptr<WhatifSweep> sweep;
  const SetupTime setup = MedianSetup(&sweep, [&] {
    return std::make_unique<WhatifSweep>(opt.seed, params);
  });

  if (!opt.trace) {
    WhatifSweep::Phase phase = sweep->RunPhase(opt.seed, opt.seconds);
    sweep->Verify(phase, report);
    report->attempted = phase.items;
    const uint64_t unknown =
        sweep->harness().model().inference_runtime().unknown_context_items();
    report->Add("setup_s", setup.median_s, "s", setup.count);
    report->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
    report->Add("throughput_per_s", phase.qps.Highest(), "1/s",
                phase.qps.min_samples);
    report->Add("latency_p50_ms", phase.p50_ms.Lowest(), "ms",
                phase.p50_ms.min_samples);
    report->Add("quality_mae_kmh",
                Ratio(phase.base_abs_err,
                      static_cast<double>(phase.base_items)),
                "km/h", phase.base_items);
    report->Add("ok_ratio",
                1.0 - Ratio(static_cast<double>(unknown),
                            static_cast<double>(phase.items)),
                "ratio", phase.items);
    return 0;
  }

  WhatifSweep::Phase plain = sweep->RunPhase(opt.seed, opt.seconds / 2);
  StartTrace();
  WhatifSweep::Phase traced = sweep->RunPhase(opt.seed + 1000, opt.seconds / 2);
  LayerMetrics& layers = traced.layers;
  std::vector<core::WorkItem> probe_items = sweep->NextDayItems();
  for (const auto& item : sweep->NextDayItems()) probe_items.push_back(item);
  layers.probe =
      ProbeInference(sweep->harness().model(), probe_items,
                     &sweep->harness().supervisor().context_table(), 64);
  layers.spans = StopTrace();
  sweep->Verify(plain, report);
  sweep->Verify(traced, report);
  report->attempted = plain.items + traced.items;
  core::ApotsModel& model = sweep->harness().model();
  layers.flops_per_item = HybridForwardFlops(
      model.config().predictor,
      static_cast<size_t>(model.assembler().NumRows()),
      static_cast<size_t>(model.assembler().alpha()));
  layers.pool_threads = pool_threads;
  layers.overhead_ratio =
      Ratio(static_cast<double>(plain.items) / plain.busy_ms,
            static_cast<double>(traced.items) / traced.busy_ms);
  EmitLayers(layers, report);
  return 0;
}

// ---------------------------------------------------------------------------
// train_adv: guarded adversarial training of H, then validation MAE.
// ---------------------------------------------------------------------------

struct TrainParams {
  int days = 30;
  size_t train_anchors = 256;
  size_t val_anchors = 384;
  int epochs = 2;
};

struct TrainData {
  traffic::TrafficDataset dataset;
  std::vector<long> train;
  std::vector<long> val;
};

std::vector<long> EvenlySpaced(const std::vector<long>& from, size_t count) {
  std::vector<long> out;
  const size_t n = std::min(count, from.size());
  for (size_t i = 0; i < n; ++i) out.push_back(from[i * from.size() / n]);
  return out;
}

std::vector<long> SeededSample(const std::vector<long>& from, size_t count,
                               uint64_t seed) {
  std::vector<size_t> order(from.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(seed * 40503 + 9);
  rng.Shuffle(&order);
  order.resize(std::min(count, order.size()));
  std::sort(order.begin(), order.end());
  std::vector<long> out;
  for (size_t i : order) out.push_back(from[i]);
  return out;
}

/// Training is a fixed fixture (data, anchors, initial weights), so its
/// MAE is one number per build; the seed draws the validation anchors.
std::unique_ptr<TrainData> MakeTrainData(uint64_t seed,
                                         const TrainParams& params) {
  traffic::DatasetSpec spec;
  spec.num_roads = 5;
  spec.num_days = params.days;
  spec.intervals_per_day = 96;
  spec.seed = kWorldSeed;
  spec.hyundai_calendar = false;
  auto data = std::make_unique<TrainData>(
      TrainData{traffic::GenerateDataset(spec), {}, {}});
  const data::SampleSplit split =
      data::MakeSplit(data->dataset, 12, 3, 0.2,
                      data::SplitStrategy::kBlockedByDay, kWorldSeed);
  data->train = EvenlySpaced(split.train, params.train_anchors);
  data->val = SeededSample(split.test, params.val_anchors, seed);
  return data;
}

core::ApotsConfig TrainConfigFor(const TrainParams& params) {
  core::ApotsConfig config;
  config.predictor =
      core::PredictorHparams::Scaled(core::PredictorType::kHybrid, 8);
  config.discriminator = core::DiscriminatorHparams::Scaled(2);
  config.features = data::FeatureConfig::Both(12, 3);
  config.features.num_adjacent = 2;
  config.training.adversarial = true;
  config.training.epochs = params.epochs;
  config.training.batch_size = 64;
  // One adversarial round per four MSE minibatches, generator steps from
  // the first round, so a short run exercises the discriminator path.
  config.training.adv_period = 4;
  config.training.adv_warmup_rounds = 0;
  config.training.guard.enabled = true;
  config.seed = kWorldSeed + 3;
  return config;
}

struct TrainPhase {
  std::vector<double> run_ms;
  std::vector<double> run_qps;  ///< samples per second of each run
  std::vector<double> val_mae;
  uint64_t samples = 0;
  int epochs = 0;
  int rollbacks = 0;
  double train_ms = 0.0;
  bool guard_ok = true;
  std::unique_ptr<core::ApotsModel> last_model;
};

TrainPhase RunTrainPhase(const TrainData& data, const TrainParams& params,
                         double seconds) {
  TrainPhase phase;
  const auto end = After(Clock::now(), seconds);
  while (Clock::now() < end || phase.run_ms.size() < 2) {
    auto model = std::make_unique<core::ApotsModel>(
        &data.dataset, TrainConfigFor(params));
    const auto t0 = Clock::now();
    const Result<core::TrainReport> trained = [&] {
      obs::TraceSpan span("bench.train_guarded");
      return model->TrainGuarded(data.train);
    }();
    const double ms = MsBetween(t0, Clock::now());
    if (!trained.ok()) {
      phase.guard_ok = false;
      break;
    }
    const uint64_t samples =
        data.train.size() *
        static_cast<uint64_t>(trained.value().epochs_completed);
    phase.run_ms.push_back(ms);
    phase.run_qps.push_back(static_cast<double>(samples) / (ms / 1e3));
    phase.train_ms += ms;
    phase.epochs += trained.value().epochs_completed;
    phase.rollbacks += trained.value().rollbacks;
    phase.samples += samples;
    const std::vector<double> pred = model->PredictKmh(data.val);
    const std::vector<double> truth = model->TrueKmh(data.val);
    double err = 0.0;
    for (size_t i = 0; i < pred.size(); ++i) {
      err += std::fabs(pred[i] - truth[i]);
    }
    phase.val_mae.push_back(err / static_cast<double>(pred.size()));
    phase.last_model = std::move(model);
  }
  return phase;
}

void CheckTrainPhase(const TrainPhase& phase, Report* report) {
  report->Check(phase.guard_ok, "TrainGuarded returned an error");
  for (double mae : phase.val_mae) {
    const bool same =
        std::memcmp(&mae, &phase.val_mae.front(), sizeof(double)) == 0;
    report->Check(same, "train_adv runs with one seed gave different MAE");
    if (!same) ++report->failed;
  }
}

int RunTrain(const Options& opt, size_t pool_threads, Report* report) {
  TrainParams params;
  if (opt.smoke) {
    params.days = 4;
    params.train_anchors = 64;
    params.val_anchors = 64;
    params.epochs = 1;
  }
  std::unique_ptr<TrainData> data;
  const SetupTime setup =
      MedianSetup(&data, [&] { return MakeTrainData(opt.seed, params); });

  if (!opt.trace) {
    TrainPhase phase = RunTrainPhase(*data, params, opt.seconds);
    CheckTrainPhase(phase, report);
    report->attempted = phase.samples;
    report->Add("setup_s", setup.median_s, "s", setup.count);
    report->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
    // A slice is one training run, identical work every time, so the
    // latency metric reads the fastest run.
    const Slices runs{phase.run_ms, 1};
    const Slices rates{phase.run_qps, 1};
    report->Add("throughput_per_s", rates.Highest(), "1/s", 1);
    report->Add("latency_p50_ms", runs.Lowest(), "ms", 1);
    report->Add("quality_mae_kmh",
                phase.val_mae.empty() ? 0.0 : phase.val_mae.front(), "km/h",
                data->val.size());
    report->Add("ok_ratio",
                Ratio(static_cast<double>(phase.epochs),
                      static_cast<double>(phase.epochs + phase.rollbacks)),
                "ratio", static_cast<size_t>(phase.epochs + phase.rollbacks));
    return 0;
  }

  TrainPhase plain = RunTrainPhase(*data, params, opt.seconds / 2);
  StartTrace();
  TrainPhase traced = RunTrainPhase(*data, params, opt.seconds / 2);
  // Probe the training path: uncached BatchMatrix assembly and the
  // caching (training) forward on the run's own minibatches.
  LayerMetrics layers;
  core::ApotsModel& model = *traced.last_model;
  for (size_t lo = 0; lo < data->train.size(); lo += 64) {
    const std::vector<long> batch(
        data->train.begin() + static_cast<long>(lo),
        data->train.begin() +
            static_cast<long>(std::min(data->train.size(), lo + 64)));
    const auto t0 = Clock::now();
    tensor::Tensor x;
    {
      obs::TraceSpan span("bench.assemble");
      x = model.assembler().BatchMatrix(batch);
    }
    const auto t1 = Clock::now();
    {
      obs::TraceSpan span("bench.forward");
      (void)model.predictor().Forward(x, /*training=*/true);
    }
    layers.probe.assemble_ms += MsBetween(t0, t1);
    layers.probe.forward_ms += MsBetween(t1, Clock::now());
    layers.probe.items += batch.size();
  }
  layers.spans = StopTrace();
  CheckTrainPhase(plain, report);
  CheckTrainPhase(traced, report);
  report->Check(plain.val_mae.front() == traced.val_mae.front(),
                "train_adv MAE changed between the untraced and traced runs");
  report->attempted = plain.samples + traced.samples;
  layers.flops_per_item = HybridForwardFlops(
      model.config().predictor,
      static_cast<size_t>(model.assembler().NumRows()),
      static_cast<size_t>(model.assembler().alpha()));
  layers.pool_threads = pool_threads;
  layers.rollbacks = traced.rollbacks;
  layers.overhead_ratio =
      Ratio(static_cast<double>(plain.samples) / plain.train_ms,
            static_cast<double>(traced.samples) / traced.train_ms);
  EmitLayers(layers, report);
  return 0;
}

// ---------------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------------

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      opt->workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      opt->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      opt->seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      opt->trace = std::string(argv[++i]) == "1";
    } else if (flag == "--smoke") {
      opt->smoke = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag %s\n", flag.c_str());
      return false;
    }
  }
  return opt->seconds > 0.0 && std::isfinite(opt->seconds);
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload live_stream|whatif_sweep|"
                 "train_adv --seed N --seconds S --trace 0|1 [--smoke]\n");
    return 2;
  }
  const bool live = opt.workload == "live_stream";
  if (!live && opt.workload != "whatif_sweep" &&
      opt.workload != "train_adv") {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  // Thread split. One core is left to the host: on a shared 4-vCPU virtual
  // machine, a pool over every core ran up to 15% slower in some runs than
  // in others, one core fewer kept runs within 4%. live_stream's
  // load generator gets a core of its own, and its pool is the serving
  // thread alone: frontend batches never span more than one inference
  // batch, so a wider pool would only fork tiny matmuls, and waking idle
  // cores for those made capacity vary threefold between runs. The pool's
  // calling thread is its worker 0.
  const size_t cpus = HostCpus();
  const size_t generator_threads = live ? 1 : 0;
  const size_t pool_threads = live ? 1 : std::max<size_t>(1, cpus - 1);
  if (generator_threads + pool_threads > cpus) {
    std::fprintf(stderr,
                 "refusing to run: %zu generator + %zu pool threads "
                 "oversubscribe %zu cpus\n",
                 generator_threads, pool_threads, cpus);
    return 3;
  }
  ResetGlobalPool(pool_threads);

  std::printf(
      "host {\"nproc\": %zu, \"isa\": \"%s\", \"vnni\": %s, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"kernel_mode\": "
      "\"%s\", \"pool_threads\": %zu, \"generator_threads\": %zu}\n",
      cpus, tensor::ActiveIsaLabel(), tensor::HasVnni() ? "true" : "false",
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      tensor::KernelModeName(tensor::GetKernelMode()), pool_threads,
      generator_threads);
  std::fflush(stdout);

  Report report;
  if (live) {
    RunLive(opt, pool_threads, &report);
  } else if (opt.workload == "whatif_sweep") {
    RunWhatif(opt, pool_threads, &report);
  } else {
    RunTrain(opt, pool_threads, &report);
  }

  for (const std::string& failure : report.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct = report.failures.empty();
  if (!correct && report.failed == 0) report.failed = 1;
  if (report.attempted == 0) report.attempted = 1;

  std::printf("%-48s %16s %-12s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : report.metrics) {
    std::printf("%-48s %16.6f %-12s %zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i > 0) std::printf(", ");
    PrintJsonString(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ", m.value);
    PrintJsonString(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}