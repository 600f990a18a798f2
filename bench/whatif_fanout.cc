// Bench for the counterfactual what-if query engine (PR 10). Drives a
// fully-ingested serving stack with registered counterfactual contexts
// and reports one machine-readable JSON (default
// bench_out/perf_whatif.json) that CI archives and gates on:
//   base_context  mixed context-0 / counterfactual traffic through the
//                 front door, manual pump so batches deterministically
//                 interleave contexts: every context-0 answer must be
//                 bitwise identical to InferenceRuntime::Predict even
//                 while counterfactual items share its batches — the
//                 what-if wiring must cost live serving nothing
//   fanout        one heterogeneous batched PredictKmhItems call over
//                 anchors x contexts vs the same items as naive
//                 one-query-at-a-time calls: fan-out speedup (gated
//                 >= 1.5x) and bitwise equality of the two paths
//   cache         cold-cache sweep with interleaved contexts: hit rate
//                 of the context-keyed FeatureCache (gated by floor).
//                 Columns untouched by a context's perturbations are
//                 keyed context 0 and shared with base, so the rate
//                 stays high even with counterfactuals in every batch
//
// Flags: --perf_json[=path] selects the output file; --quick shrinks the
// workload for CI smoke runs.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "data/context.h"
#include "serve/frontend.h"
#include "serve/harness.h"

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
  config.train_epochs = 0;  // fan-out mechanics do not need a trained model
  config.model_seed = 7;
  return config;
}

std::unique_ptr<serve::SimulationHarness> BuildIngestedHarness(
    serve::HarnessConfig config) {
  auto harness =
      std::make_unique<serve::SimulationHarness>(std::move(config));
  while (harness->IngestTick()) {
  }
  return harness;
}

void AnchorWindow(const serve::SimulationHarness& harness, long* lo,
                  long* span) {
  *lo = harness.warmup_end();
  *span = harness.last_servable_tick() - *lo + 1;
}

/// The bench's counterfactual registry: one context that touches every
/// feature column, one that touches a narrow interval window, and one
/// that touches none (day-type overrides edit only the anchor-keyed
/// broadcast rows) — the three cache-sharing regimes.
constexpr uint64_t kCtxSetEvent = 1;
constexpr uint64_t kCtxRainWindow = 2;
constexpr uint64_t kCtxHoliday = 3;
constexpr int kNumContexts = 4;  // base + the three above

bool RegisterContexts(serve::ServingSupervisor* supervisor, long lo) {
  const Status s1 = supervisor->RegisterContext(
      kCtxSetEvent, data::ContextSpec().SetEvent());
  const Status s2 = supervisor->RegisterContext(
      kCtxRainWindow, data::ContextSpec().RainDelta(10.0f, lo, lo + 8));
  const Status s3 = supervisor->RegisterContext(
      kCtxHoliday, data::ContextSpec().DayType(1));
  if (!s1.ok() || !s2.ok() || !s3.ok()) {
    std::fprintf(stderr, "context registration failed: %s / %s / %s\n",
                 s1.ToString().c_str(), s2.ToString().c_str(),
                 s3.ToString().c_str());
    return false;
  }
  return true;
}

/// Arm 1: mixed-context traffic through the front door, manual pump so
/// every drain cycle's supervisor batch deterministically interleaves
/// base and counterfactual items. Context-0 answers must be bitwise
/// identical to the direct runtime path — `!=` on doubles, no tolerance.
struct BaseContextResult {
  uint64_t compared = 0;
  uint64_t counterfactual = 0;
  bool bitwise_match = false;
  bool counterfactual_served = false;
};

BaseContextResult RunBaseContext(serve::SimulationHarness* harness,
                                 long lo, long span) {
  serve::FrontendConfig fc;
  fc.queue_capacity = 1024;
  fc.max_batch = 256;
  fc.background = false;  // the bench thread is the consumer
  serve::Frontend frontend(&harness->supervisor(), fc);

  const long anchors = std::min<long>(span, 48);
  std::vector<std::shared_ptr<serve::PendingResponse>> handles;
  for (long i = 0; i < anchors; ++i) {
    for (uint64_t context = 0; context < kNumContexts; ++context) {
      serve::FrontendRequest request;
      request.anchor = lo + i;
      request.context = context;
      handles.push_back(frontend.SubmitAsync(request));
      // Pump mid-stream so cycles drain genuinely mixed batches rather
      // than one tidy context-sorted burst.
      if (handles.size() % 192 == 0) {
        while (frontend.RunCycle() > 0) {
        }
      }
    }
  }
  while (frontend.RunCycle() > 0) {
  }

  std::vector<long> distinct;
  for (long i = 0; i < anchors; ++i) distinct.push_back(lo + i);
  const std::vector<double> direct = harness->DirectPredictKmh(distinct);
  std::map<long, double> expected;
  for (size_t i = 0; i < distinct.size(); ++i) {
    expected[distinct[i]] = direct[i];
  }

  BaseContextResult result;
  result.bitwise_match = true;
  result.counterfactual_served = true;
  for (const auto& handle : handles) {
    const serve::FrontendResponse& response = handle->Wait();
    if (handle->request().context == 0) {
      ++result.compared;
      if (response.serve.tier != serve::ServeTier::kFull ||
          response.serve.kmh != expected[handle->request().anchor]) {
        result.bitwise_match = false;
      }
    } else {
      ++result.counterfactual;
      if (response.serve.tier != serve::ServeTier::kFull) {
        result.counterfactual_served = false;
      }
    }
  }
  return result;
}

/// Arm 2: one heterogeneous batched call vs the same (anchor, context)
/// items issued as K naive single-item queries — the API the fan-out
/// replaces. Both run against a warm cache, so the speedup isolates
/// batch-grid utilization, not cache temperature. The two paths are timed
/// in interleaved pairs (bench::TimePairs); the speedup is the median
/// per-pair ratio.
struct FanoutResult {
  uint64_t items = 0;
  double batched_ms = 0.0;
  double naive_ms = 0.0;
  double batched_items_per_sec = 0.0;
  double speedup = 0.0;
  bool bitwise_match = false;
};

FanoutResult RunFanout(serve::SimulationHarness* harness, long lo,
                       long span, bool quick) {
  const long anchors = std::min<long>(span, quick ? 16 : 64);
  std::vector<core::WorkItem> items;
  for (long i = 0; i < anchors; ++i) {
    for (uint64_t context = 0; context < kNumContexts; ++context) {
      items.push_back({lo + i, context});
    }
  }
  core::ApotsModel& model = harness->model();

  // Warm the feature cache and the allocator so neither path pays
  // first-touch costs inside the timed region.
  (void)model.PredictKmhItems(items);

  const int iters = quick ? 3 : 10;
  const size_t pairs = 31;
  std::vector<double> batched;
  std::vector<double> naive(items.size());
  const bench::PairedTimes times = bench::TimePairs(
      pairs,
      [&] {
        for (int it = 0; it < iters; ++it) {
          batched = model.PredictKmhItems(items);
        }
      },
      [&] {
        for (int it = 0; it < iters; ++it) {
          for (size_t i = 0; i < items.size(); ++i) {
            naive[i] = model.PredictKmhItems({items[i]})[0];
          }
        }
      });

  FanoutResult result;
  result.items = items.size();
  result.batched_ms = times.a_seconds * 1e3 / iters;
  result.naive_ms = times.b_seconds * 1e3 / iters;
  result.speedup = times.ratio;
  result.batched_items_per_sec =
      static_cast<double>(items.size()) / (result.batched_ms / 1e3);
  // A context's prediction must not depend on what shared its batch:
  // the batched fan-out and the one-at-a-time path agree bitwise.
  result.bitwise_match =
      std::memcmp(batched.data(), naive.data(),
                  batched.size() * sizeof(double)) == 0;
  return result;
}

/// Arm 3: cold-cache sweep with every batch interleaving all contexts.
/// Deterministic counting, not timing: the hit rate measures how much of
/// the counterfactual working set the context-keyed cache shares with
/// base assembly (untouched columns are keyed context 0).
struct CacheResult {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  double hit_rate = 0.0;
};

CacheResult RunCache(serve::SimulationHarness* harness, long lo,
                     long span, bool quick) {
  core::ApotsModel& model = harness->model();
  data::FeatureCache* cache = model.inference_runtime().feature_cache();
  cache->Invalidate();
  const data::FeatureCache::Stats before = cache->stats();

  const long anchors = std::min<long>(span, quick ? 32 : 128);
  for (long i = 0; i < anchors; ++i) {
    std::vector<core::WorkItem> batch;
    for (uint64_t context = 0; context < kNumContexts; ++context) {
      batch.push_back({lo + i, context});
    }
    (void)model.PredictKmhItems(batch);
  }

  const data::FeatureCache::Stats after = cache->stats();
  CacheResult result;
  result.hits = after.hits - before.hits;
  result.misses = after.misses - before.misses;
  result.lookups = result.hits + result.misses;
  result.hit_rate =
      result.lookups == 0
          ? 0.0
          : static_cast<double>(result.hits) /
                static_cast<double>(result.lookups);
  return result;
}

int Run(const std::string& path, bool quick) {
  auto harness = BuildIngestedHarness(BaseConfig(quick));
  long lo = 0;
  long span = 0;
  AnchorWindow(*harness, &lo, &span);
  std::fprintf(stderr, "anchor window: [%ld, %ld)\n", lo, lo + span);
  if (!RegisterContexts(&harness->supervisor(), lo)) return 1;

  const BaseContextResult base = RunBaseContext(harness.get(), lo, span);
  std::fprintf(stderr,
               "base_context: %llu base answers compared, %llu "
               "counterfactual, bitwise=%d counterfactual_served=%d\n",
               static_cast<unsigned long long>(base.compared),
               static_cast<unsigned long long>(base.counterfactual),
               base.bitwise_match ? 1 : 0,
               base.counterfactual_served ? 1 : 0);

  const FanoutResult fanout = RunFanout(harness.get(), lo, span, quick);
  std::fprintf(stderr,
               "fanout: %llu items, batched %.3fms vs naive %.3fms -> "
               "%.2fx speedup (%.0f items/s), bitwise=%d\n",
               static_cast<unsigned long long>(fanout.items),
               fanout.batched_ms, fanout.naive_ms, fanout.speedup,
               fanout.batched_items_per_sec, fanout.bitwise_match ? 1 : 0);

  const CacheResult cache = RunCache(harness.get(), lo, span, quick);
  std::fprintf(stderr,
               "cache: %llu lookups, %llu hits / %llu misses -> "
               "%.3f hit rate\n",
               static_cast<unsigned long long>(cache.lookups),
               static_cast<unsigned long long>(cache.hits),
               static_cast<unsigned long long>(cache.misses),
               cache.hit_rate);

  const uint64_t unknown =
      harness->model().inference_runtime().unknown_context_items();

  bench::Report report("whatif_fanout");
  report.Set("config.quick", quick)
      .Set("config.contexts", kNumContexts)
      .Set("base_context.compared", base.compared)
      .Set("base_context.counterfactual", base.counterfactual)
      .Set("base_context.bitwise_match", base.bitwise_match)
      .Set("base_context.counterfactual_served", base.counterfactual_served)
      .Set("fanout.items", fanout.items)
      .Set("fanout.batched_ms", fanout.batched_ms)
      .Set("fanout.naive_ms", fanout.naive_ms)
      .Set("fanout.batched_items_per_sec", fanout.batched_items_per_sec)
      .Set("fanout.speedup", fanout.speedup)
      .Set("fanout.bitwise_match", fanout.bitwise_match)
      .Set("cache.lookups", cache.lookups)
      .Set("cache.hits", cache.hits)
      .Set("cache.misses", cache.misses)
      .Set("cache.hit_rate", cache.hit_rate)
      .Set("unknown_context_items", unknown);

  // Context-0 answers through a frontend carrying counterfactual traffic
  // stay bitwise identical to the direct model path: what-if wiring is
  // free for live serving.
  report.ExpectTrue("base_context.bitwise_match");
  report.ExpectTrue("base_context.counterfactual_served");
  report.ExpectTrue("fanout.bitwise_match");
  report.ExpectAtLeast("fanout.speedup", 1.5);
  // Context-keyed caching keeps base and counterfactual streams sharing
  // untouched columns.
  report.ExpectAtLeast("cache.hit_rate", 0.85);
  report.ExpectAtMost("unknown_context_items", 0);
  return report.Write(path);
}

}  // namespace

int main(int argc, char** argv) {
  return apots::bench::PerfMain(argc, argv, "bench_out/perf_whatif.json", Run);
}
