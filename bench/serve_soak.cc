// Fault-storm soak of the online serving stack (PR 4). Four arms, one
// machine-readable report (default bench_out/perf_serve.json) that CI
// archives and gates on:
//   storm           full delivery-fault storm (delays, duplicates, drops,
//                   outages, torn ticks) end to end; gates: availability
//                   >= 0.999, deadline-miss rate <= 0.05
//   clean_bitwise   faults disabled; every supervisor response must be
//                   bitwise identical to InferenceRuntime::Predict via
//                   the model facade
//   kill_recover    checkpoint mid-storm, kill the stack, cold-restart
//                   with different init weights, recover; parameters must
//                   match the pre-kill snapshot bit for bit and the
//                   watermark must be consistent
//   corrupt_fallback flip one byte in the newest checkpoint generation;
//                   recovery must fall back to the previous generation,
//                   not crash
//
// Flags: --perf_json[=path] selects the output file; --quick shrinks the
// simulated stream for CI smoke runs.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "serve/harness.h"
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
  config.train_epochs = 0;  // serving mechanics do not need a trained model
  config.model_seed = 7;
  config.anchors_per_tick = 4;
  return config;
}

struct SoakResult {
  serve::ServeReport report;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  long ticks = 0;
};

SoakResult RunStream(serve::SimulationHarness* harness) {
  SoakResult result;
  // Shared percentile definition (obs::Histogram) instead of a local
  // sort-and-index; the histogram also shows up in --metrics-json dumps.
  obs::Histogram& tick_ms = obs::MetricsRegistry::Default().GetHistogram(
      "bench.serve_soak.tick_ms");
  tick_ms.Reset();
  bool more = true;
  while (more) {
    Stopwatch watch;
    more = harness->RunTick();
    tick_ms.Record(watch.ElapsedMillis());
    ++result.ticks;
  }
  result.report = harness->report();
  result.p50_ms = tick_ms.Percentile(0.50);
  result.p99_ms = tick_ms.Percentile(0.99);
  return result;
}

// Arm 2: with faults disabled every anchor must stay on the full tier and
// match the direct runtime path bit for bit, warm or cold cache.
bool RunCleanBitwise(bool quick, uint64_t* compared) {
  serve::HarnessConfig config = BaseConfig(quick);
  config.feed = serve::FeedFaultSpec::Clean();
  serve::SimulationHarness harness(std::move(config));
  bool all_match = true;
  bool more = true;
  while (more) {
    more = harness.RunTick();
    const auto& anchors = harness.last_anchors();
    const auto& responses = harness.last_responses();
    const std::vector<double> direct = harness.DirectPredictKmh(anchors);
    for (size_t i = 0; i < anchors.size(); ++i) {
      ++*compared;
      if (responses[i].tier != serve::ServeTier::kFull ||
          responses[i].kmh != direct[i]) {
        all_match = false;
      }
    }
  }
  return all_match;
}

struct RecoverResult {
  bool params_bitwise = false;
  bool watermark_consistent = false;
  bool recovered_ok = false;
  uint64_t generation = 0;
};

// Arm 3: checkpoint under storm, kill, cold-restart with different init
// weights, recover, compare.
RecoverResult RunKillRecover(bool quick, const std::string& dir) {
  std::filesystem::remove_all(dir);
  serve::HarnessConfig config = BaseConfig(quick);
  config.feed = serve::FeedFaultSpec::Storm(17);
  config.serve.checkpoint_dir = dir;
  config.serve.checkpoint_every = quick ? 16 : 64;
  config.serve.checkpoint_keep = 3;
  serve::SimulationHarness harness(std::move(config));

  const long kill_after = quick ? 40 : 160;
  for (long tick = 0; tick < kill_after; ++tick) {
    if (!harness.RunTick()) break;
  }
  // Align the durable state with the in-memory state we snapshot: no
  // training happens while serving, so weights cannot drift afterwards.
  const Status ckpt = harness.supervisor().CheckpointNow();
  if (!ckpt.ok()) {
    std::fprintf(stderr, "checkpoint failed: %s\n", ckpt.ToString().c_str());
    return {};
  }
  const auto before_params = harness.ParamSnapshot();
  const long before_watermark = harness.ingestor().watermark();

  RecoverResult result;
  auto recovered = harness.KillAndRecover(/*new_seed=*/999);
  if (!recovered.ok()) {
    std::fprintf(stderr, "recover failed: %s\n",
                 recovered.status().ToString().c_str());
    return {};
  }
  result.recovered_ok = true;
  result.generation = recovered.value().generation;
  result.params_bitwise = harness.ParamSnapshot() == before_params;
  result.watermark_consistent =
      harness.ingestor().watermark() == before_watermark;

  // The recovered stack must keep serving.
  for (int tick = 0; tick < 8; ++tick) {
    if (!harness.RunTick()) break;
  }
  return result;
}

// Arm 4: corrupt the newest generation; recovery must fall back.
bool RunCorruptFallback(bool quick, const std::string& dir,
                        uint64_t* fell_back_to) {
  std::filesystem::remove_all(dir);
  serve::HarnessConfig config = BaseConfig(quick);
  config.feed = serve::FeedFaultSpec::Storm(23);
  config.serve.checkpoint_dir = dir;
  serve::SimulationHarness harness(std::move(config));

  const long ticks = quick ? 24 : 96;
  for (long tick = 0; tick < ticks / 2; ++tick) harness.RunTick();
  if (!harness.supervisor().CheckpointNow().ok()) return false;
  for (long tick = 0; tick < ticks / 2; ++tick) harness.RunTick();
  if (!harness.supervisor().CheckpointNow().ok()) return false;

  auto* store = harness.supervisor().checkpoint_store();
  const uint64_t newest = store->LatestGeneration();
  const std::string victim = store->GenerationPath(newest);
  {
    // Flip one byte in the middle of the newest generation.
    std::fstream file(victim,
                      std::ios::in | std::ios::out | std::ios::binary);
    if (!file) return false;
    file.seekg(0, std::ios::end);
    const std::streamoff size = file.tellg();
    file.seekp(size / 2);
    char byte = 0;
    file.seekg(size / 2);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    file.seekp(size / 2);
    file.write(&byte, 1);
  }

  auto recovered = harness.KillAndRecover(/*new_seed=*/1234);
  if (!recovered.ok()) {
    std::fprintf(stderr, "corrupt-fallback recover failed: %s\n",
                 recovered.status().ToString().c_str());
    return false;
  }
  *fell_back_to = recovered.value().generation;
  return recovered.value().fell_back() &&
         recovered.value().generation < newest;
}

int Run(const std::string& path, bool quick) {
  // Arm 1: the storm.
  serve::HarnessConfig storm_config = BaseConfig(quick);
  storm_config.feed = serve::FeedFaultSpec::Storm(99);
  storm_config.serve.deadline_ms = 250.0;
  serve::SimulationHarness storm_harness(std::move(storm_config));
  const SoakResult storm = RunStream(&storm_harness);
  const serve::ServeReport& serve_report = storm.report;
  const double deadline_miss_rate =
      storm.ticks == 0 ? 0.0
                       : static_cast<double>(serve_report.deadline_misses) /
                             static_cast<double>(storm.ticks);
  std::fprintf(
      stderr,
      "storm: %llu requests over %ld ticks, availability %.5f, tiers "
      "[%llu %llu %llu %llu], p99 %.2fms\n",
      static_cast<unsigned long long>(serve_report.requests), storm.ticks,
      serve_report.availability(),
      static_cast<unsigned long long>(serve_report.tier_counts[0]),
      static_cast<unsigned long long>(serve_report.tier_counts[1]),
      static_cast<unsigned long long>(serve_report.tier_counts[2]),
      static_cast<unsigned long long>(serve_report.tier_counts[3]),
      storm.p99_ms);

  // Arm 2.
  uint64_t compared = 0;
  const bool bitwise_clean = RunCleanBitwise(quick, &compared);
  std::fprintf(stderr, "clean_bitwise: %llu anchors compared, match=%d\n",
               static_cast<unsigned long long>(compared),
               bitwise_clean ? 1 : 0);

  // Arms 3 + 4.
  const RecoverResult recover =
      RunKillRecover(quick, "bench_out/soak_ckpt");
  std::fprintf(stderr,
               "kill_recover: ok=%d params_bitwise=%d watermark=%d "
               "(generation %llu)\n",
               recover.recovered_ok ? 1 : 0, recover.params_bitwise ? 1 : 0,
               recover.watermark_consistent ? 1 : 0,
               static_cast<unsigned long long>(recover.generation));
  uint64_t fell_back_to = 0;
  const bool corrupt_ok =
      RunCorruptFallback(quick, "bench_out/soak_ckpt_corrupt",
                         &fell_back_to);
  std::fprintf(stderr, "corrupt_fallback: ok=%d (restored generation %llu)\n",
               corrupt_ok ? 1 : 0,
               static_cast<unsigned long long>(fell_back_to));

  bench::Report report("serve_soak");
  report.Set("config.quick", quick)
      .Set("config.ticks", storm.ticks)
      .Set("storm.requests", serve_report.requests)
      .Set("storm.availability", serve_report.availability())
      .Set("storm.tier_full", serve_report.tier_counts[0])
      .Set("storm.tier_imputed", serve_report.tier_counts[1])
      .Set("storm.tier_historical", serve_report.tier_counts[2])
      .Set("storm.tier_last_known_good", serve_report.tier_counts[3])
      .Set("storm.failures", serve_report.failures)
      .Set("storm.deadline_miss_rate", deadline_miss_rate)
      .Set("storm.max_staleness", serve_report.max_staleness)
      .Set("storm.p50_tick_ms", storm.p50_ms)
      .Set("storm.p99_tick_ms", storm.p99_ms)
      .Set("bitwise_match_clean", bitwise_clean)
      .Set("recover_ok", recover.recovered_ok)
      .Set("recover_params_bitwise", recover.params_bitwise)
      .Set("recover_watermark_match", recover.watermark_consistent)
      .Set("corrupt_fallback_ok", corrupt_ok);

  // Headline SLO: >= 99.9% of requests served by some tier under the full
  // delivery-fault storm, with a bounded share of ticks over deadline.
  report.ExpectAtLeast("storm.availability", 0.999);
  report.ExpectAtMost("storm.deadline_miss_rate", 0.05);
  report.ExpectTrue("bitwise_match_clean");
  report.ExpectTrue("recover_ok");
  report.ExpectTrue("recover_params_bitwise");
  report.ExpectTrue("recover_watermark_match");
  report.ExpectTrue("corrupt_fallback_ok");
  return report.Write(path);
}

}  // namespace

int main(int argc, char** argv) {
  return apots::bench::PerfMain(argc, argv, "bench_out/perf_serve.json", Run);
}
