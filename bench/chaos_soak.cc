// Chaos soak of the sharded serving plane (PR 9). Four arms, one
// machine-readable report (default bench_out/perf_chaos.json) that CI
// archives and gates on:
//   clean    2 shards x 2 replicas, clean feed, no chaos: every routed
//            response must ride the full tier and match the direct
//            InferenceRuntime::Predict path bit for bit (the router
//            round-robins replicas, so a sustained match also proves the
//            sibling replicas are bitwise interchangeable); both epoch
//            counters must stay zero
//   chaos    delivery-fault storm + seeded chaos scheduler (kills,
//            stalls, partitions, clock skews, checkpoint corruption)
//            with spare-last-healthy on; gates: availability AND
//            replica availability >= 0.999 (failover must reach a live
//            replica, not the ladder), zero stale-epoch full-tier
//            serves, at least one kill landed (ten at full size);
//            reports the failover latency percentiles (virtual time ->
//            bit-stable)
//   outage   scripted whole-shard outage: every replica of shard 0
//            killed at once; the router ladder must answer (availability
//            stays 1.0), the neighbor shard must *detect* the lagging
//            boundary epoch, and serving must return to the full tier on
//            a live replica after the restarts
//   corrupt  scripted corrupt-newest-checkpoint + kill + restart drill
//            mid-serve; recovery must fall back a generation and resume
//            full-tier serving
//
// Flags: --perf_json[=path] selects the output file; --quick shrinks the
// simulated stream for CI smoke runs.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "chaos/chaos.h"
#include "serve/sharded_service.h"

namespace {

using namespace apots;

serve::ShardedConfig BaseConfig(bool quick) {
  serve::ShardedConfig config;
  traffic::DatasetSpec spec;
  spec.num_roads = 8;  // 2 shards x 4 roads; targets hug the cut
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
  config.num_shards = 2;
  config.replicas_per_shard = 2;
  config.anchors_per_tick = 2;
  return config;
}

struct CleanResult {
  serve::ShardedReport report;
  uint64_t compared = 0;
  bool bitwise = true;
  bool all_full_tier = true;
  long ticks = 0;
};

// Arm 1: with faults and chaos off, every routed answer must be the full
// tier and bitwise identical to the direct model path of the shard's
// first live replica, no matter which replica the round-robin picked.
CleanResult RunClean(bool quick) {
  serve::ShardedService service(BaseConfig(quick));
  CleanResult result;
  while (service.RunTick()) {
    ++result.ticks;
    const std::vector<long>& anchors = service.last_anchors();
    for (int s = 0; s < service.num_shards(); ++s) {
      const std::vector<double> direct = service.PredictDirect(s, anchors);
      const auto& responses = service.last_responses(s);
      for (size_t i = 0; i < anchors.size(); ++i) {
        ++result.compared;
        if (responses[i].serve.tier != serve::ServeTier::kFull ||
            responses[i].replica < 0) {
          result.all_full_tier = false;
        }
        if (responses[i].serve.kmh != direct[i]) result.bitwise = false;
      }
    }
  }
  result.report = service.report();
  return result;
}

struct ChaosResult {
  serve::ShardedReport report;
  chaos::ChaosScheduler::Stats sched;
  chaos::ChaosDriver::Stats driver;
  long ticks = 0;
};

// Arm 2: delivery-fault storm plus the seeded chaos scheduler, with
// checkpoints on so corrupt events exercise the full fall-back drill.
ChaosResult RunChaosStorm(bool quick, const std::string& ckpt_root) {
  std::filesystem::remove_all(ckpt_root);
  serve::ShardedConfig config = BaseConfig(quick);
  config.feed = serve::FeedFaultSpec::Storm(99);
  config.serve.deadline_ms = 0.0;  // chaos clock jumps poison latency EMAs
  config.checkpoint_root = ckpt_root;
  config.serve.checkpoint_every = quick ? 16 : 64;
  config.serve.checkpoint_keep = 3;
  serve::ShardedService service(std::move(config));

  chaos::ChaosScheduler scheduler(chaos::ChaosSpec::Storm(2024),
                                  service.num_shards(),
                                  service.replicas_per_shard());
  chaos::ChaosDriver driver(&service, &scheduler);

  ChaosResult result;
  bool more = true;
  while (more) {
    driver.Step(service.next_tick());
    more = service.RunTick();
    ++result.ticks;
  }
  result.report = service.report();
  result.sched = scheduler.stats();
  result.driver = driver.stats();
  return result;
}

struct OutageResult {
  uint64_t ladder_answers = 0;
  uint64_t epoch_lag_serves = 0;
  double availability = 0.0;
  bool ladder_during_outage = false;
  bool recovered_full_tier = false;
  bool neighbor_stayed_replica = true;
};

// Arm 3: kill every replica of shard 0 at once. The ladder must answer
// for shard 0, shard 1 must keep serving from replicas while *detecting*
// the lagging boundary epoch, and a full-tier replica answer must come
// back after the restarts.
OutageResult RunOutage(bool quick) {
  serve::ShardedService service(BaseConfig(quick));
  const long before = quick ? 20 : 60;
  const long down = quick ? 10 : 30;
  const long after = quick ? 20 : 60;

  OutageResult result;
  for (long t = 0; t < before; ++t) {
    if (!service.RunTick()) return result;
  }
  for (int r = 0; r < service.replicas_per_shard(); ++r) {
    if (!service.KillReplica(0, r).ok()) return result;
  }
  result.ladder_during_outage = true;
  for (long t = 0; t < down; ++t) {
    if (!service.RunTick()) return result;
    for (const auto& resp : service.last_responses(0)) {
      if (resp.replica >= 0) result.ladder_during_outage = false;
    }
    for (const auto& resp : service.last_responses(1)) {
      if (resp.replica < 0) result.neighbor_stayed_replica = false;
    }
  }
  for (int r = 0; r < service.replicas_per_shard(); ++r) {
    if (!service.RestartReplica(0, r).ok()) return result;
  }
  for (long t = 0; t < after; ++t) {
    if (!service.RunTick()) break;
  }
  result.recovered_full_tier = true;
  for (const auto& resp : service.last_responses(0)) {
    if (resp.replica < 0 || resp.serve.tier != serve::ServeTier::kFull) {
      result.recovered_full_tier = false;
    }
  }
  const serve::ShardedReport report = service.report();
  result.ladder_answers = report.router.ladder_answers;
  result.epoch_lag_serves = report.exchange.epoch_lag_serves;
  result.availability = report.availability();
  return result;
}

struct CorruptResult {
  bool corruption_applied = false;
  bool restart_ok = false;
  bool resumed_full_tier = false;
};

// Arm 4: corrupt the newest checkpoint of one replica, kill it, restart
// it mid-serve. Recovery must fall back past the corrupt generation
// (RestartReplica would otherwise replay from the warmup boundary, which
// also must not crash) and the shard must return to full-tier serving.
CorruptResult RunCorruptDrill(bool quick, const std::string& ckpt_root) {
  std::filesystem::remove_all(ckpt_root);
  serve::ShardedConfig config = BaseConfig(quick);
  config.checkpoint_root = ckpt_root;
  config.serve.checkpoint_every = 8;
  config.serve.checkpoint_keep = 3;
  serve::ShardedService service(std::move(config));

  CorruptResult result;
  const long before = quick ? 24 : 80;
  for (long t = 0; t < before; ++t) {
    if (!service.RunTick()) return result;
  }
  const Status corrupted = service.CorruptNewestCheckpoint(0, 0);
  if (!corrupted.ok()) {
    std::fprintf(stderr, "corrupt drill: %s\n",
                 corrupted.ToString().c_str());
    return result;
  }
  result.corruption_applied = true;
  if (!service.KillReplica(0, 0).ok()) return result;
  if (!service.RestartReplica(0, 0).ok()) return result;
  result.restart_ok = service.ReplicaAlive(0, 0);
  result.resumed_full_tier = true;
  for (long t = 0; t < (quick ? 8 : 16); ++t) {
    if (!service.RunTick()) break;
    for (const auto& resp : service.last_responses(0)) {
      if (resp.replica < 0 || resp.serve.tier != serve::ServeTier::kFull) {
        result.resumed_full_tier = false;
      }
    }
  }
  return result;
}

int Run(const std::string& path, bool quick) {
  const CleanResult clean = RunClean(quick);
  std::fprintf(stderr,
               "clean: %llu anchors compared over %ld ticks, bitwise=%d "
               "full_tier=%d epoch_lag=%llu\n",
               static_cast<unsigned long long>(clean.compared), clean.ticks,
               clean.bitwise ? 1 : 0, clean.all_full_tier ? 1 : 0,
               static_cast<unsigned long long>(
                   clean.report.exchange.epoch_lag_serves));

  const ChaosResult chaos_arm =
      RunChaosStorm(quick, "bench_out/chaos_ckpt");
  const serve::ShardedReport& cr = chaos_arm.report;
  std::fprintf(
      stderr,
      "chaos: %llu requests over %ld ticks, availability %.5f "
      "(replica %.5f), kills=%llu restarts=%llu stalls=%llu "
      "partitions=%llu skews=%llu corruptions=%llu spared=%llu, "
      "failovers=%llu p99=%.2fms, stale_epoch=%llu epoch_lag=%llu\n",
      static_cast<unsigned long long>(cr.router.requests), chaos_arm.ticks,
      cr.availability(), cr.replica_availability(),
      static_cast<unsigned long long>(cr.kills),
      static_cast<unsigned long long>(cr.restarts),
      static_cast<unsigned long long>(cr.stalls),
      static_cast<unsigned long long>(cr.partitions),
      static_cast<unsigned long long>(cr.clock_skews),
      static_cast<unsigned long long>(cr.checkpoint_corruptions),
      static_cast<unsigned long long>(chaos_arm.sched.spared),
      static_cast<unsigned long long>(cr.router.failovers),
      cr.failover_p99_ms,
      static_cast<unsigned long long>(cr.exchange.stale_epoch_serves),
      static_cast<unsigned long long>(cr.exchange.epoch_lag_serves));

  const OutageResult outage = RunOutage(quick);
  std::fprintf(stderr,
               "outage: ladder_answers=%llu availability=%.5f "
               "epoch_lag=%llu ladder_during=%d neighbor_replica=%d "
               "recovered=%d\n",
               static_cast<unsigned long long>(outage.ladder_answers),
               outage.availability,
               static_cast<unsigned long long>(outage.epoch_lag_serves),
               outage.ladder_during_outage ? 1 : 0,
               outage.neighbor_stayed_replica ? 1 : 0,
               outage.recovered_full_tier ? 1 : 0);

  const CorruptResult corrupt =
      RunCorruptDrill(quick, "bench_out/chaos_ckpt_corrupt");
  std::fprintf(stderr, "corrupt: applied=%d restart_ok=%d resumed=%d\n",
               corrupt.corruption_applied ? 1 : 0,
               corrupt.restart_ok ? 1 : 0,
               corrupt.resumed_full_tier ? 1 : 0);

  bench::Report report("chaos_soak");
  report.Set("config.quick", quick)
      .Set("config.ticks", chaos_arm.ticks)
      .Set("config.shards", 2)
      .Set("config.replicas", 2)
      .Set("clean.anchors_compared", clean.compared)
      .Set("clean.bitwise_match", clean.bitwise)
      .Set("clean.all_full_tier", clean.all_full_tier)
      .Set("clean.availability", clean.report.availability())
      .Set("clean.epoch_lag_serves", clean.report.exchange.epoch_lag_serves)
      .Set("clean.stale_epoch_serves",
           clean.report.exchange.stale_epoch_serves)
      .Set("chaos.requests", cr.router.requests)
      .Set("chaos.availability", cr.availability())
      .Set("chaos.replica_availability", cr.replica_availability())
      .Set("chaos.failover_p50_ms", cr.failover_p50_ms)
      .Set("chaos.failover_p99_ms", cr.failover_p99_ms)
      .Set("chaos.failovers", cr.router.failovers)
      .Set("chaos.retries", cr.router.retries)
      .Set("chaos.ladder_answers", cr.router.ladder_answers)
      .Set("chaos.kills", cr.kills)
      .Set("chaos.restarts", cr.restarts)
      .Set("chaos.stalls", cr.stalls)
      .Set("chaos.partitions", cr.partitions)
      .Set("chaos.clock_skews", cr.clock_skews)
      .Set("chaos.checkpoint_corruptions", cr.checkpoint_corruptions)
      .Set("chaos.spared", chaos_arm.sched.spared)
      .Set("chaos.rejected_events", chaos_arm.driver.rejected)
      .Set("chaos.stale_epoch_serves", cr.exchange.stale_epoch_serves)
      .Set("chaos.epoch_lag_serves", cr.exchange.epoch_lag_serves)
      .Set("chaos.tier_full", cr.serve.tier_counts[0])
      .Set("chaos.tier_imputed", cr.serve.tier_counts[1])
      .Set("chaos.tier_historical", cr.serve.tier_counts[2])
      .Set("chaos.tier_last_known_good", cr.serve.tier_counts[3])
      .Set("outage.ladder_answers", outage.ladder_answers)
      .Set("outage.availability", outage.availability)
      .Set("outage.epoch_lag_serves", outage.epoch_lag_serves)
      .Set("outage.ladder_during_outage", outage.ladder_during_outage)
      .Set("outage.neighbor_stayed_replica", outage.neighbor_stayed_replica)
      .Set("outage.recovered_full_tier", outage.recovered_full_tier)
      .Set("corrupt.corruption_applied", corrupt.corruption_applied)
      .Set("corrupt.restart_ok", corrupt.restart_ok)
      .Set("corrupt.resumed_full_tier", corrupt.resumed_full_tier);

  report.ExpectTrue("clean.bitwise_match");
  report.ExpectTrue("clean.all_full_tier");
  report.ExpectAtMost("clean.epoch_lag_serves", 0);
  report.ExpectAtMost("clean.stale_epoch_serves", 0);
  // Failover must reach a live replica, not the historical ladder, and
  // the storm must actually storm: the full-size run lands ~100 kills.
  report.ExpectAtLeast("chaos.availability", 0.999);
  report.ExpectAtLeast("chaos.replica_availability", 0.999);
  report.ExpectAtMost("chaos.stale_epoch_serves", 0);
  report.ExpectAtLeast("chaos.kills", quick ? 1 : 10);
  report.ExpectAtLeast("outage.ladder_answers", 1);
  report.ExpectAtLeast("outage.availability", 1.0);
  report.ExpectAtLeast("outage.epoch_lag_serves", 1);
  report.ExpectTrue("outage.ladder_during_outage");
  report.ExpectTrue("outage.neighbor_stayed_replica");
  report.ExpectTrue("outage.recovered_full_tier");
  report.ExpectTrue("corrupt.corruption_applied");
  report.ExpectTrue("corrupt.restart_ok");
  report.ExpectTrue("corrupt.resumed_full_tier");
  return report.Write(path);
}

}  // namespace

int main(int argc, char** argv) {
  return apots::bench::PerfMain(argc, argv, "bench_out/perf_chaos.json", Run);
}
