#include "serve/sharded_service.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace apots::serve {

using apots::core::ApotsConfig;
using apots::core::ApotsModel;
using apots::core::PredictorHparams;
using apots::data::FeatureConfig;
using apots::traffic::GenerateDataset;
using apots::traffic::Partition;
using apots::traffic::RoadGraph;

namespace {

/// Router-plane instruments; per-shard served counters live on the Shard.
struct ShardedMetrics {
  obs::Counter& requests;
  obs::Counter& replica_served;
  obs::Counter& ladder_answers;
  obs::Counter& failovers;
  obs::Counter& retries;
  obs::Counter& epoch_lag_serves;
  obs::Counter& stale_epoch_serves;
  obs::Histogram& failover_ms;
  static ShardedMetrics& Get() {
    auto& registry = obs::MetricsRegistry::Default();
    static ShardedMetrics* metrics = new ShardedMetrics{
        registry.GetCounter("sharded.requests"),
        registry.GetCounter("sharded.replica_served"),
        registry.GetCounter("sharded.ladder_answers"),
        registry.GetCounter("sharded.failovers"),
        registry.GetCounter("sharded.retries"),
        registry.GetCounter("sharded.epoch_lag_serves"),
        registry.GetCounter("sharded.stale_epoch_serves"),
        registry.GetHistogram("sharded.failover_ms"),
    };
    return *metrics;
  }
};

/// Nearest-rank percentile over a sorted sample (deterministic; no
/// interpolation so the virtual-time latencies stay bit-stable).
double SortedPercentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  size_t idx = static_cast<size_t>(pos + 0.5);
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

}  // namespace

ShardedService::ShardedService(ShardedConfig config)
    : config_(std::move(config)),
      truth_(GenerateDataset(config_.spec)),
      graph_(RoadGraph::Corridor(truth_.num_roads())),
      partition_(
          std::move(Partition::Contiguous(graph_, config_.num_shards))
              .value()) {
  APOTS_CHECK_GE(config_.num_shards, 1);
  APOTS_CHECK_GE(config_.replicas_per_shard, 1);
  const int roads = truth_.num_roads();
  const long intervals = truth_.num_intervals();

  warm_end_ = static_cast<long>(static_cast<double>(intervals) *
                                config_.warmup_fraction);
  warm_end_ = std::max<long>(warm_end_, config_.alpha + config_.beta + 1);
  APOTS_CHECK(warm_end_ < intervals);
  if (config_.exchange_depth < 1) config_.exchange_depth = 1;

  // Shard targets hug the cuts (last owned road, or the first for the
  // final shard) so feature windows genuinely span shards and the
  // boundary exchange carries live traffic; a single shard keeps the
  // classic middle-road target.
  shards_.resize(static_cast<size_t>(config_.num_shards));
  for (int s = 0; s < config_.num_shards; ++s) {
    const auto& owned = partition_.roads(s);
    APOTS_CHECK(!owned.empty());
    shards_[static_cast<size_t>(s)].target_road =
        config_.num_shards == 1
            ? roads / 2
            : (s + 1 < config_.num_shards ? owned.back() : owned.front());
  }

  // Feature half-width: widest m <= 2 every shard target can afford.
  if (config_.num_adjacent >= 0) {
    num_adjacent_ = config_.num_adjacent;
  } else {
    num_adjacent_ = 2;
    for (const Shard& sh : shards_) {
      num_adjacent_ = std::min(
          {num_adjacent_, sh.target_road, roads - 1 - sh.target_road});
    }
  }
  APOTS_CHECK_GE(num_adjacent_, 0);

  // Window / halo / publish sets from the graph partition.
  std::vector<std::set<int>> publish_sets(
      static_cast<size_t>(config_.num_shards));
  for (int s = 0; s < config_.num_shards; ++s) {
    Shard& sh = shards_[static_cast<size_t>(s)];
    sh.window_roads = graph_.WithinHops(sh.target_road, num_adjacent_);
    std::set<int> spanning;
    for (int road : sh.window_roads) {
      const int owner = partition_.shard_of(road);
      if (owner == s) continue;
      sh.halo_roads.push_back(road);
      spanning.insert(owner);
      publish_sets[static_cast<size_t>(owner)].insert(road);
    }
    sh.spanning_shards.assign(spanning.begin(), spanning.end());
  }
  for (int s = 0; s < config_.num_shards; ++s) {
    shards_[static_cast<size_t>(s)].publish_roads.assign(
        publish_sets[static_cast<size_t>(s)].begin(),
        publish_sets[static_cast<size_t>(s)].end());
  }

  // Per-road time-of-day profiles on warmup ground truth: they back the
  // streaming imputer, the degraded tiers, and the router's ladder.
  std::vector<long> warmup(static_cast<size_t>(warm_end_));
  for (long t = 0; t < warm_end_; ++t) warmup[static_cast<size_t>(t)] = t;
  profiles_.resize(static_cast<size_t>(roads));
  for (int road = 0; road < roads; ++road) {
    const Status fitted =
        profiles_[static_cast<size_t>(road)].Fit(truth_, road, warmup);
    APOTS_CHECK(fitted.ok());
  }

  bus_.resize(static_cast<size_t>(config_.num_shards));
  last_responses_.resize(static_cast<size_t>(config_.num_shards));
  for (int s = 0; s < config_.num_shards; ++s) {
    Shard& sh = shards_[static_cast<size_t>(s)];
    for (int r = 0; r < config_.replicas_per_shard; ++r) {
      sh.replicas.push_back(std::make_unique<Replica>());
      Replica& rep = *sh.replicas.back();
      if (!config_.checkpoint_root.empty()) {
        rep.checkpoint_dir = apots::StrFormat(
            "%s/shard%d_replica%d", config_.checkpoint_root.c_str(), s, r);
      }
      BuildReplica(s, r);
    }
  }
  next_tick_ = warm_end_;
}

ShardedService::~ShardedService() = default;

long ShardedService::last_servable_tick() const {
  return truth_.num_intervals() - config_.beta - 1;
}

int ShardedService::target_road(int shard) const {
  APOTS_CHECK_GE(shard, 0);
  APOTS_CHECK_LT(shard, config_.num_shards);
  return shards_[static_cast<size_t>(shard)].target_road;
}

const std::vector<ShardedResponse>& ShardedService::last_responses(
    int shard) const {
  APOTS_CHECK_GE(shard, 0);
  APOTS_CHECK_LT(shard, config_.num_shards);
  return last_responses_[static_cast<size_t>(shard)];
}

long ShardedService::applied_epoch(int shard, int replica,
                                   int source_shard) const {
  const Replica& rep =
      *shards_[static_cast<size_t>(shard)].replicas[static_cast<size_t>(
          replica)];
  const auto it = rep.applied_epoch.find(source_shard);
  return it == rep.applied_epoch.end() ? -1 : it->second;
}

void ShardedService::BuildReplica(int shard, int replica) {
  Shard& sh = shards_[static_cast<size_t>(shard)];
  Replica& rep = *sh.replicas[static_cast<size_t>(replica)];

  // The live dataset starts at warmup-only knowledge; the streamed region
  // fills from the replica's own feed + the boundary exchange.
  rep.live = std::make_unique<apots::traffic::TrafficDataset>(truth_);
  for (int road = 0; road < rep.live->num_roads(); ++road) {
    for (long t = warm_end_; t < rep.live->num_intervals(); ++t) {
      rep.live->SetSpeed(road, t, 0.0f);
    }
  }

  ApotsConfig cfg;
  cfg.predictor =
      PredictorHparams::Scaled(config_.predictor, config_.width_divisor);
  cfg.features = FeatureConfig::Both(config_.alpha, config_.beta);
  cfg.features.num_adjacent = num_adjacent_;
  cfg.features.target_road = sh.target_road;
  cfg.training.adversarial = false;
  cfg.training.epochs = config_.train_epochs;
  cfg.training.verbose = false;
  cfg.fallback.enabled = false;  // the supervisor owns degradation
  cfg.inference = config_.inference;
  // One seed per *shard*: sibling replicas initialize bit-identically, so
  // with identical feeds their clean-path responses are interchangeable.
  cfg.seed = config_.model_seed + static_cast<uint64_t>(shard);
  rep.model = std::make_unique<ApotsModel>(rep.live.get(), cfg);
  if (config_.train_epochs > 0) {
    std::vector<long> anchors;
    for (long a = config_.alpha; a + config_.beta < warm_end_; ++a) {
      anchors.push_back(a);
    }
    rep.model->Train(anchors);
  }

  rep.ingestor = std::make_unique<StreamIngestor>(
      rep.live.get(), warm_end_, apots::data::ImputationConfig(),
      [this](int road, long t) {
        return static_cast<float>(
            profiles_[static_cast<size_t>(road)].Predict(truth_, t));
      });
  rep.ingestor->AttachCache(rep.model->inference_runtime().feature_cache(),
                            sh.target_road);

  ServeConfig serve = config_.serve;
  serve.checkpoint_dir = rep.checkpoint_dir;
  // Replica time = shared virtual clock + this replica's skew.
  serve.now_ns = [this, shard, replica] {
    return clock_.now_ns() +
           shards_[static_cast<size_t>(shard)]
               .replicas[static_cast<size_t>(replica)]
               ->skew_ns.load(std::memory_order_acquire);
  };
  rep.supervisor = std::make_unique<ServingSupervisor>(
      rep.model.get(), rep.ingestor.get(),
      &profiles_[static_cast<size_t>(sh.target_road)], serve);
  // Chaos clock jumps land inside the next measured inference section —
  // the worst case for deadline accounting — via the inference hook.
  rep.supervisor->set_inference_delay_for_test([this, shard, replica] {
    Replica& target = *shards_[static_cast<size_t>(shard)]
                           .replicas[static_cast<size_t>(replica)];
    if (target.pending_jump_ns != 0) {
      target.skew_ns.fetch_add(target.pending_jump_ns,
                               std::memory_order_acq_rel);
      target.pending_jump_ns = 0;
    }
  });
  // Re-apply every registered what-if context so a restarted replica
  // resolves the same ids as its siblings (registration survives chaos).
  for (const auto& [id, spec] : registered_contexts_) {
    (void)rep.supervisor->RegisterContext(id, spec);
  }

  // Recover from the replica's checkpoints when present; otherwise (or
  // when every generation is unreadable) replay the stream from the
  // warmup boundary — the feed emits the whole backlog on its first Poll.
  long feed_start = warm_end_;
  if (!rep.checkpoint_dir.empty()) {
    auto recovered = rep.supervisor->Recover();
    if (recovered.ok()) feed_start = rep.ingestor->watermark() + 1;
  }
  rep.feed = std::make_unique<FaultyFeed>(&truth_, feed_start, config_.feed);

  rep.alive = true;
  rep.partitioned_until = -1;
  rep.stalled_until = -1;
  rep.stall_ms = 0.0;
  rep.skew_ns.store(0, std::memory_order_release);
  rep.pending_jump_ns = 0;
  rep.quarantined_until_ns = -1;
  rep.applied_epoch.clear();
  for (int u : sh.spanning_shards) rep.applied_epoch[u] = -1;
}

bool ShardedService::ReplicaAlive(int shard, int replica) const {
  APOTS_CHECK_GE(shard, 0);
  APOTS_CHECK_LT(shard, config_.num_shards);
  APOTS_CHECK_GE(replica, 0);
  APOTS_CHECK_LT(replica, config_.replicas_per_shard);
  return shards_[static_cast<size_t>(shard)]
      .replicas[static_cast<size_t>(replica)]
      ->alive;
}

Status ShardedService::RegisterContext(uint64_t id,
                                       apots::data::ContextSpec spec) {
  // Validate once against a live replica (or remember-and-apply-later when
  // everything is down — BuildReplica re-validates on restart).
  for (auto& sh : shards_) {
    for (auto& rep : sh.replicas) {
      if (!rep->alive) continue;
      Status s = rep->supervisor->RegisterContext(id, spec);
      if (!s.ok()) return s;
    }
  }
  registered_contexts_[id] = std::move(spec);
  return Status::Ok();
}

Result<std::vector<ServeResponse>> ShardedService::PredictItemsOn(
    int shard, int replica,
    const std::vector<apots::core::WorkItem>& items) {
  APOTS_CHECK_GE(shard, 0);
  APOTS_CHECK_LT(shard, config_.num_shards);
  APOTS_CHECK_GE(replica, 0);
  APOTS_CHECK_LT(replica, config_.replicas_per_shard);
  Replica& rep =
      *shards_[static_cast<size_t>(shard)].replicas[static_cast<size_t>(
          replica)];
  if (!rep.alive) {
    return Status::FailedPrecondition("replica is down: shard " +
                               std::to_string(shard) + " replica " +
                               std::to_string(replica));
  }
  return rep.supervisor->PredictItems(items);
}

bool ShardedService::Reachable(const Replica& rep, long tick) const {
  if (!rep.alive) return false;
  if (rep.partitioned_until >= 0 && tick < rep.partitioned_until) {
    return false;
  }
  return true;
}

int ShardedService::FirstLiveReplica(int shard) const {
  const Shard& sh = shards_[static_cast<size_t>(shard)];
  for (size_t r = 0; r < sh.replicas.size(); ++r) {
    if (sh.replicas[r]->alive) return static_cast<int>(r);
  }
  return -1;
}

void ShardedService::IngestTickInto(int shard, int replica, long tick) {
  Replica& rep =
      *shards_[static_cast<size_t>(shard)].replicas[static_cast<size_t>(
          replica)];
  for (const FeedRecord& record : rep.feed->Poll(tick)) {
    // Shard-local ingestion: foreign roads arrive (if needed) through the
    // boundary exchange, never from the replica's own feed subscription.
    if (partition_.shard_of(record.road) != shard) continue;
    (void)rep.ingestor->Ingest(record);
  }
}

void ShardedService::PublishBoundary(int shard, long tick) {
  Shard& sh = shards_[static_cast<size_t>(shard)];
  if (sh.publish_roads.empty()) return;
  const int publisher = FirstLiveReplica(shard);
  if (publisher < 0) {
    // Whole shard down: the bus keeps the old epoch and consumers' halo
    // staleness climbs — degradation stays honest, never masked.
    ++exchange_stats_.publishes_skipped;
    return;
  }
  Replica& rep = *sh.replicas[static_cast<size_t>(publisher)];
  BoundarySnapshot snap;
  snap.epoch = tick;
  snap.seq = ++next_snapshot_seq_;
  const long lo = std::max(warm_end_, tick - config_.exchange_depth + 1);
  for (int road : sh.publish_roads) {
    for (long t = lo; t <= tick; ++t) {
      // Only *observed* cells ship: publishing the publisher's imputed
      // values would launder fabricated data into a neighbor's window.
      if (!rep.ingestor->Observed(road, t)) continue;
      FeedRecord record;
      record.interval = t;
      record.road = road;
      record.speed_kmh = rep.live->Speed(road, t);
      record.seq = snap.seq;
      snap.records.push_back(record);
    }
  }
  ++exchange_stats_.snapshots_published;
  bus_[static_cast<size_t>(shard)] = std::move(snap);
}

void ShardedService::ApplyBoundary(int shard, int replica, long tick) {
  (void)tick;
  Shard& sh = shards_[static_cast<size_t>(shard)];
  Replica& rep = *sh.replicas[static_cast<size_t>(replica)];
  for (const int source : sh.spanning_shards) {
    const BoundarySnapshot& snap = bus_[static_cast<size_t>(source)];
    if (snap.epoch < 0) continue;
    long& applied = rep.applied_epoch[source];
    // Versioned apply: an old or re-delivered snapshot is a no-op, so
    // epochs are monotone per source.
    if (snap.epoch <= applied) continue;
    for (const FeedRecord& record : snap.records) {
      if (!std::binary_search(sh.halo_roads.begin(), sh.halo_roads.end(),
                              record.road)) {
        continue;
      }
      ++exchange_stats_.records_shipped;
      (void)rep.ingestor->Ingest(record);
    }
    applied = snap.epoch;
  }
}

std::vector<long> ShardedService::TickAnchors(long tick) const {
  std::vector<long> anchors;
  const long intervals = truth_.num_intervals();
  for (int k = 0; k < config_.anchors_per_tick; ++k) {
    const long anchor = tick - k;
    if (anchor - config_.alpha < 0) break;
    if (anchor + config_.beta >= intervals) continue;
    anchors.push_back(anchor);
  }
  return anchors;
}

std::vector<ShardedResponse> ShardedService::LadderAnswer(
    int shard, const std::vector<long>& anchors) {
  const Shard& sh = shards_[static_cast<size_t>(shard)];
  const long intervals = truth_.num_intervals();
  std::vector<ShardedResponse> responses(anchors.size());
  for (size_t i = 0; i < anchors.size(); ++i) {
    const long clamped =
        std::min(std::max(anchors[i] + config_.beta, 0L), intervals - 1);
    ShardedResponse& out = responses[i];
    out.shard = shard;
    out.replica = -1;
    out.serve.kmh = profiles_[static_cast<size_t>(sh.target_road)].Predict(
        truth_, clamped);
    out.serve.tier = ServeTier::kHistorical;
  }
  router_stats_.ladder_answers += anchors.size();
  ShardedMetrics::Get().ladder_answers.Add(anchors.size());
  return responses;
}

std::vector<ShardedResponse> ShardedService::Predict(
    int shard, const std::vector<long>& anchors) {
  APOTS_CHECK_GE(shard, 0);
  APOTS_CHECK_LT(shard, config_.num_shards);
  Shard& sh = shards_[static_cast<size_t>(shard)];
  const RouterConfig& rc = config_.router;
  const long tick = next_tick_;
  const int64_t start_ns = clock_.now_ns();

  router_stats_.requests += anchors.size();
  ShardedMetrics::Get().requests.Add(anchors.size());

  const int num_replicas = static_cast<int>(sh.replicas.size());
  const int preferred = sh.preferred;
  sh.preferred = (sh.preferred + 1) % num_replicas;

  double backoff = rc.backoff_base_ms;
  int attempts = 0;
  for (int round = 0; round < std::max(1, rc.max_rounds); ++round) {
    const bool last_round = round + 1 >= std::max(1, rc.max_rounds);
    for (int k = 0; k < num_replicas; ++k) {
      const int idx = (preferred + k) % num_replicas;
      Replica& rep = *sh.replicas[static_cast<size_t>(idx)];
      // Quarantined replicas are skipped cheaply — except on the last
      // round, where every replica is a last resort before the ladder.
      if (!last_round && rep.quarantined_until_ns > clock_.now_ns()) {
        ++router_stats_.quarantine_skips;
        continue;
      }
      ++attempts;
      ++router_stats_.attempts;
      bool answered = false;
      double cost_ms;
      if (!rep.alive) {
        cost_ms = rc.probe_cost_ms;  // connection refused fails fast
      } else if (!Reachable(rep, tick)) {
        cost_ms = rc.timeout_ms;  // partition burns the full budget
      } else {
        const double stall =
            (rep.stalled_until >= 0 && tick < rep.stalled_until)
                ? rep.stall_ms
                : 0.0;
        if (stall > rc.timeout_ms) {
          cost_ms = rc.timeout_ms;  // stalled past the deadline
        } else {
          cost_ms = rc.call_cost_ms + stall;
          answered = true;
        }
      }
      clock_.Advance(cost_ms);
      if (!answered) {
        ++router_stats_.retries;
        ShardedMetrics::Get().retries.Add();
        rep.quarantined_until_ns =
            clock_.now_ns() + static_cast<int64_t>(rc.quarantine_ms * 1e6);
        clock_.Advance(backoff);
        backoff = std::min(backoff * rc.backoff_mult, rc.backoff_max_ms);
        continue;
      }

      std::vector<ServeResponse> serves = rep.supervisor->Predict(anchors);
      const double latency_ms =
          static_cast<double>(clock_.now_ns() - start_ns) / 1e6;
      const bool failover = attempts > 1;
      if (failover) {
        ++router_stats_.failovers;
        ShardedMetrics::Get().failovers.Add();
        failover_latency_ms_.push_back(latency_ms);
        ShardedMetrics::Get().failover_ms.Record(latency_ms);
      }
      router_stats_.replica_served += serves.size();
      ShardedMetrics::Get().replica_served.Add(serves.size());

      // Epoch-consistency accounting: a serve riding a lagging boundary
      // epoch is *detected* (epoch_lag_serves); one claiming the full
      // tier past the freshness tolerance would be the cross-shard
      // inconsistency the CI gate holds at zero.
      long min_epoch = tick;
      for (const int source : sh.spanning_shards) {
        const auto it = rep.applied_epoch.find(source);
        min_epoch = std::min(
            min_epoch, it == rep.applied_epoch.end() ? -1 : it->second);
      }
      std::vector<ShardedResponse> responses(serves.size());
      for (size_t i = 0; i < serves.size(); ++i) {
        ShardedResponse& out = responses[i];
        out.serve = serves[i];
        out.shard = shard;
        out.replica = idx;
        out.attempts = attempts;
        out.failover = failover;
        out.latency_ms = latency_ms;
        if (!sh.spanning_shards.empty() && min_epoch < tick) {
          ++exchange_stats_.epoch_lag_serves;
          ShardedMetrics::Get().epoch_lag_serves.Add();
          if (out.serve.tier == ServeTier::kFull &&
              min_epoch < tick - config_.serve.t1_fresh) {
            ++exchange_stats_.stale_epoch_serves;
            ShardedMetrics::Get().stale_epoch_serves.Add();
          }
        }
      }
      return responses;
    }
  }

  // Whole shard down: only now does the staleness ladder take over.
  std::vector<ShardedResponse> responses = LadderAnswer(shard, anchors);
  const double latency_ms =
      static_cast<double>(clock_.now_ns() - start_ns) / 1e6;
  for (ShardedResponse& out : responses) {
    out.attempts = attempts;
    out.failover = true;
    out.latency_ms = latency_ms;
  }
  return responses;
}

std::vector<double> ShardedService::PredictDirect(
    int shard, const std::vector<long>& anchors) {
  APOTS_CHECK_GE(shard, 0);
  APOTS_CHECK_LT(shard, config_.num_shards);
  const int live = FirstLiveReplica(shard);
  if (live < 0) return {};
  return shards_[static_cast<size_t>(shard)]
      .replicas[static_cast<size_t>(live)]
      ->model->PredictKmh(anchors);
}

bool ShardedService::RunTick() {
  if (next_tick_ > last_servable_tick()) return false;
  const long tick = next_tick_;
  clock_.Advance(config_.tick_advance_ms);

  // 1. Every live replica ingests its shard's records for this tick.
  //    (Partitioned and stalled replicas still ingest: the fault is
  //    between router and replica, not between sensors and replica.)
  for (int s = 0; s < config_.num_shards; ++s) {
    for (int r = 0; r < config_.replicas_per_shard; ++r) {
      if (shards_[static_cast<size_t>(s)]
              .replicas[static_cast<size_t>(r)]
              ->alive) {
        IngestTickInto(s, r, tick);
      }
    }
  }
  // 2. Boundary snapshots publish (epoch = tick), then apply everywhere.
  for (int s = 0; s < config_.num_shards; ++s) PublishBoundary(s, tick);
  for (int s = 0; s < config_.num_shards; ++s) {
    for (int r = 0; r < config_.replicas_per_shard; ++r) {
      if (shards_[static_cast<size_t>(s)]
              .replicas[static_cast<size_t>(r)]
              ->alive) {
        ApplyBoundary(s, r, tick);
      }
    }
  }
  // 3. Watermarks advance (imputing whatever neither feed nor exchange
  //    delivered), then every shard serves the tick's anchors through the
  //    router.
  for (int s = 0; s < config_.num_shards; ++s) {
    for (int r = 0; r < config_.replicas_per_shard; ++r) {
      Replica& rep =
          *shards_[static_cast<size_t>(s)].replicas[static_cast<size_t>(r)];
      if (rep.alive) rep.ingestor->AdvanceWatermark(tick);
    }
  }
  last_anchors_ = TickAnchors(tick);
  for (int s = 0; s < config_.num_shards; ++s) {
    last_responses_[static_cast<size_t>(s)] = Predict(s, last_anchors_);
  }
  // 4. Checkpoint schedules.
  for (int s = 0; s < config_.num_shards; ++s) {
    for (int r = 0; r < config_.replicas_per_shard; ++r) {
      Replica& rep =
          *shards_[static_cast<size_t>(s)].replicas[static_cast<size_t>(r)];
      if (rep.alive) rep.supervisor->MaybeCheckpoint(tick);
    }
  }
  ++next_tick_;
  return next_tick_ <= last_servable_tick();
}

Status ShardedService::KillReplica(int shard, int replica) {
  if (shard < 0 || shard >= config_.num_shards || replica < 0 ||
      replica >= config_.replicas_per_shard) {
    return Status::InvalidArgument("replica address out of range");
  }
  Replica& rep =
      *shards_[static_cast<size_t>(shard)].replicas[static_cast<size_t>(
          replica)];
  if (!rep.alive) {
    return Status::FailedPrecondition(apots::StrFormat(
        "shard %d replica %d is already dead", shard, replica));
  }
  dead_replica_reports_.MergeFrom(rep.supervisor->report());
  rep.supervisor.reset();  // joins the watchdog thread
  rep.ingestor.reset();
  rep.model.reset();
  rep.feed.reset();
  rep.live.reset();
  rep.alive = false;
  ++kills_;
  return Status::Ok();
}

Status ShardedService::RestartReplica(int shard, int replica) {
  if (shard < 0 || shard >= config_.num_shards || replica < 0 ||
      replica >= config_.replicas_per_shard) {
    return Status::InvalidArgument("replica address out of range");
  }
  Replica& rep =
      *shards_[static_cast<size_t>(shard)].replicas[static_cast<size_t>(
          replica)];
  if (rep.alive) {
    return Status::FailedPrecondition(apots::StrFormat(
        "shard %d replica %d is already running", shard, replica));
  }
  BuildReplica(shard, replica);
  ++restarts_;
  return Status::Ok();
}

Status ShardedService::StallReplica(int shard, int replica, double stall_ms,
                                    long ticks) {
  if (!ReplicaAlive(shard, replica)) {
    return Status::FailedPrecondition("cannot stall a dead replica");
  }
  Replica& rep =
      *shards_[static_cast<size_t>(shard)].replicas[static_cast<size_t>(
          replica)];
  rep.stall_ms = stall_ms;
  rep.stalled_until = next_tick_ + std::max(1L, ticks);
  ++stalls_;
  return Status::Ok();
}

Status ShardedService::PartitionReplica(int shard, int replica, long ticks) {
  if (!ReplicaAlive(shard, replica)) {
    return Status::FailedPrecondition("cannot partition a dead replica");
  }
  Replica& rep =
      *shards_[static_cast<size_t>(shard)].replicas[static_cast<size_t>(
          replica)];
  rep.partitioned_until = next_tick_ + std::max(1L, ticks);
  ++partitions_;
  return Status::Ok();
}

Status ShardedService::SkewReplicaClock(int shard, int replica,
                                        double skew_ms) {
  if (!ReplicaAlive(shard, replica)) {
    return Status::FailedPrecondition("cannot skew a dead replica's clock");
  }
  Replica& rep =
      *shards_[static_cast<size_t>(shard)].replicas[static_cast<size_t>(
          replica)];
  rep.pending_jump_ns += static_cast<int64_t>(skew_ms * 1e6);
  ++clock_skews_;
  return Status::Ok();
}

Status ShardedService::CorruptNewestCheckpoint(int shard, int replica) {
  if (shard < 0 || shard >= config_.num_shards || replica < 0 ||
      replica >= config_.replicas_per_shard) {
    return Status::InvalidArgument("replica address out of range");
  }
  const Replica& rep =
      *shards_[static_cast<size_t>(shard)].replicas[static_cast<size_t>(
          replica)];
  if (rep.checkpoint_dir.empty()) {
    return Status::FailedPrecondition("replica has no checkpoint dir");
  }
  namespace fs = std::filesystem;
  std::error_code ec;
  std::string newest;
  for (const auto& entry : fs::directory_iterator(rep.checkpoint_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt_", 0) != 0) continue;
    if (name.size() < 5 || name.substr(name.size() - 5) != ".apot") continue;
    if (name > newest) newest = name;  // zero-padded: lexical == numeric
  }
  if (newest.empty()) {
    return Status::NotFound(apots::StrFormat(
        "no checkpoints under %s", rep.checkpoint_dir.c_str()));
  }
  const std::string path = rep.checkpoint_dir + "/" + newest;
  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
  if (!file) return Status::IoError("cannot open " + path);
  file.seekg(0, std::ios::end);
  const std::streamoff size = file.tellg();
  if (size <= 0) return Status::IoError("empty checkpoint " + path);
  file.seekg(size / 2);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  file.seekp(size / 2);
  file.write(&byte, 1);
  if (!file) return Status::IoError("corruption write failed on " + path);
  ++checkpoint_corruptions_;
  return Status::Ok();
}

ShardedReport ShardedService::report() const {
  ShardedReport out;
  out.serve = dead_replica_reports_;
  for (const Shard& sh : shards_) {
    for (const auto& rep : sh.replicas) {
      if (rep->alive) out.serve.MergeFrom(rep->supervisor->report());
    }
  }
  out.router = router_stats_;
  out.exchange = exchange_stats_;
  if (!failover_latency_ms_.empty()) {
    std::vector<double> sorted = failover_latency_ms_;
    std::sort(sorted.begin(), sorted.end());
    out.failover_p50_ms = SortedPercentile(sorted, 0.50);
    out.failover_p99_ms = SortedPercentile(sorted, 0.99);
  }
  out.kills = kills_;
  out.restarts = restarts_;
  out.stalls = stalls_;
  out.partitions = partitions_;
  out.clock_skews = clock_skews_;
  out.checkpoint_corruptions = checkpoint_corruptions_;
  return out;
}

}  // namespace apots::serve
