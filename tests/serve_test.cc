// The serve:: subsystem end to end: feed determinism and fault injection,
// stream ingestion invariants (dedup, rejection, late reconciliation,
// watermark, recovery-state round trip), the staleness degradation ladder,
// deadline- and watchdog-driven protection, checkpoint cadence, and the
// clean-feed bitwise-identity contract with InferenceRuntime.

#include "serve/harness.h"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/feed.h"
#include "serve/serving_supervisor.h"
#include "serve/stream_ingestor.h"
#include "traffic/dataset_generator.h"

namespace apots::serve {
namespace {

apots::traffic::DatasetSpec TinySpec() {
  apots::traffic::DatasetSpec spec;
  spec.num_roads = 3;
  spec.num_days = 2;
  spec.intervals_per_day = 96;
  spec.seed = 7;
  spec.hyundai_calendar = false;
  return spec;
}

std::string TempDir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

// --- FaultyFeed ---

TEST(FaultyFeedTest, CleanFeedDeliversExactlyOnceInOrder) {
  const auto truth = apots::traffic::GenerateDataset(TinySpec());
  const long start = 96;
  FaultyFeed feed(&truth, start, FeedFaultSpec::Clean());
  for (long t = start; t < truth.num_intervals(); ++t) {
    const auto batch = feed.Poll(t);
    ASSERT_EQ(batch.size(), static_cast<size_t>(truth.num_roads()));
    for (int r = 0; r < truth.num_roads(); ++r) {
      EXPECT_EQ(batch[r].interval, t);
      EXPECT_EQ(batch[r].road, r);
      EXPECT_EQ(batch[r].speed_kmh, truth.Speed(r, t));
    }
  }
  EXPECT_TRUE(feed.Exhausted());
  EXPECT_EQ(feed.stats().delayed, 0u);
  EXPECT_EQ(feed.stats().dropped, 0u);
  EXPECT_EQ(feed.stats().duplicated, 0u);
}

TEST(FaultyFeedTest, SameSeedSameStream) {
  const auto truth = apots::traffic::GenerateDataset(TinySpec());
  FaultyFeed a(&truth, 96, FeedFaultSpec::Storm(5));
  FaultyFeed b(&truth, 96, FeedFaultSpec::Storm(5));
  for (long t = 96; t < truth.num_intervals() + 64; ++t) {
    const auto batch_a = a.Poll(t);
    const auto batch_b = b.Poll(t);
    ASSERT_EQ(batch_a.size(), batch_b.size()) << "tick " << t;
    for (size_t i = 0; i < batch_a.size(); ++i) {
      EXPECT_EQ(batch_a[i].interval, batch_b[i].interval);
      EXPECT_EQ(batch_a[i].road, batch_b[i].road);
      EXPECT_EQ(batch_a[i].speed_kmh, batch_b[i].speed_kmh);
      EXPECT_EQ(batch_a[i].seq, batch_b[i].seq);
    }
  }
  EXPECT_TRUE(a.Exhausted());
  EXPECT_TRUE(b.Exhausted());
}

TEST(FaultyFeedTest, StormActuallyInjectsFaults) {
  const auto truth = apots::traffic::GenerateDataset(TinySpec());
  FaultyFeed feed(&truth, 96, FeedFaultSpec::Storm(99));
  for (long t = 96; t < truth.num_intervals() + 64; ++t) feed.Poll(t);
  const auto& stats = feed.stats();
  EXPECT_GT(stats.delayed, 0u);
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.duplicated, 0u);
}

// --- StreamIngestor ---

class StreamIngestorTest : public ::testing::Test {
 protected:
  StreamIngestorTest()
      : live_(apots::traffic::GenerateDataset(TinySpec())),
        ingestor_(&live_, kStart, apots::data::ImputationConfig(),
                  [](int, long) { return 42.0f; }) {}

  static constexpr long kStart = 96;
  apots::traffic::TrafficDataset live_;
  StreamIngestor ingestor_;
};

TEST_F(StreamIngestorTest, DuplicateIsIdempotentFirstWriteWins) {
  ASSERT_TRUE(ingestor_.Ingest({kStart, 0, 61.0f, 0}).ok());
  ASSERT_TRUE(ingestor_.Ingest({kStart, 0, 99.0f, 1}).ok());
  EXPECT_EQ(live_.Speed(0, kStart), 61.0f);
  EXPECT_EQ(ingestor_.stats().applied, 1u);
  EXPECT_EQ(ingestor_.stats().duplicates, 1u);
}

TEST_F(StreamIngestorTest, MalformedRecordsRejected) {
  EXPECT_FALSE(ingestor_.Ingest({kStart, 99, 50.0f, 0}).ok());   // bad road
  EXPECT_FALSE(ingestor_.Ingest({100000, 0, 50.0f, 0}).ok());    // bad tick
  EXPECT_FALSE(ingestor_.Ingest({kStart, 0, -5.0f, 0}).ok());    // negative
  EXPECT_FALSE(
      ingestor_.Ingest({kStart, 0, std::nanf(""), 0}).ok());     // NaN
  EXPECT_FALSE(ingestor_.Ingest({10, 0, 50.0f, 0}).ok());  // warmup immutable
  EXPECT_EQ(ingestor_.stats().rejected, 5u);
  EXPECT_EQ(ingestor_.stats().applied, 0u);
}

TEST_F(StreamIngestorTest, WatermarkImputesAndLateRecordReconciles) {
  // Advance past kStart+2 with no records: every cell imputed via LOCF
  // from the warmup tail (gap <= locf_max_gap).
  ingestor_.AdvanceWatermark(kStart + 2);
  EXPECT_EQ(ingestor_.watermark(), kStart + 2);
  EXPECT_EQ(ingestor_.stats().imputed,
            static_cast<uint64_t>(3 * live_.num_roads()));
  for (int r = 0; r < live_.num_roads(); ++r) {
    EXPECT_EQ(live_.Speed(r, kStart), live_.Speed(r, kStart - 1));
    EXPECT_FALSE(ingestor_.Observed(r, kStart));
  }

  // The real reading lands late and must overwrite the imputed value.
  ASSERT_TRUE(ingestor_.Ingest({kStart, 1, 77.0f, 0}).ok());
  EXPECT_EQ(live_.Speed(1, kStart), 77.0f);
  EXPECT_TRUE(ingestor_.Observed(1, kStart));
  EXPECT_EQ(ingestor_.stats().late, 1u);
}

TEST_F(StreamIngestorTest, StalenessTracksPerRoadSilence) {
  ingestor_.AdvanceWatermark(kStart);
  // Warmup seeds every road at kStart-1, so all roads are 1 tick stale.
  EXPECT_EQ(ingestor_.Staleness(0), 1);
  ASSERT_TRUE(ingestor_.Ingest({kStart + 1, 0, 55.0f, 0}).ok());
  ingestor_.AdvanceWatermark(kStart + 1);
  EXPECT_EQ(ingestor_.Staleness(0), 0);  // fresh this tick
  EXPECT_EQ(ingestor_.Staleness(1), 2);  // silent since warmup
  ingestor_.AdvanceWatermark(kStart + 5);
  EXPECT_EQ(ingestor_.Staleness(0), 4);
  EXPECT_EQ(ingestor_.Staleness(1), 6);
}

TEST_F(StreamIngestorTest, StateRoundTripRestoresWatermarkAndTails) {
  ASSERT_TRUE(ingestor_.Ingest({kStart + 3, 0, 58.0f, 0}).ok());
  ingestor_.AdvanceWatermark(kStart + 6);
  const std::string blob = ingestor_.SerializeState();

  // "Restarted process": fresh dataset with the stream region zeroed,
  // fresh ingestor, state restored from the checkpoint aux blob.
  auto live2 = apots::traffic::GenerateDataset(TinySpec());
  for (int r = 0; r < live2.num_roads(); ++r) {
    for (long t = kStart; t < live2.num_intervals(); ++t) {
      live2.SetSpeed(r, t, 0.0f);
    }
  }
  StreamIngestor restored(&live2, kStart, apots::data::ImputationConfig(),
                          [](int, long) { return 42.0f; });
  ASSERT_TRUE(restored.RestoreState(blob).ok());
  EXPECT_EQ(restored.watermark(), kStart + 6);
  for (int r = 0; r < live2.num_roads(); ++r) {
    EXPECT_EQ(restored.Staleness(r), ingestor_.Staleness(r)) << "road " << r;
  }
  // The observation applied before the snapshot survives the restart, and
  // every cell up to the watermark is populated (no zeros left).
  EXPECT_TRUE(restored.Observed(0, kStart + 3));
  EXPECT_EQ(live2.Speed(0, kStart + 3), 58.0f);
  for (int r = 0; r < live2.num_roads(); ++r) {
    for (long t = kStart; t <= restored.watermark(); ++t) {
      EXPECT_GT(live2.Speed(r, t), 0.0f) << "road " << r << " t " << t;
    }
  }
}

TEST_F(StreamIngestorTest, RestoreRejectsGarbageBlob) {
  EXPECT_FALSE(ingestor_.RestoreState("definitely not a snapshot").ok());
  EXPECT_FALSE(ingestor_.RestoreState("").ok());
}

// --- ServeWatchdog ---

TEST(ServeWatchdogTest, TripsOnStuckFlightAndClears) {
  ServeWatchdog watchdog(/*timeout_ms=*/5.0);
  EXPECT_FALSE(watchdog.ConsumeStuck());
  watchdog.Arm();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  watchdog.Disarm();
  EXPECT_GE(watchdog.trips(), 1u);
  EXPECT_TRUE(watchdog.ConsumeStuck());
  EXPECT_FALSE(watchdog.ConsumeStuck());  // flag clears on consume

  // A fast flight does not trip.
  const uint64_t trips = watchdog.trips();
  watchdog.Arm();
  watchdog.Disarm();
  EXPECT_EQ(watchdog.trips(), trips);
}

// --- ServingSupervisor (direct stack) ---

class SupervisorTest : public ::testing::Test {
 protected:
  static constexpr long kStart = 96;

  void Build(ServeConfig serve,
             apots::tensor::QuantMode quantize =
                 apots::tensor::QuantMode::kOff) {
    dataset_ = apots::traffic::GenerateDataset(TinySpec());
    std::vector<long> warmup;
    for (long t = 0; t < kStart; ++t) warmup.push_back(t);
    profile_ = apots::baseline::HistoricalAverage();
    ASSERT_TRUE(profile_.Fit(dataset_, dataset_.num_roads() / 2, warmup).ok());

    apots::core::ApotsConfig cfg;
    cfg.predictor = apots::core::PredictorHparams::Scaled(
        apots::core::PredictorType::kFc, 16);
    cfg.features = apots::data::FeatureConfig::Both(12, 3);
    cfg.features.num_adjacent = 1;
    cfg.training.adversarial = false;
    cfg.training.verbose = false;
    cfg.fallback.enabled = false;
    cfg.inference.quantize = quantize;
    model_ = std::make_unique<apots::core::ApotsModel>(&dataset_, cfg);
    ingestor_ = std::make_unique<StreamIngestor>(
        &dataset_, kStart, apots::data::ImputationConfig(),
        [this](int, long t) {
          return static_cast<float>(profile_.Predict(dataset_, t));
        });
    supervisor_ = std::make_unique<ServingSupervisor>(
        model_.get(), ingestor_.get(), &profile_, serve);
  }

  /// Delivers a real record for every road at `tick` and advances the
  /// watermark there, keeping all roads fresh.
  void FreshTick(long tick) {
    for (int r = 0; r < dataset_.num_roads(); ++r) {
      ASSERT_TRUE(ingestor_->Ingest({tick, r, 60.0f, 0}).ok());
    }
    ingestor_->AdvanceWatermark(tick);
  }

  apots::traffic::TrafficDataset dataset_;
  apots::baseline::HistoricalAverage profile_;
  std::unique_ptr<apots::core::ApotsModel> model_;
  std::unique_ptr<StreamIngestor> ingestor_;
  std::unique_ptr<ServingSupervisor> supervisor_;
};

TEST_F(SupervisorTest, LadderDegradesWithStaleness) {
  ServeConfig serve;
  serve.t1_fresh = 2;
  serve.t2_imputed = 5;
  serve.t3_outage = 10;
  Build(serve);

  FreshTick(kStart);
  EXPECT_EQ(supervisor_->WindowStaleness(kStart), 0);
  EXPECT_EQ(supervisor_->TierFor(kStart), ServeTier::kFull);
  const auto fresh = supervisor_->Predict({kStart});
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].tier, ServeTier::kFull);

  // Roads go silent; the imputer keeps the dataset populated while the
  // ladder walks down tier by tier.
  ingestor_->AdvanceWatermark(kStart + 4);  // staleness 4: imputed
  EXPECT_EQ(supervisor_->TierFor(kStart + 4), ServeTier::kImputed);
  EXPECT_EQ(supervisor_->Predict({kStart + 4})[0].tier, ServeTier::kImputed);

  ingestor_->AdvanceWatermark(kStart + 8);  // staleness 8: historical
  EXPECT_EQ(supervisor_->TierFor(kStart + 8), ServeTier::kHistorical);
  EXPECT_EQ(supervisor_->Predict({kStart + 8})[0].tier,
            ServeTier::kHistorical);

  ingestor_->AdvanceWatermark(kStart + 20);  // staleness 20: total outage
  EXPECT_EQ(supervisor_->TierFor(kStart + 20), ServeTier::kLastKnownGood);
  const auto lkg = supervisor_->Predict({kStart + 20});
  EXPECT_EQ(lkg[0].tier, ServeTier::kLastKnownGood);
  EXPECT_GT(lkg[0].kmh, 0.0);

  const auto& report = supervisor_->report();
  EXPECT_EQ(report.requests, 4u);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.tier_counts[0], 1u);
  EXPECT_EQ(report.tier_counts[1], 1u);
  EXPECT_EQ(report.tier_counts[2], 1u);
  EXPECT_EQ(report.tier_counts[3], 1u);
  EXPECT_EQ(report.availability(), 1.0);
}

TEST_F(SupervisorTest, OutOfRangeAnchorIsFailureNotCrash) {
  Build(ServeConfig());
  FreshTick(kStart);
  // alpha=12: anchor 5 reaches before interval 0; the last intervals
  // reach past the end. Both must answer (profile) and count as failures.
  const auto responses =
      supervisor_->Predict({5, dataset_.num_intervals() - 1});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(supervisor_->report().failures, 2u);
  EXPECT_LT(supervisor_->report().availability(), 1.0);
}

TEST_F(SupervisorTest, DeadlineProjectionDegradesToHistorical) {
  ServeConfig serve;
  serve.deadline_ms = 1.0;
  Build(serve);
  supervisor_->set_inference_delay_for_test([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });

  FreshTick(kStart);
  // First call: no cost estimate yet, so the batch runs and blows the
  // deadline — recorded as a miss and fed into the EMA.
  auto first = supervisor_->Predict({kStart});
  EXPECT_EQ(first[0].tier, ServeTier::kFull);
  EXPECT_TRUE(first[0].deadline_miss);
  EXPECT_EQ(supervisor_->report().deadline_misses, 1u);

  // Second call: the EMA projects an overrun, so neural anchors are
  // pre-degraded to the historical tier and the deadline holds.
  FreshTick(kStart + 1);
  auto second = supervisor_->Predict({kStart + 1});
  EXPECT_EQ(second[0].tier, ServeTier::kHistorical);
  EXPECT_FALSE(second[0].deadline_miss);
  EXPECT_GE(supervisor_->report().deadline_degraded, 1u);
}

TEST_F(SupervisorTest, WatchdogTripDegradesNextCall) {
  ServeConfig serve;
  serve.watchdog_timeout_ms = 5.0;
  Build(serve);
  supervisor_->set_inference_delay_for_test([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  });

  FreshTick(kStart);
  EXPECT_EQ(supervisor_->Predict({kStart})[0].tier, ServeTier::kFull);

  // The stuck flight tripped the watchdog; the next call must not trust
  // the neural path.
  supervisor_->set_inference_delay_for_test(nullptr);
  FreshTick(kStart + 1);
  EXPECT_EQ(supervisor_->Predict({kStart + 1})[0].tier,
            ServeTier::kHistorical);
  EXPECT_GE(supervisor_->report().watchdog_trips, 1u);

  // Trip consumed: the call after that is back on the full tier.
  FreshTick(kStart + 2);
  EXPECT_EQ(supervisor_->Predict({kStart + 2})[0].tier, ServeTier::kFull);
}

TEST_F(SupervisorTest, CheckpointCadenceAndRecovery) {
  const std::string dir = TempDir("apots_serve_ckpt");
  ServeConfig serve;
  serve.checkpoint_dir = dir;
  serve.checkpoint_every = 4;
  Build(serve);

  FreshTick(kStart);
  EXPECT_FALSE(supervisor_->MaybeCheckpoint(kStart));  // cadence not due
  FreshTick(kStart + 4);
  EXPECT_TRUE(supervisor_->MaybeCheckpoint(kStart + 4));
  EXPECT_EQ(supervisor_->report().checkpoints_written, 1u);
  ASSERT_NE(supervisor_->checkpoint_store(), nullptr);
  EXPECT_EQ(supervisor_->checkpoint_store()->LatestGeneration(), 1u);

  // Recover restores the ingestor watermark alongside the weights.
  ingestor_->AdvanceWatermark(kStart + 20);
  auto recovered = supervisor_->Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered.value().fell_back());
  EXPECT_EQ(ingestor_->watermark(), kStart + 4);
  std::filesystem::remove_all(dir);
}

TEST_F(SupervisorTest, RecoverRepacksQuantizedWeights) {
  const std::string dir = TempDir("apots_serve_ckpt_int8");
  ServeConfig serve;
  serve.checkpoint_dir = dir;
  Build(serve, apots::tensor::QuantMode::kInt8);
  FreshTick(kStart);
  ASSERT_TRUE(supervisor_->CheckpointNow().ok());
  apots::core::ApotsModel loaded(&dataset_, model_->config());
  ASSERT_TRUE(
      loaded.Load(supervisor_->checkpoint_store()->GenerationPath(1)).ok());

  // Move the served weights away from the checkpoint, as a restart that
  // builds a fresh model (other seed) before recovering does.
  apots::core::ApotsConfig other_cfg = model_->config();
  other_cfg.seed = 99;
  apots::core::ApotsModel other(&dataset_, other_cfg);
  ASSERT_TRUE(model_->CopyWeightsFrom(other).ok());
  const std::vector<long> anchors = {kStart - 20, kStart - 7, kStart};
  ASSERT_NE(model_->PredictKmh(anchors), loaded.PredictKmh(anchors));

  ASSERT_TRUE(supervisor_->Recover().ok());
  EXPECT_EQ(model_->PredictKmh(anchors), loaded.PredictKmh(anchors));
  std::filesystem::remove_all(dir);
}

// --- Full harness ---

HarnessConfig TinyHarness() {
  HarnessConfig config;
  config.spec = TinySpec();
  config.warmup_fraction = 0.5;
  config.train_epochs = 0;
  config.anchors_per_tick = 3;
  return config;
}

TEST(HarnessTest, CleanFeedIsBitwiseIdenticalToDirectInference) {
  HarnessConfig config = TinyHarness();
  config.feed = FeedFaultSpec::Clean();
  SimulationHarness harness(config);
  for (int tick = 0; tick < 40; ++tick) {
    ASSERT_TRUE(harness.RunTick());
    const auto& responses = harness.last_responses();
    const auto direct = harness.DirectPredictKmh(harness.last_anchors());
    ASSERT_EQ(responses.size(), direct.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      EXPECT_EQ(responses[i].tier, ServeTier::kFull);
      EXPECT_EQ(responses[i].kmh, direct[i]);  // bitwise, not approximate
    }
  }
  EXPECT_EQ(harness.report().failures, 0u);
}

TEST(HarnessTest, StormSoakStaysAvailable) {
  HarnessConfig config = TinyHarness();
  config.feed = FeedFaultSpec::Storm(99);
  SimulationHarness harness(config);
  while (harness.RunTick()) {
  }
  const ServeReport report = harness.report();
  EXPECT_GT(report.requests, 0u);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.availability(), 1.0);
  // The storm must actually exercise the ladder, not just the full tier.
  EXPECT_GT(report.tier_counts[1] + report.tier_counts[2] +
                report.tier_counts[3],
            0u);
}

TEST(HarnessTest, KillAndRecoverRestoresBitwiseState) {
  const std::string dir = TempDir("apots_harness_kill");
  HarnessConfig config = TinyHarness();
  config.feed = FeedFaultSpec::Storm(3);
  config.serve.checkpoint_dir = dir;
  SimulationHarness harness(config);
  for (int tick = 0; tick < 20; ++tick) ASSERT_TRUE(harness.RunTick());
  ASSERT_TRUE(harness.supervisor().CheckpointNow().ok());
  const auto params_before = harness.ParamSnapshot();
  const long watermark_before = harness.ingestor().watermark();

  auto recovered = harness.KillAndRecover(/*new_seed=*/777);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered.value().fell_back());
  EXPECT_EQ(harness.ParamSnapshot(), params_before);
  EXPECT_EQ(harness.ingestor().watermark(), watermark_before);
  for (int tick = 0; tick < 5; ++tick) ASSERT_TRUE(harness.RunTick());
  EXPECT_EQ(harness.report().failures, 0u);
  std::filesystem::remove_all(dir);
}

TEST(HarnessTest, CorruptNewestCheckpointFallsBack) {
  const std::string dir = TempDir("apots_harness_corrupt");
  HarnessConfig config = TinyHarness();
  config.feed = FeedFaultSpec::Storm(11);
  config.serve.checkpoint_dir = dir;
  SimulationHarness harness(config);
  for (int tick = 0; tick < 10; ++tick) ASSERT_TRUE(harness.RunTick());
  ASSERT_TRUE(harness.supervisor().CheckpointNow().ok());
  for (int tick = 0; tick < 10; ++tick) ASSERT_TRUE(harness.RunTick());
  ASSERT_TRUE(harness.supervisor().CheckpointNow().ok());

  auto* store = harness.supervisor().checkpoint_store();
  const uint64_t newest = store->LatestGeneration();
  ASSERT_EQ(newest, 2u);
  {
    std::fstream file(store->GenerationPath(newest),
                      std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    file.seekg(100);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);  // guaranteed to change the byte
    file.seekp(100);
    file.write(&byte, 1);
  }

  auto recovered = harness.KillAndRecover(/*new_seed=*/555);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered.value().fell_back());
  EXPECT_EQ(recovered.value().generation, 1u);
  for (int tick = 0; tick < 5; ++tick) ASSERT_TRUE(harness.RunTick());
  EXPECT_EQ(harness.report().failures, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace apots::serve
