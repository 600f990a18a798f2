// Counterfactual what-if contexts: ContextSpec window scoping and
// ordering, ContextTable registration rules, assembly-time overlays
// (event force, rain clamp, day-type one-hot) with effective-context
// cache keying, and the heterogeneous (anchor, context) inference path —
// including the bitwise context-0 identity and determinism across batch
// sizes, pool sizes and cache temperature.

#include "data/context.h"

#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/apots_model.h"
#include "data/feature_cache.h"
#include "data/features.h"
#include "traffic/dataset_generator.h"
#include "util/thread_pool.h"

namespace apots::data {
namespace {

// --- ContextSpec ------------------------------------------------------

TEST(ContextSpecTest, WindowScopingIsHalfOpen) {
  ContextSpec spec;
  spec.RainDelta(5.0f, 10, 20);
  EXPECT_FALSE(spec.TouchesColumn(9));
  EXPECT_TRUE(spec.TouchesColumn(10));
  EXPECT_TRUE(spec.TouchesColumn(19));
  EXPECT_FALSE(spec.TouchesColumn(20));
  EXPECT_EQ(spec.DayTypeOverrideFor(15), -1);
}

TEST(ContextSpecTest, DayTypeOverrideNeverTouchesColumns) {
  // Day-type overrides edit the anchor-keyed broadcast rows, so they must
  // not mark any per-interval column as perturbed — the whole point of
  // effective-context keying is that a day-only context shares every
  // cached column with the base stream.
  ContextSpec spec;
  spec.DayType(1);
  EXPECT_FALSE(spec.TouchesColumn(0));
  EXPECT_FALSE(spec.TouchesColumn(1000));
  EXPECT_EQ(spec.DayTypeOverrideFor(123), 1);
}

TEST(ContextSpecTest, LastApplicableDayOverrideWins) {
  ContextSpec spec;
  ContextPerturbation everywhere;
  everywhere.kind = PerturbationKind::kDayTypeOverride;
  everywhere.value = 1.0f;
  ContextPerturbation windowed = everywhere;
  windowed.value = 2.0f;
  windowed.begin = 100;
  windowed.end = 200;
  spec.perturbations = {everywhere, windowed};
  EXPECT_EQ(spec.DayTypeOverrideFor(50), 1);   // only the first applies
  EXPECT_EQ(spec.DayTypeOverrideFor(150), 2);  // last applicable wins
}

// --- ContextTable -----------------------------------------------------

TEST(ContextTableTest, RegistrationValidation) {
  ContextTable table;
  ContextSpec ok;
  ok.SetEvent();
  EXPECT_FALSE(table.Register(0, ok).ok());  // id 0 is the live stream

  ContextSpec inverted;
  inverted.RainDelta(1.0f, 20, 10);
  EXPECT_FALSE(table.Register(1, inverted).ok());

  ContextSpec bad_day;
  bad_day.DayType(4);
  EXPECT_FALSE(table.Register(1, bad_day).ok());
  ContextSpec negative_day;
  negative_day.DayType(-1);
  EXPECT_FALSE(table.Register(1, negative_day).ok());

  ContextSpec infinite_rain;
  infinite_rain.RainDelta(std::numeric_limits<float>::infinity());
  EXPECT_FALSE(table.Register(1, infinite_rain).ok());
  ContextSpec nan_rain;
  nan_rain.RainDelta(std::numeric_limits<float>::quiet_NaN());
  EXPECT_FALSE(table.Register(1, nan_rain).ok());

  EXPECT_TRUE(table.Register(1, ok).ok());
  EXPECT_EQ(table.size(), 1u);
}

// --- ParseContextSpec -------------------------------------------------

TEST(ContextSpecGrammarTest, ParsesEveryPerturbationKind) {
  const struct {
    const char* text;
    PerturbationKind kind;
    float value;
  } cases[] = {
      {"clear-event", PerturbationKind::kClearEvent, 0.0f},
      {"set-event", PerturbationKind::kSetEvent, 0.0f},
      {"rain+10", PerturbationKind::kRainDelta, 10.0f},
      {"rain-2.5", PerturbationKind::kRainDelta, -2.5f},
      {"day=weekday", PerturbationKind::kDayTypeOverride, 0.0f},
      {"day=holiday", PerturbationKind::kDayTypeOverride, 1.0f},
      {"day=before-holiday", PerturbationKind::kDayTypeOverride, 2.0f},
      {"day=after-holiday", PerturbationKind::kDayTypeOverride, 3.0f},
      {"day=3", PerturbationKind::kDayTypeOverride, 3.0f},
  };
  for (const auto& c : cases) {
    const auto spec = ParseContextSpec(c.text);
    ASSERT_TRUE(spec.ok()) << c.text << ": " << spec.status().ToString();
    ASSERT_EQ(spec.value().perturbations.size(), 1u) << c.text;
    const ContextPerturbation& p = spec.value().perturbations[0];
    EXPECT_EQ(p.kind, c.kind) << c.text;
    EXPECT_EQ(p.value, c.value) << c.text;
    EXPECT_EQ(p.begin, 0) << c.text;
    EXPECT_EQ(p.end, std::numeric_limits<long>::max()) << c.text;
  }
}

TEST(ContextSpecGrammarTest, WindowsAndOrderSurvive) {
  const auto spec = ParseContextSpec(" set-event@290:300 , rain+5");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const auto& ps = spec.value().perturbations;
  ASSERT_EQ(ps.size(), 2u);
  EXPECT_EQ(ps[0].kind, PerturbationKind::kSetEvent);
  EXPECT_EQ(ps[0].begin, 290);
  EXPECT_EQ(ps[0].end, 300);
  EXPECT_EQ(ps[1].kind, PerturbationKind::kRainDelta);
  EXPECT_EQ(ps[1].value, 5.0f);
  EXPECT_EQ(ps[1].end, std::numeric_limits<long>::max());
}

TEST(ContextSpecGrammarTest, RejectsMalformedTokens) {
  for (const char* text :
       {"", "rain", "rain+x", "day=4", "day=-1", "day=sunday", "set-event@1",
        "set-event@1:2:3", "set-event@a:2", "clear-event,", "flood",
        "clear-event;set-event"}) {
    const auto spec = ParseContextSpec(text);
    ASSERT_FALSE(spec.ok()) << text;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(spec.status().message().find("bad perturbation"),
              std::string::npos)
        << text;
  }
}

TEST(ContextSpecGrammarTest, RegisterRefusesWhatTheGrammarLetsThrough) {
  ContextTable table;
  for (const char* text : {"rain+inf", "rain+nan", "set-event@300:290"}) {
    const auto spec = ParseContextSpec(text);
    ASSERT_TRUE(spec.ok()) << text;
    EXPECT_FALSE(table.Register(1, spec.value()).ok()) << text;
  }
  EXPECT_EQ(table.size(), 0u);
}

TEST(ContextTableTest, FindSnapshotAndReplace) {
  ContextTable table;
  ContextSpec rain;
  rain.RainDelta(10.0f);
  ASSERT_TRUE(table.Register(7, rain).ok());

  EXPECT_EQ(table.Find(0), nullptr);   // base resolves to "no overlay"
  EXPECT_EQ(table.Find(99), nullptr);  // unknown ids degrade, not fail
  auto found = table.Find(7);
  ASSERT_NE(found, nullptr);
  ASSERT_EQ(found->perturbations.size(), 1u);
  EXPECT_EQ(found->perturbations[0].kind, PerturbationKind::kRainDelta);

  // Re-registering swaps the whole spec, but the shared_ptr handed out
  // above stays valid — an in-flight fan-out never races a swap.
  ContextSpec event;
  event.SetEvent();
  ASSERT_TRUE(table.Register(7, event).ok());
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(found->perturbations[0].kind, PerturbationKind::kRainDelta);
  EXPECT_EQ(table.Find(7)->perturbations[0].kind,
            PerturbationKind::kSetEvent);

  const auto snapshot = table.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].first, 7u);
  EXPECT_EQ(snapshot[0].second.perturbations[0].kind,
            PerturbationKind::kSetEvent);
}

// --- Assembly-time overlays ------------------------------------------

class ContextAssemblyTest : public ::testing::Test {
 protected:
  // Row indices for num_adjacent = 1 (NumRows = 11): rows 0..2 speeds,
  // 3 event, 4 temperature, 5 precipitation, 6 hour, 7..10 day type.
  static constexpr int kEventRow = 3;
  static constexpr int kPrecipRow = 5;
  static constexpr int kDayRow = 7;

  void SetUp() override {
    apots::traffic::DatasetSpec spec;
    spec.num_roads = 3;
    spec.num_days = 2;
    spec.intervals_per_day = 96;
    spec.seed = 11;
    spec.hyundai_calendar = false;
    dataset_ = apots::traffic::GenerateDataset(spec);

    FeatureConfig config = FeatureConfig::Both(12, 3);
    config.num_adjacent = 1;
    assembler_ = std::make_unique<FeatureAssembler>(&dataset_, config);
    assembler_->Fit();
    ASSERT_EQ(assembler_->NumRows(), 11);
  }

  /// Assembles one anchor under `context` (null spec = base), optionally
  /// through `cache`, and returns the [1, rows, alpha] tensor.
  apots::tensor::Tensor Assemble(long anchor, const ResolvedContext* context,
                                 FeatureCache* cache = nullptr) const {
    apots::tensor::Tensor out(
        {1, static_cast<size_t>(assembler_->NumRows()),
         static_cast<size_t>(assembler_->alpha())});
    assembler_->AssembleBatchInto(&anchor, context, 1, cache, &out);
    return out;
  }

  static bool SameBits(const apots::tensor::Tensor& a,
                       const apots::tensor::Tensor& b) {
    return std::memcmp(a.data(), b.data(),
                       a.dim(0) * a.dim(1) * a.dim(2) * sizeof(float)) == 0;
  }

  apots::traffic::TrafficDataset dataset_;
  std::unique_ptr<FeatureAssembler> assembler_;
};

TEST_F(ContextAssemblyTest, NullContextsRowIsBitwiseBasePath) {
  const long anchor = 100;
  const apots::tensor::Tensor base = Assemble(anchor, nullptr);
  // An explicit all-base context row must be byte-for-byte the base path.
  const ResolvedContext none{0, nullptr};
  EXPECT_TRUE(SameBits(base, Assemble(anchor, &none)));
  // And BatchMatrix (the allocating, cache-free entry point) agrees too.
  EXPECT_TRUE(SameBits(base, assembler_->BatchMatrix({anchor})));
}

TEST_F(ContextAssemblyTest, EventOverlayForcesFlagBothWays) {
  const long anchor = 100;
  ContextSpec set;
  set.SetEvent();
  ContextSpec clear;
  clear.ClearEvent();
  const ResolvedContext set_ctx{1, &set};
  const ResolvedContext clear_ctx{2, &clear};
  const apots::tensor::Tensor forced = Assemble(anchor, &set_ctx);
  const apots::tensor::Tensor cleared = Assemble(anchor, &clear_ctx);
  for (int i = 0; i < assembler_->alpha(); ++i) {
    EXPECT_EQ(forced.At3(0, kEventRow, i), 1.0f);
    EXPECT_EQ(cleared.At3(0, kEventRow, i), 0.0f);
  }
  // The overlay edits only the event row: zero out both event rows and
  // the samples must agree bit for bit.
  apots::tensor::Tensor a = forced;
  apots::tensor::Tensor b = cleared;
  for (int i = 0; i < assembler_->alpha(); ++i) {
    a.At3(0, kEventRow, i) = 0.0f;
    b.At3(0, kEventRow, i) = 0.0f;
  }
  EXPECT_TRUE(SameBits(a, b));
}

TEST_F(ContextAssemblyTest, OrderedPerturbationsLastWriterWins) {
  const long anchor = 100;
  ContextSpec spec;
  spec.ClearEvent().SetEvent();  // later set wins on the overlap
  const ResolvedContext ctx{1, &spec};
  const apots::tensor::Tensor sample = Assemble(anchor, &ctx);
  for (int i = 0; i < assembler_->alpha(); ++i) {
    EXPECT_EQ(sample.At3(0, kEventRow, i), 1.0f);
  }
}

TEST_F(ContextAssemblyTest, RainDeltaClampsAtZero) {
  const long anchor = 100;
  ContextSpec dry;
  dry.RainDelta(-1e6f);
  ContextSpec drier;
  drier.RainDelta(-1e6f).RainDelta(-1e6f);
  const ResolvedContext dry_ctx{1, &dry};
  const ResolvedContext drier_ctx{2, &drier};
  // Both clamp every raw value to exactly 0mm before scaling, so the
  // assembled samples are bitwise identical — the clamp is a floor, not
  // an accumulator.
  EXPECT_TRUE(SameBits(Assemble(anchor, &dry_ctx),
                       Assemble(anchor, &drier_ctx)));

  // Against an anchor whose window actually has rain, drying it out must
  // change the precipitation row (monotone scaler) and nothing else. The
  // tiny fixture dataset may be dry end to end, so generate rainier ones
  // (more days, varying seed) until a wet window shows up —
  // deterministic, since generation is seeded.
  apots::traffic::DatasetSpec wet_spec;
  wet_spec.num_roads = 3;
  wet_spec.num_days = 8;
  wet_spec.intervals_per_day = 96;
  wet_spec.hyundai_calendar = false;
  long wet_anchor = -1;
  apots::traffic::TrafficDataset wet_dataset;
  for (uint32_t seed = 1; seed <= 20 && wet_anchor < 0; ++seed) {
    wet_spec.seed = seed;
    wet_dataset = apots::traffic::GenerateDataset(wet_spec);
    for (long a = assembler_->alpha();
         a + assembler_->beta() < wet_dataset.num_intervals(); ++a) {
      for (long t = a - assembler_->alpha(); t < a; ++t) {
        if (wet_dataset.Weather(t).precipitation_mm > 0.0f) {
          wet_anchor = a;
          break;
        }
      }
      if (wet_anchor >= 0) break;
    }
  }
  ASSERT_GE(wet_anchor, 0) << "no generated dataset had any rain";
  FeatureConfig config = FeatureConfig::Both(12, 3);
  config.num_adjacent = 1;
  FeatureAssembler wet_assembler(&wet_dataset, config);
  wet_assembler.Fit();
  apots::tensor::Tensor base(
      {1, static_cast<size_t>(wet_assembler.NumRows()),
       static_cast<size_t>(wet_assembler.alpha())});
  apots::tensor::Tensor dried = base;
  wet_assembler.AssembleBatchInto(&wet_anchor, nullptr, 1, nullptr, &base);
  wet_assembler.AssembleBatchInto(&wet_anchor, &dry_ctx, 1, nullptr,
                                  &dried);
  bool precip_changed = false;
  for (int i = 0; i < wet_assembler.alpha(); ++i) {
    EXPECT_LE(dried.At3(0, kPrecipRow, i), base.At3(0, kPrecipRow, i));
    if (dried.At3(0, kPrecipRow, i) != base.At3(0, kPrecipRow, i)) {
      precip_changed = true;
    }
  }
  EXPECT_TRUE(precip_changed);
}

TEST_F(ContextAssemblyTest, DayTypeOverrideWritesOneHot) {
  const long anchor = 100;
  ContextSpec holiday;
  holiday.DayType(1);
  const ResolvedContext ctx{1, &holiday};
  const apots::tensor::Tensor base = Assemble(anchor, nullptr);
  const apots::tensor::Tensor overridden = Assemble(anchor, &ctx);
  for (int i = 0; i < assembler_->alpha(); ++i) {
    EXPECT_EQ(overridden.At3(0, kDayRow + 0, i), 0.0f);
    EXPECT_EQ(overridden.At3(0, kDayRow + 1, i), 1.0f);
    EXPECT_EQ(overridden.At3(0, kDayRow + 2, i), 0.0f);
    EXPECT_EQ(overridden.At3(0, kDayRow + 3, i), 0.0f);
  }
  // Every per-interval row (everything above the day block) is untouched.
  EXPECT_EQ(std::memcmp(base.data(), overridden.data(),
                        static_cast<size_t>(kDayRow) *
                            static_cast<size_t>(assembler_->alpha()) *
                            sizeof(float)),
            0);
}

TEST_F(ContextAssemblyTest, WindowedPerturbationScopedToItsColumns) {
  const long anchor = 100;
  // The input window spans intervals [anchor - alpha, anchor); perturb
  // only the last three.
  ContextSpec spec;
  spec.SetEvent(anchor - 3, anchor);
  const ResolvedContext ctx{1, &spec};
  const apots::tensor::Tensor base = Assemble(anchor, nullptr);
  const apots::tensor::Tensor perturbed = Assemble(anchor, &ctx);
  const int alpha = assembler_->alpha();
  for (int i = 0; i < alpha; ++i) {
    const long t = anchor - alpha + i;
    if (t >= anchor - 3) {
      EXPECT_EQ(perturbed.At3(0, kEventRow, i), 1.0f) << "t=" << t;
    } else {
      EXPECT_EQ(perturbed.At3(0, kEventRow, i), base.At3(0, kEventRow, i))
          << "t=" << t;
    }
  }
}

TEST_F(ContextAssemblyTest, EffectiveContextKeyingSharesUntouchedColumns) {
  FeatureCache cache(256);
  const long anchor = 100;
  const int alpha = assembler_->alpha();

  // Cold base assembly: every column is a miss keyed context 0.
  Assemble(anchor, nullptr, &cache);
  EXPECT_EQ(cache.stats().misses, static_cast<uint64_t>(alpha));
  EXPECT_EQ(cache.stats().hits, 0u);

  // A day-type-only context touches no columns: all alpha lookups hit the
  // base entries — a counterfactual "as if holiday" costs zero assembly.
  ContextSpec holiday;
  holiday.DayType(1);
  const ResolvedContext holiday_ctx{5, &holiday};
  Assemble(anchor, &holiday_ctx, &cache);
  EXPECT_EQ(cache.stats().misses, static_cast<uint64_t>(alpha));
  EXPECT_EQ(cache.stats().hits, static_cast<uint64_t>(alpha));

  // A windowed rain context misses only its three touched columns; the
  // other alpha - 3 stay shared with base.
  ContextSpec rain;
  rain.RainDelta(10.0f, anchor - 3, anchor);
  const ResolvedContext rain_ctx{6, &rain};
  Assemble(anchor, &rain_ctx, &cache);
  EXPECT_EQ(cache.stats().misses, static_cast<uint64_t>(alpha + 3));
  EXPECT_EQ(cache.stats().hits, static_cast<uint64_t>(2 * alpha - 3));

  // Warm re-assembly of the same context is all hits, and stays bitwise
  // identical to a cold cacheless overlay assembly.
  const apots::tensor::Tensor warm = Assemble(anchor, &rain_ctx, &cache);
  EXPECT_EQ(cache.stats().misses, static_cast<uint64_t>(alpha + 3));
  EXPECT_TRUE(SameBits(warm, Assemble(anchor, &rain_ctx)));
}

// --- Heterogeneous inference (core::InferenceRuntime) -----------------

class ContextRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    apots::traffic::DatasetSpec spec;
    spec.num_roads = 3;
    spec.num_days = 2;
    spec.intervals_per_day = 96;
    spec.seed = 11;
    spec.hyundai_calendar = false;
    dataset_ = apots::traffic::GenerateDataset(spec);

    apots::core::ApotsConfig cfg;
    cfg.predictor = apots::core::PredictorHparams::Scaled(
        apots::core::PredictorType::kFc, 16);
    cfg.features = apots::data::FeatureConfig::Both(12, 3);
    cfg.features.num_adjacent = 1;
    cfg.training.adversarial = false;
    cfg.training.verbose = false;
    model_ = std::make_unique<apots::core::ApotsModel>(&dataset_, cfg);

    ContextSpec set;
    set.SetEvent();
    ASSERT_TRUE(table_.Register(kSetEvent, set).ok());
    ContextSpec clear;
    clear.ClearEvent();
    ASSERT_TRUE(table_.Register(kClearEvent, clear).ok());
    ContextSpec holiday;
    holiday.DayType(1);
    ASSERT_TRUE(table_.Register(kHoliday, holiday).ok());
    model_->SetContextTable(&table_);

    for (long a = 100; a < 116; ++a) anchors_.push_back(a);
  }

  static constexpr uint64_t kSetEvent = 1;
  static constexpr uint64_t kClearEvent = 2;
  static constexpr uint64_t kHoliday = 3;

  std::vector<apots::core::WorkItem> MixedItems() const {
    std::vector<apots::core::WorkItem> items;
    const uint64_t contexts[] = {0, kSetEvent, kClearEvent, kHoliday};
    for (const long anchor : anchors_) {
      for (const uint64_t context : contexts) {
        items.push_back({anchor, context});
      }
    }
    return items;
  }

  apots::traffic::TrafficDataset dataset_;
  ContextTable table_;
  std::unique_ptr<apots::core::ApotsModel> model_;
  std::vector<long> anchors_;
};

TEST_F(ContextRuntimeTest, AllBaseItemsBitwiseMatchPredict) {
  std::vector<apots::core::WorkItem> items;
  for (const long anchor : anchors_) items.push_back({anchor, 0});
  const std::vector<double> via_items = model_->PredictKmhItems(items);
  const std::vector<double> direct = model_->PredictKmh(anchors_);
  ASSERT_EQ(via_items.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(std::memcmp(&via_items[i], &direct[i], sizeof(double)), 0)
        << "anchor " << anchors_[i];
  }
  EXPECT_EQ(model_->inference_runtime().unknown_context_items(), 0u);
}

TEST_F(ContextRuntimeTest, MixedBatchKeepsBaseAnswersBitwise) {
  const std::vector<apots::core::WorkItem> items = MixedItems();
  const std::vector<double> mixed = model_->PredictKmhItems(items);
  const std::vector<double> direct = model_->PredictKmh(anchors_);
  ASSERT_EQ(mixed.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].context != 0) continue;
    const double base = direct[i / 4];  // 4 contexts per anchor
    EXPECT_EQ(std::memcmp(&mixed[i], &base, sizeof(double)), 0)
        << "anchor " << items[i].anchor;
  }
}

TEST_F(ContextRuntimeTest, CounterfactualsActuallyDiffer) {
  const long anchor = anchors_.front();
  const std::vector<double> out = model_->PredictKmhItems(
      {{anchor, kSetEvent}, {anchor, kClearEvent}});
  // Forcing the flag to 1 vs 0 across the whole window must move an
  // untrained-but-nonzero model: the two counterfactuals cannot agree.
  EXPECT_NE(out[0], out[1]);
}

TEST_F(ContextRuntimeTest, DeterministicAcrossInferenceConfigs) {
  const std::vector<apots::core::WorkItem> items = MixedItems();
  const std::vector<double> reference = model_->PredictKmhItems(items);

  apots::core::InferenceConfig config;
  config.batch_size = 1;
  model_->SetInferenceConfig(config);  // table survives the rebuild
  EXPECT_EQ(model_->PredictKmhItems(items), reference);

  config.batch_size = 7;  // ragged tail batch
  model_->SetInferenceConfig(config);
  EXPECT_EQ(model_->PredictKmhItems(items), reference);
  EXPECT_EQ(model_->PredictKmhItems(items), reference);  // warm cache

  apots::ResetGlobalPool(4);  // batches sharded across workers
  EXPECT_EQ(model_->PredictKmhItems(items), reference);
  config.batch_size = 1;
  model_->SetInferenceConfig(config);
  EXPECT_EQ(model_->PredictKmhItems(items), reference);
  apots::ResetGlobalPool(1);
}

TEST_F(ContextRuntimeTest, UnknownContextDegradesToBaseAndCounts) {
  const long anchor = anchors_.front();
  const std::vector<double> base = model_->PredictKmh({anchor});
  const std::vector<double> unknown =
      model_->PredictKmhItems({{anchor, 424242}});
  EXPECT_EQ(std::memcmp(&unknown[0], &base[0], sizeof(double)), 0);
  EXPECT_EQ(model_->inference_runtime().unknown_context_items(), 1u);

  // Detaching the table makes every nonzero id unknown.
  model_->SetContextTable(nullptr);
  const std::vector<double> detached =
      model_->PredictKmhItems({{anchor, kSetEvent}});
  EXPECT_EQ(std::memcmp(&detached[0], &base[0], sizeof(double)), 0);
  EXPECT_EQ(model_->inference_runtime().unknown_context_items(), 2u);
}

}  // namespace
}  // namespace apots::data
