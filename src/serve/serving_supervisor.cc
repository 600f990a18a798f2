#include "serve/serving_supervisor.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace apots::serve {

using apots::tensor::Tensor;

namespace {

/// Serving-path instruments (DESIGN.md §12): one counter per degradation
/// tier, the deadline-miss latency histogram, and protection counters.
struct ServeMetrics {
  obs::Counter* tiers[kNumServeTiers];  // pointers: arrays of references
                                        // are not a thing
  obs::Histogram& predict_ms;
  obs::Counter& requests;
  obs::Counter& failures;
  obs::Counter& deadline_misses;
  obs::Counter& deadline_degraded;
  obs::Counter& watchdog_trips;
  obs::Counter& checkpoints;
  obs::Gauge& max_staleness;
  static ServeMetrics& Get() {
    auto& registry = obs::MetricsRegistry::Default();
    static ServeMetrics* metrics = new ServeMetrics{
        {&registry.GetCounter("serve.tier_full"),
         &registry.GetCounter("serve.tier_imputed"),
         &registry.GetCounter("serve.tier_historical"),
         &registry.GetCounter("serve.tier_last_known_good")},
        registry.GetHistogram("serve.predict_ms"),
        registry.GetCounter("serve.requests"),
        registry.GetCounter("serve.failures"),
        registry.GetCounter("serve.deadline_misses"),
        registry.GetCounter("serve.deadline_degraded"),
        registry.GetCounter("serve.watchdog_trips"),
        registry.GetCounter("serve.checkpoints_written"),
        registry.GetGauge("serve.max_staleness"),
    };
    return *metrics;
  }
};

}  // namespace

const char* ServeTierName(ServeTier tier) {
  switch (tier) {
    case ServeTier::kFull:
      return "full";
    case ServeTier::kImputed:
      return "imputed";
    case ServeTier::kHistorical:
      return "historical";
    case ServeTier::kLastKnownGood:
      return "last-known-good";
  }
  return "unknown";
}

void ServeReport::MergeFrom(const ServeReport& other) {
  requests += other.requests;
  for (int i = 0; i < kNumServeTiers; ++i) {
    tier_counts[i] += other.tier_counts[i];
  }
  failures += other.failures;
  deadline_misses += other.deadline_misses;
  deadline_degraded += other.deadline_degraded;
  watchdog_trips += other.watchdog_trips;
  checkpoints_written += other.checkpoints_written;
  max_staleness = std::max(max_staleness, other.max_staleness);
}

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ServeWatchdog::ServeWatchdog(double timeout_ms,
                             std::function<int64_t()> now_ns)
    : timeout_ms_(timeout_ms), now_ns_(std::move(now_ns)) {
  APOTS_CHECK(timeout_ms_ > 0.0);
  thread_ = std::thread([this] { Run(); });
}

int64_t ServeWatchdog::Now() const {
  return now_ns_ ? now_ns_() : SteadyNowNs();
}

ServeWatchdog::~ServeWatchdog() {
  quit_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void ServeWatchdog::Arm() {
  armed_at_ns_.store(Now(), std::memory_order_release);
  tripped_this_flight_.store(false, std::memory_order_release);
  in_flight_.store(true, std::memory_order_release);
}

void ServeWatchdog::Disarm() {
  in_flight_.store(false, std::memory_order_release);
}

bool ServeWatchdog::ConsumeStuck() {
  return stuck_.exchange(false, std::memory_order_acq_rel);
}

void ServeWatchdog::Run() {
  // Sample at a quarter of the timeout so a stall is noticed within ~1.25
  // timeouts; floor the period to keep the sampler from busy-spinning.
  const auto period = std::chrono::microseconds(
      std::max<int64_t>(200, static_cast<int64_t>(timeout_ms_ * 250.0)));
  while (!quit_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(period);
    if (!in_flight_.load(std::memory_order_acquire)) continue;
    if (tripped_this_flight_.load(std::memory_order_acquire)) continue;
    const double elapsed_ms =
        static_cast<double>(Now() -
                            armed_at_ns_.load(std::memory_order_acquire)) /
        1e6;
    if (elapsed_ms > timeout_ms_) {
      tripped_this_flight_.store(true, std::memory_order_release);
      stuck_.store(true, std::memory_order_release);
      trips_.fetch_add(1, std::memory_order_relaxed);
      ServeMetrics::Get().watchdog_trips.Add();
    }
  }
}

ServingSupervisor::ServingSupervisor(
    apots::core::ApotsModel* model, StreamIngestor* ingestor,
    const apots::baseline::HistoricalAverage* fallback, ServeConfig config)
    : model_(model),
      ingestor_(ingestor),
      fallback_(fallback),
      config_(std::move(config)),
      last_checkpoint_tick_(ingestor == nullptr ? 0 : ingestor->watermark()) {
  APOTS_CHECK(model != nullptr);
  APOTS_CHECK(ingestor != nullptr);
  APOTS_CHECK(fallback != nullptr);
  APOTS_CHECK(config_.t1_fresh <= config_.t2_imputed &&
              config_.t2_imputed <= config_.t3_outage);
  const auto& features = model_->config().features;
  const int target = model_->assembler().target_road();
  const int roads = model_->assembler().dataset().num_roads();
  const int m = features.use_adjacent ? features.num_adjacent : 0;
  for (int road = std::max(0, target - m);
       road <= std::min(roads - 1, target + m); ++road) {
    window_roads_.push_back(road);
  }
  if (!config_.checkpoint_dir.empty()) {
    store_ = std::make_unique<apots::nn::CheckpointStore>(
        config_.checkpoint_dir, config_.checkpoint_keep);
  }
  if (config_.watchdog_timeout_ms > 0.0) {
    watchdog_ = std::make_unique<ServeWatchdog>(config_.watchdog_timeout_ms,
                                                config_.now_ns);
  }
  // Contexts registered on this supervisor resolve inside the model's
  // runtime (and survive SetInferenceConfig rebuilds via the model).
  model_->SetContextTable(&context_table_);
}

ServingSupervisor::~ServingSupervisor() {
  // The model outlives the supervisor by contract; drop the borrow so a
  // later direct PredictItems on the model cannot read freed table state.
  model_->SetContextTable(nullptr);
}

Status ServingSupervisor::RegisterContext(uint64_t id,
                                          apots::data::ContextSpec spec) {
  return context_table_.Register(id, std::move(spec));
}

int64_t ServingSupervisor::Now() const {
  return config_.now_ns ? config_.now_ns() : SteadyNowNs();
}

long ServingSupervisor::WindowStaleness(long anchor) const {
  // Staleness is tracked at the watermark; shift to the anchor's frame so
  // backfill anchors (older than the watermark) are not over-penalized.
  const long shift = anchor - ingestor_->watermark();
  long worst = 0;
  for (const int road : window_roads_) {
    worst = std::max(worst, ingestor_->Staleness(road) + shift);
  }
  return std::max(0L, worst);
}

ServeTier ServingSupervisor::TierFor(long anchor) const {
  const long staleness = WindowStaleness(anchor);
  if (staleness <= config_.t1_fresh) return ServeTier::kFull;
  if (staleness <= config_.t2_imputed) return ServeTier::kImputed;
  if (staleness <= config_.t3_outage) return ServeTier::kHistorical;
  return ServeTier::kLastKnownGood;
}

double ServingSupervisor::LastKnownGood(long target_interval) {
  const auto& dataset = model_->assembler().dataset();
  const double profile = fallback_->Predict(dataset, target_interval);
  if (!has_lkg_) return profile;
  // Carry the last fresh neural residual over the profile, decayed toward
  // pure profile as the outage ages — the standard "decay to climatology"
  // rule for dead sensors.
  const long age = std::max(0L, target_interval - lkg_interval_);
  const double residual = lkg_kmh_ - lkg_profile_kmh_;
  return profile + residual * std::pow(config_.lkg_decay, age);
}

std::vector<ServeResponse> ServingSupervisor::Predict(
    const std::vector<long>& anchors) {
  return Predict(anchors, config_.deadline_ms);
}

std::vector<ServeResponse> ServingSupervisor::Predict(
    const std::vector<long>& anchors, double deadline_ms) {
  std::vector<apots::core::WorkItem> items(anchors.size());
  for (size_t i = 0; i < anchors.size(); ++i) {
    items[i].anchor = anchors[i];
  }
  return PredictItems(items, deadline_ms);
}

std::vector<ServeResponse> ServingSupervisor::PredictItems(
    const std::vector<apots::core::WorkItem>& items) {
  return PredictItems(items, config_.deadline_ms);
}

std::vector<ServeResponse> ServingSupervisor::PredictItems(
    const std::vector<apots::core::WorkItem>& items, double deadline_ms) {
  // Deadline accounting reads the injectable clock (not Stopwatch) so
  // chaos clock-skew drills observe deterministic elapsed times.
  const int64_t call_start_ns = Now();
  obs::TraceSpan span("serve.predict");
  obs::ScopedTimer call_timer(ServeMetrics::Get().predict_ms);
  ServeMetrics::Get().requests.Add(items.size());
  const auto& assembler = model_->assembler();
  const auto& dataset = assembler.dataset();
  const long intervals = dataset.num_intervals();
  const long alpha = assembler.alpha();
  const long beta = assembler.beta();

  std::vector<ServeResponse> responses(items.size());
  report_.requests += items.size();

  // A watchdog trip reported since the last call means the inference path
  // stalled; protect this call by keeping it off the neural tiers.
  const bool stuck = watchdog_ != nullptr && watchdog_->ConsumeStuck();

  std::vector<size_t> neural_index;
  std::vector<apots::core::WorkItem> neural_items;
  neural_index.reserve(items.size());
  neural_items.reserve(items.size());

  for (size_t i = 0; i < items.size(); ++i) {
    const long anchor = items[i].anchor;
    ServeResponse& resp = responses[i];
    resp.staleness = WindowStaleness(anchor);
    report_.max_staleness = std::max(report_.max_staleness, resp.staleness);
    if (anchor - alpha < 0 || anchor + beta >= intervals) {
      // No tier can honestly serve this anchor: the window or the target
      // falls outside the dataset.
      ++report_.failures;
      ServeMetrics::Get().failures.Add();
      const long clamped =
          std::min(std::max(anchor + beta, 0L), intervals - 1);
      resp.kmh = intervals > 0 ? fallback_->Predict(dataset, clamped) : 0.0;
      resp.tier = ServeTier::kHistorical;
      continue;
    }
    resp.tier = TierFor(anchor);
    if (stuck && (resp.tier == ServeTier::kFull ||
                  resp.tier == ServeTier::kImputed)) {
      resp.tier = ServeTier::kHistorical;
    }
    if (resp.tier == ServeTier::kFull || resp.tier == ServeTier::kImputed) {
      neural_index.push_back(i);
      neural_items.push_back(items[i]);
    }
  }

  // Deadline pre-check: when the EMA cost model projects the neural batch
  // over budget, serve those anchors from the (cheap) historical tier
  // instead of blowing the deadline on a forward pass.
  if (deadline_ms > 0.0 && ema_ms_per_anchor_ > 0.0 &&
      !neural_items.empty()) {
    const double projected =
        ema_ms_per_anchor_ * static_cast<double>(neural_items.size());
    if (projected > deadline_ms) {
      report_.deadline_degraded += neural_items.size();
      ServeMetrics::Get().deadline_degraded.Add(neural_items.size());
      for (const size_t i : neural_index) {
        responses[i].tier = ServeTier::kHistorical;
      }
      neural_index.clear();
      neural_items.clear();
    }
  }

  if (!neural_items.empty()) {
    const int64_t neural_start_ns = Now();
    if (watchdog_ != nullptr) watchdog_->Arm();
    if (inference_delay_for_test_) inference_delay_for_test_();
    // An all-context-0 item set takes the exact Predict code path inside
    // the runtime, so live serving stays bitwise unchanged.
    const Tensor scaled =
        model_->inference_runtime().PredictItems(neural_items);
    if (watchdog_ != nullptr) watchdog_->Disarm();
    const double per_anchor =
        static_cast<double>(Now() - neural_start_ns) / 1e6 /
        static_cast<double>(neural_items.size());
    ema_ms_per_anchor_ = ema_ms_per_anchor_ == 0.0
                             ? per_anchor
                             : 0.7 * ema_ms_per_anchor_ + 0.3 * per_anchor;
    for (size_t j = 0; j < neural_index.size(); ++j) {
      // Same float->double conversion as ApotsModel::PredictKmh: bitwise
      // identical to the direct runtime path.
      responses[neural_index[j]].kmh =
          assembler.UnscaleSpeed(scaled[j]);
    }
  }

  long freshest_full = -1;
  size_t freshest_idx = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    const long anchor = items[i].anchor;
    ServeResponse& resp = responses[i];
    switch (resp.tier) {
      case ServeTier::kFull:
        // Only the live context feeds last-known-good: a counterfactual
        // full-tier answer must never leak into base serving state.
        if (items[i].context == 0 && anchor > freshest_full) {
          freshest_full = anchor;
          freshest_idx = i;
        }
        break;
      case ServeTier::kImputed:
        break;  // neural value already written
      case ServeTier::kHistorical:
        // Failure anchors (window/target out of range) already hold the
        // clamped profile value; in-range anchors get the real one.
        if (anchor - alpha >= 0 && anchor + beta < intervals) {
          resp.kmh = fallback_->Predict(dataset, anchor + beta);
        }
        break;
      case ServeTier::kLastKnownGood:
        resp.kmh = LastKnownGood(anchor + beta);
        break;
    }
    ++report_.tier_counts[static_cast<int>(resp.tier)];
    ServeMetrics::Get().tiers[static_cast<int>(resp.tier)]->Add();
  }
  ServeMetrics::Get().max_staleness.Set(
      static_cast<double>(report_.max_staleness));

  // Remember the freshest full-tier response as last-known-good.
  if (freshest_full >= 0) {
    const long target = freshest_full + beta;
    has_lkg_ = true;
    lkg_kmh_ = responses[freshest_idx].kmh;
    lkg_profile_kmh_ = fallback_->Predict(dataset, target);
    lkg_interval_ = target;
  }

  const double elapsed =
      static_cast<double>(Now() - call_start_ns) / 1e6;
  if (deadline_ms > 0.0 && elapsed > deadline_ms) {
    ++report_.deadline_misses;
    ServeMetrics::Get().deadline_misses.Add();
    for (ServeResponse& resp : responses) resp.deadline_miss = true;
  }
  return responses;
}

bool ServingSupervisor::MaybeCheckpoint(long tick) {
  if (store_ == nullptr || config_.checkpoint_every <= 0) return false;
  if (tick - last_checkpoint_tick_ < config_.checkpoint_every) return false;
  const Status status = CheckpointNow();
  if (!status.ok()) {
    APOTS_LOG(Warning) << "serving checkpoint failed: " << status.ToString();
  }
  return status.ok();
}

Status ServingSupervisor::CheckpointNow() {
  if (store_ == nullptr) {
    return Status::FailedPrecondition(
        "no checkpoint store configured (ServeConfig.checkpoint_dir empty)");
  }
  auto saved = store_->Save(model_->TrainableParameters(),
                            ingestor_->SerializeState());
  last_checkpoint_status_ = saved.status();
  if (!saved.ok()) return saved.status();
  ++report_.checkpoints_written;
  ServeMetrics::Get().checkpoints.Add();
  last_checkpoint_tick_ = ingestor_->watermark();
  return Status::Ok();
}

Result<apots::nn::CheckpointStore::RecoverInfo> ServingSupervisor::Recover() {
  if (store_ == nullptr) {
    return Status::FailedPrecondition(
        "no checkpoint store configured (ServeConfig.checkpoint_dir empty)");
  }
  auto recovered = model_->Recover(*store_);
  if (!recovered.ok()) return recovered.status();
  APOTS_RETURN_IF_ERROR(
      ingestor_->RestoreState(recovered.value().aux));
  return std::move(recovered).value();
}

const ServeReport& ServingSupervisor::report() const {
  if (watchdog_ != nullptr) report_.watchdog_trips = watchdog_->trips();
  return report_;
}

}  // namespace apots::serve
