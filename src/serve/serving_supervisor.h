#ifndef APOTS_SERVE_SERVING_SUPERVISOR_H_
#define APOTS_SERVE_SERVING_SUPERVISOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baseline/historical_average.h"
#include "core/apots_model.h"
#include "data/context.h"
#include "nn/checkpoint.h"
#include "serve/stream_ingestor.h"
#include "util/status.h"

namespace apots::serve {

/// How a prediction was produced, from best to worst. The ladder degrades
/// by *input staleness*: a model is only as good as the window it reads.
enum class ServeTier {
  kFull = 0,       ///< fresh window, full APOTS prediction
  kImputed,        ///< APOTS over an imputed window — flagged degraded
  kHistorical,     ///< window too stale for the model: time-of-day profile
  kLastKnownGood,  ///< total outage: last good residual, decayed
};
constexpr int kNumServeTiers = 4;
const char* ServeTierName(ServeTier tier);

/// Ladder thresholds and protection limits, in watermark ticks / wall ms.
struct ServeConfig {
  /// Worst window-road staleness up to which the window counts as fresh.
  long t1_fresh = 2;
  /// ... up to which APOTS still runs over the imputed window (LOCF keeps
  /// short gaps honest; beyond this the window is mostly fabricated).
  long t2_imputed = 12;
  /// ... up to which the historical profile is served; beyond it the road
  /// is in total outage and only the decayed last-known-good remains.
  long t3_outage = 96;

  /// Per-Predict wall budget in ms; 0 = unbounded. When the cost model
  /// projects an overrun, neural anchors are served from the historical
  /// tier instead (cheap, no forward pass).
  double deadline_ms = 0.0;
  /// Stuck-worker watchdog: a neural inference exceeding this trips the
  /// watchdog thread and the *next* Predict degrades to historical while
  /// the flag is up. 0 disables the watchdog.
  double watchdog_timeout_ms = 0.0;

  /// Checkpoint every N watermark ticks through MaybeCheckpoint; 0 never.
  long checkpoint_every = 0;
  std::string checkpoint_dir;
  int checkpoint_keep = 3;

  /// Last-known-good residual decay per tick of age.
  double lkg_decay = 0.9;

  /// Injectable monotonic clock in nanoseconds; null means
  /// std::chrono::steady_clock. Every time read on the serving path — the
  /// per-call deadline measurement, the EMA cost model, the watchdog's
  /// armed-at stamps, and the frontend's admission deadlines — goes
  /// through this, so chaos clock-skew drills can shift one replica's
  /// notion of time deterministically.
  std::function<int64_t()> now_ns;
};

/// One served prediction.
struct ServeResponse {
  double kmh = 0.0;
  ServeTier tier = ServeTier::kFull;
  long staleness = 0;        ///< worst window-road staleness at serve time
  bool deadline_miss = false;
};

/// Aggregate serving health; availability is the headline SLO.
struct ServeReport {
  uint64_t requests = 0;
  uint64_t tier_counts[kNumServeTiers] = {0, 0, 0, 0};
  uint64_t failures = 0;           ///< anchors no tier could serve
  uint64_t deadline_misses = 0;    ///< Predict calls over budget
  uint64_t deadline_degraded = 0;  ///< anchors pre-degraded to meet it
  uint64_t watchdog_trips = 0;
  uint64_t checkpoints_written = 0;
  long max_staleness = 0;

  /// Fraction of requests answered by *some* tier.
  double availability() const {
    return requests == 0
               ? 1.0
               : 1.0 - static_cast<double>(failures) / requests;
  }
  void MergeFrom(const ServeReport& other);
};

/// Background stall detector for the inference path. The serving thread
/// arms it around each neural batch; a sampler thread trips when one
/// batch overstays the timeout. Communication is lock-free (atomics
/// only) so the hot path never blocks on the watchdog.
class ServeWatchdog {
 public:
  /// `now_ns` must match the clock the serving thread stamps Arm() with;
  /// null means steady_clock (the production default).
  explicit ServeWatchdog(double timeout_ms,
                         std::function<int64_t()> now_ns = nullptr);
  ~ServeWatchdog();

  ServeWatchdog(const ServeWatchdog&) = delete;
  ServeWatchdog& operator=(const ServeWatchdog&) = delete;

  void Arm();
  void Disarm();
  /// True when a stall was detected since the last call; clears the flag.
  bool ConsumeStuck();
  uint64_t trips() const { return trips_.load(std::memory_order_relaxed); }

 private:
  void Run();
  int64_t Now() const;

  const double timeout_ms_;
  const std::function<int64_t()> now_ns_;
  std::atomic<bool> quit_{false};
  std::atomic<bool> in_flight_{false};
  std::atomic<bool> tripped_this_flight_{false};
  std::atomic<bool> stuck_{false};
  std::atomic<int64_t> armed_at_ns_{0};
  std::atomic<uint64_t> trips_{0};
  std::thread thread_;
};

/// Fault-tolerant serving facade over a trained ApotsModel.
///
/// Per anchor, the supervisor reads the worst staleness across the roads
/// feeding the anchor's input window and picks the tier (see ServeTier).
/// Fresh and imputed anchors share one batched pass through the model's
/// InferenceRuntime — with faults disabled, responses are bitwise
/// identical to InferenceRuntime::Predict because subset batching is
/// bitwise-stable (DESIGN.md §10) and the km/h conversion is the same
/// float->double path ApotsModel::PredictKmh uses.
///
/// Protection: a per-call deadline degrades neural anchors to the
/// historical tier when the EMA cost model projects an overrun, and the
/// watchdog degrades the call after a stuck inference. Checkpoints
/// (weights + ingestor state as the aux blob) are atomic and
/// generation-retained; Recover() restores the newest uncorrupted
/// generation and the ingestor watermark.
class ServingSupervisor {
 public:
  /// All borrowed; must outlive the supervisor. `fallback` must be fitted
  /// (it backs the historical and last-known-good tiers).
  ServingSupervisor(apots::core::ApotsModel* model, StreamIngestor* ingestor,
                    const apots::baseline::HistoricalAverage* fallback,
                    ServeConfig config);
  ~ServingSupervisor();

  /// Serves one batch of anchors. Never throws and never aborts on a
  /// servable anchor; anchors whose window or target falls outside the
  /// dataset are counted as failures and answered with the profile's
  /// nearest in-range value (or 0 when even that is impossible).
  std::vector<ServeResponse> Predict(const std::vector<long>& anchors);

  /// Same, under a caller-supplied wall budget instead of the configured
  /// one — the front door propagates the tightest remaining per-request
  /// deadline of a coalesced batch through here so the EMA pre-degradation
  /// model protects real request deadlines, not just the static config.
  /// `deadline_ms <= 0` means unbounded (identical to deadline-free
  /// config; the clean path stays bitwise unchanged).
  std::vector<ServeResponse> Predict(const std::vector<long>& anchors,
                                     double deadline_ms);

  /// Heterogeneous (anchor, context) batch — the counterfactual what-if
  /// serving path. The staleness ladder, deadline pre-degradation, and
  /// watchdog apply per anchor exactly as in Predict (a counterfactual
  /// reads the same live window); neural tiers evaluate under the item's
  /// registered context, while the degraded tiers answer from the base
  /// historical profile (counterfactuals perturb model inputs, not the
  /// time-of-day climatology). Context-0 items are bitwise identical to
  /// Predict, and only context-0 full-tier responses feed the
  /// last-known-good state — counterfactual traffic never pollutes live
  /// serving state.
  std::vector<ServeResponse> PredictItems(
      const std::vector<apots::core::WorkItem>& items);
  std::vector<ServeResponse> PredictItems(
      const std::vector<apots::core::WorkItem>& items, double deadline_ms);

  /// Registers (or replaces) counterfactual context `id` on this
  /// supervisor's table. The table is attached to the served model's
  /// runtime at construction, so registered ids resolve on the next
  /// PredictItems without any further wiring.
  Status RegisterContext(uint64_t id, apots::data::ContextSpec spec);
  const apots::data::ContextTable& context_table() const {
    return context_table_;
  }

  /// Tier the ladder would assign to `anchor` right now.
  ServeTier TierFor(long anchor) const;
  /// Worst staleness across the roads feeding `anchor`'s window.
  long WindowStaleness(long anchor) const;

  /// Writes a checkpoint when `checkpoint_every` ticks elapsed since the
  /// last one. Returns true when a checkpoint was written.
  bool MaybeCheckpoint(long tick);
  /// Unconditional checkpoint (weights + ingestor state).
  Status CheckpointNow();
  /// Restores weights and ingestor state from the newest readable
  /// generation; falls back generation by generation on corruption. The
  /// weights go through ApotsModel::Recover, so a quantized model serves
  /// packs of the restored weights.
  Result<apots::nn::CheckpointStore::RecoverInfo> Recover();

  const ServeReport& report() const;
  const ServeConfig& config() const { return config_; }
  /// The profile backing the degraded tiers (borrowed). Exposed so the
  /// front door can answer overload sheds from the ladder's historical
  /// tier without entering Predict: the profile is immutable after Fit and
  /// reads only the dataset's calendar, so this is safe from any thread.
  const apots::baseline::HistoricalAverage& fallback() const {
    return *fallback_;
  }
  /// Read-only view of the served model (window geometry, dataset).
  const apots::core::ApotsModel& model() const { return *model_; }
  const Status& last_checkpoint_status() const {
    return last_checkpoint_status_;
  }
  apots::nn::CheckpointStore* checkpoint_store() { return store_.get(); }

  /// Test hook: runs inside every neural inference section (e.g. a sleep
  /// to trip the watchdog). Not for production use.
  void set_inference_delay_for_test(std::function<void()> hook) {
    inference_delay_for_test_ = std::move(hook);
  }

 private:
  double LastKnownGood(long target_interval);
  int64_t Now() const;

  apots::core::ApotsModel* model_;                          // not owned
  StreamIngestor* ingestor_;                                // not owned
  const apots::baseline::HistoricalAverage* fallback_;      // not owned
  ServeConfig config_;
  /// Registered counterfactual contexts; attached to the model's runtime
  /// for the supervisor's lifetime (detached in the destructor).
  apots::data::ContextTable context_table_;
  /// Roads feeding the target's input window (sorted): the model's own
  /// window, the index range [target-m, target+m] the FeatureAssembler
  /// reads.
  std::vector<int> window_roads_;
  std::unique_ptr<apots::nn::CheckpointStore> store_;
  std::unique_ptr<ServeWatchdog> watchdog_;
  mutable ServeReport report_;
  Status last_checkpoint_status_;
  long last_checkpoint_tick_;
  /// EMA of neural cost per anchor, feeding the deadline projection.
  double ema_ms_per_anchor_ = 0.0;
  /// Last-known-good state: the newest fresh neural response.
  bool has_lkg_ = false;
  double lkg_kmh_ = 0.0;
  double lkg_profile_kmh_ = 0.0;
  long lkg_interval_ = 0;
  std::function<void()> inference_delay_for_test_;
};

}  // namespace apots::serve

#endif  // APOTS_SERVE_SERVING_SUPERVISOR_H_
