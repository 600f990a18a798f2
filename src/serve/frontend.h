#ifndef APOTS_SERVE_FRONTEND_H_
#define APOTS_SERVE_FRONTEND_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "serve/serving_supervisor.h"
#include "util/mpsc_queue.h"

namespace apots::serve {

/// Knobs of the front-door request path (DESIGN.md §14). The defaults
/// suit the load bench; tests flip `background` off and pump RunCycle()
/// by hand for deterministic schedules.
struct FrontendConfig {
  /// Bounded MPSC ring slots (rounded up to a power of two, min 2). A
  /// full ring sheds at admission — memory is bounded by construction.
  size_t queue_capacity = 4096;
  /// Coalesced keys drained into one supervisor batch per cycle.
  size_t max_batch = 64;
  /// Per-request wall budget applied when a request does not carry its
  /// own; 0 = no deadline.
  double default_deadline_ms = 0.0;
  /// Spawn the serving thread. When false, no thread is started and the
  /// owner must pump RunCycle() — the deterministic mode tests use.
  bool background = true;
  /// Consumer backoff once the yield budget is spent on an empty queue.
  double idle_sleep_us = 100.0;
};

/// Clamps edge values to the nearest working configuration (mirrors
/// core::SanitizeInferenceConfig): `queue_capacity` < 2 -> 2, `max_batch`
/// 0 -> 1, negative deadline/idle times -> 0.
FrontendConfig SanitizeFrontendConfig(FrontendConfig config);

/// How the front door disposed of one request, from best to worst.
enum class RequestOutcome {
  kServed = 0,    ///< answered by a supervisor batch it occupied a slot in
  kCoalesced,     ///< shared another in-flight request's inference bits
  kShedDeadline,  ///< deadline expired before a batch slot: ladder answer
  kShedOverload,  ///< queue full (or stopped) at admission: ladder answer
};
constexpr int kNumRequestOutcomes = 4;
const char* RequestOutcomeName(RequestOutcome outcome);

/// One client query. `context` scopes both coalescing (requests merge
/// only within the same context) and evaluation: context 0 is the live
/// stream, and a nonzero id is answered under the counterfactual context
/// registered on the supervisor (DESIGN.md §17) — its deadline sheds fall
/// back to the same context-agnostic ladder as live traffic. An
/// unregistered nonzero id degrades to the live answer.
struct FrontendRequest {
  long anchor = 0;
  uint64_t context = 0;
  /// Wall budget for this request; < 0 uses the config default, 0 means
  /// no deadline.
  double deadline_ms = -1.0;
};

struct FrontendResponse {
  ServeResponse serve;
  RequestOutcome outcome = RequestOutcome::kServed;
  double queue_ms = 0.0;  ///< admission -> drained by the serving thread
  double total_ms = 0.0;  ///< admission -> response ready
};

/// Monotonic front-door accounting. Every submitted request is answered
/// exactly once: submitted == served + coalesce_hits + shed_deadline +
/// shed_overload once the queue is drained.
struct FrontendStats {
  uint64_t submitted = 0;
  uint64_t served = 0;
  uint64_t coalesce_hits = 0;
  uint64_t shed_deadline = 0;
  uint64_t shed_overload = 0;
  uint64_t cycles = 0;           ///< drain cycles that found >= 1 request
  uint64_t inference_calls = 0;  ///< supervisor batches issued
  uint64_t inferred_keys = 0;    ///< unique keys sent to inference
  uint64_t max_queue_depth = 0;

  uint64_t answered() const {
    return served + coalesce_hits + shed_deadline + shed_overload;
  }
  uint64_t sheds() const { return shed_deadline + shed_overload; }
  double shed_rate() const {
    return submitted == 0
               ? 0.0
               : static_cast<double>(sheds()) /
                     static_cast<double>(submitted);
  }
  /// Fraction of answered requests that rode another request's inference.
  double coalesce_rate() const {
    const uint64_t total = answered();
    return total == 0 ? 0.0
                      : static_cast<double>(coalesce_hits) /
                            static_cast<double>(total);
  }
};

class Frontend;

/// Completion handle for one submitted request. The response is written
/// once by the serving (or shedding) thread and published with a release
/// store; Wait blocks on the atomic flag, so a waiter never spins against
/// an in-flight inference.
class PendingResponse {
 public:
  const FrontendResponse& Wait() {
    ready_.wait(false, std::memory_order_acquire);
    return response_;
  }
  bool ready() const { return ready_.load(std::memory_order_acquire); }
  const FrontendRequest& request() const { return request_; }

 private:
  friend class Frontend;
  FrontendRequest request_;
  int64_t enqueue_ns = 0;
  int64_t deadline_ns = 0;  ///< 0 = none
  FrontendResponse response_;
  std::atomic<bool> ready_{false};
};

/// The concurrent client-facing request path (DESIGN.md §14): a bounded
/// lock-free MPSC queue feeding the supervisor's batched inference path
/// (and through it the core::InferenceRuntime batch grid), with
///
///   * admission control — a full queue sheds the request to the
///     staleness ladder's historical tier at submit time, on the producer
///     thread, with no blocking and no unbounded buffering;
///   * request coalescing — duplicate in-flight (anchor, context) queries
///     drained in one cycle share one inference slot and receive the same
///     bits;
///   * deadline propagation — a request past its deadline at drain time
///     is answered from the ladder instead of occupying a batch slot, and
///     the tightest surviving deadline bounds the supervisor batch via
///     its EMA pre-degradation model.
///
/// Thread contract: any number of producers may Submit concurrently; the
/// single consumer (the background thread, or the RunCycle caller in
/// manual mode) is the only thread that touches the supervisor's Predict
/// path. Clean-path responses are bitwise identical to
/// InferenceRuntime::Predict because the supervisor's full tier is
/// (DESIGN.md §11) and the fan-out copies the double unchanged.
class Frontend {
 public:
  /// `supervisor` is borrowed and must outlive the frontend; its Predict
  /// must not be called by anyone else while the frontend is running.
  Frontend(ServingSupervisor* supervisor, FrontendConfig config);
  ~Frontend();

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Non-blocking admission: enqueues and returns a completion handle.
  /// On a full queue (or after Stop) the handle is already completed with
  /// a ladder answer and outcome kShedOverload.
  std::shared_ptr<PendingResponse> SubmitAsync(
      const FrontendRequest& request);

  /// SubmitAsync + Wait.
  FrontendResponse Submit(const FrontendRequest& request);

  /// Drains up to max_batch requests, sheds expired deadlines, coalesces,
  /// runs one supervisor batch, fans results out. Returns the number of
  /// requests drained (0 = queue was empty). Consumer-side only: called
  /// by the background thread, or by the owner in manual mode.
  size_t RunCycle();

  /// Stops accepting work (new submits shed), joins the serving thread,
  /// and answers everything still queued so no waiter hangs. Safe to call
  /// twice. Callers must not race Submit against Stop.
  void Stop();

  FrontendStats stats() const;
  /// Racy snapshot of the current queue depth.
  size_t queue_depth() const {
    return depth_.load(std::memory_order_relaxed);
  }
  const FrontendConfig& config() const { return config_; }

  /// Test hook: replaces the steady clock (ns) for deterministic deadline
  /// schedules. Set before any Submit; manual mode only.
  void set_clock_for_test(std::function<int64_t()> now_ns) {
    clock_ = std::move(now_ns);
  }

 private:
  int64_t NowNs() const;
  void Run();
  /// Cheapest ladder tier for sheds: the historical time-of-day profile.
  /// Reads only immutable state, so producers may call it at admission.
  ServeResponse LadderAnswer(long anchor) const;
  void Complete(PendingResponse* pending, const ServeResponse& serve,
                RequestOutcome outcome, int64_t drained_ns,
                int64_t done_ns);

  ServingSupervisor* supervisor_;  // not owned
  FrontendConfig config_;
  long beta_;
  MpscBoundedQueue<std::shared_ptr<PendingResponse>> queue_;
  std::atomic<size_t> depth_{0};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> quit_{false};
  std::function<int64_t()> clock_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> coalesce_hits_{0};
  std::atomic<uint64_t> shed_deadline_{0};
  std::atomic<uint64_t> shed_overload_{0};
  std::atomic<uint64_t> cycles_{0};
  std::atomic<uint64_t> inference_calls_{0};
  std::atomic<uint64_t> inferred_keys_{0};
  std::atomic<uint64_t> max_queue_depth_{0};

  std::thread thread_;  ///< last member: joined before the rest dies
};

}  // namespace apots::serve

#endif  // APOTS_SERVE_FRONTEND_H_
