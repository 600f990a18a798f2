#ifndef APOTS_DATA_CONTEXT_H_
#define APOTS_DATA_CONTEXT_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/status.h"

namespace apots::data {

/// One scoped edit to the context features feeding sample assembly — the
/// unit of a counterfactual "what-if" query (ROADMAP item 4): "this road
/// at 8am *without* the accident", "+10mm rain", "as if it were a
/// holiday". Perturbations edit raw dataset values *before* scaling, so a
/// counterfactual sample is exactly what the assembler would have built
/// had the world looked that way.
enum class PerturbationKind {
  kClearEvent,       ///< force the event flag to 0 inside the window
  kSetEvent,         ///< force the event flag to 1 inside the window
  kRainDelta,        ///< add `value` mm of precipitation (clamped >= 0)
  kDayTypeOverride,  ///< override the anchor day's type vector with the
                     ///< one-hot at index `value` in [weekday, holiday,
                     ///< before-holiday, after-holiday]
};
const char* PerturbationKindName(PerturbationKind kind);

struct ContextPerturbation {
  PerturbationKind kind = PerturbationKind::kClearEvent;
  /// Half-open dataset-interval window [begin, end) the perturbation is
  /// scoped to. Column perturbations test the column's interval t;
  /// kDayTypeOverride tests the anchor. Defaults cover every interval.
  long begin = 0;
  long end = std::numeric_limits<long>::max();
  /// kRainDelta: precipitation delta in mm (may be negative; the raw
  /// value is clamped at 0 before scaling). kDayTypeOverride: day-type
  /// index 0..3. Ignored for the event kinds.
  float value = 0.0f;

  bool AppliesTo(long t) const { return t >= begin && t < end; }
};

/// A counterfactual context: an ordered perturbation list. Perturbations
/// apply in order, so a later kSetEvent wins over an earlier kClearEvent
/// on overlapping windows (and the last applicable day-type override
/// wins) — deterministic by construction.
struct ContextSpec {
  std::vector<ContextPerturbation> perturbations;

  /// True when any *column-affecting* perturbation (event or rain — the
  /// values FeatureCache stores) applies at interval `t`. Columns this
  /// returns false for are bitwise identical to the base context and are
  /// cached under context 0, shared with live serving. Day-type overrides
  /// never touch columns (they edit the anchor-keyed broadcast rows).
  bool TouchesColumn(long t) const;

  /// Last day-type override applying to `anchor`, or -1 when none does.
  int DayTypeOverrideFor(long anchor) const;

  // --- fluent builders for the common queries ------------------------
  ContextSpec& ClearEvent(long begin = 0,
                          long end = std::numeric_limits<long>::max());
  ContextSpec& SetEvent(long begin = 0,
                        long end = std::numeric_limits<long>::max());
  ContextSpec& RainDelta(float delta_mm, long begin = 0,
                         long end = std::numeric_limits<long>::max());
  ContextSpec& DayType(int day_type);
};

/// Parses one context of the what-if grammar: a comma-separated list of
/// perturbations, applied in order, each one of
///   clear-event | set-event | rain+X | rain-X |
///   day=weekday|holiday|before-holiday|after-holiday|0..3
/// with an optional @begin:end interval window (default: every
/// interval). Returns InvalidArgument naming the first bad token. Window
/// order and finite values are ContextTable::Register's to check.
Result<ContextSpec> ParseContextSpec(std::string_view text);

/// A work item's resolved context binding: the id that keys cache entries
/// and coalescing, plus the spec to overlay (null = base/live — the
/// resolution of context 0 and of unknown ids).
struct ResolvedContext {
  uint64_t id = 0;
  const ContextSpec* spec = nullptr;
};

/// Thread-safe registry of counterfactual contexts, shared by the
/// inference runtime, the serving supervisor, and the front door. Specs
/// are immutable once registered (re-registering an id swaps the whole
/// spec); lookups hand out shared ownership so an in-flight fan-out never
/// races a concurrent re-registration.
///
/// Context id 0 is reserved for the live/base stream and cannot be
/// registered — a lookup of 0 (or of any unknown id) returns null, which
/// every consumer treats as "no overlay", so unregistered traffic always
/// degrades to exact live behavior instead of failing.
class ContextTable {
 public:
  ContextTable() = default;
  ContextTable(const ContextTable&) = delete;
  ContextTable& operator=(const ContextTable&) = delete;

  /// Registers (or replaces) `id`. Rejects id 0, inverted windows,
  /// non-finite values and day-type indices outside 0..3.
  Status Register(uint64_t id, ContextSpec spec);

  /// The spec for `id`, or null for 0 / unknown ids.
  std::shared_ptr<const ContextSpec> Find(uint64_t id) const;

  size_t size() const;

  /// Stable copy of every registered (id, spec) — how ShardedService
  /// re-applies registrations to a rebuilt replica.
  std::vector<std::pair<uint64_t, ContextSpec>> Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<const ContextSpec>> map_;
};

}  // namespace apots::data

#endif  // APOTS_DATA_CONTEXT_H_
