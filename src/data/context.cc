#include "data/context.h"

#include <cmath>
#include <string>

#include "util/string_util.h"

namespace apots::data {

namespace {

// One perturbation token of the what-if grammar; false when malformed.
bool ParsePerturbation(std::string_view token, ContextPerturbation* p) {
  std::string body = Trim(token);
  const size_t at = body.find('@');
  if (at != std::string::npos) {
    const std::vector<std::string> range = Split(body.substr(at + 1), ':');
    int64_t begin = 0, end = 0;
    if (range.size() != 2 || !ParseInt64(range[0], &begin) ||
        !ParseInt64(range[1], &end)) {
      return false;
    }
    p->begin = begin;
    p->end = end;
    body.resize(at);
  }
  if (body == "clear-event" || body == "set-event") {
    p->kind = body == "clear-event" ? PerturbationKind::kClearEvent
                                    : PerturbationKind::kSetEvent;
    return true;
  }
  if (StartsWith(body, "rain")) {
    double delta = 0.0;
    if (!ParseDouble(body.substr(4), &delta)) return false;
    p->kind = PerturbationKind::kRainDelta;
    p->value = static_cast<float>(delta);
    return true;
  }
  if (!StartsWith(body, "day=")) return false;
  const std::string name = body.substr(4);
  static const char* const kDayTypes[] = {"weekday", "holiday",
                                          "before-holiday", "after-holiday"};
  int64_t index = -1;
  for (int i = 0; i < 4; ++i) {
    if (name == kDayTypes[i]) index = i;
  }
  if (index < 0 && (!ParseInt64(name, &index) || index < 0 || index > 3)) {
    return false;
  }
  p->kind = PerturbationKind::kDayTypeOverride;
  p->value = static_cast<float>(index);
  return true;
}

}  // namespace

const char* PerturbationKindName(PerturbationKind kind) {
  switch (kind) {
    case PerturbationKind::kClearEvent:
      return "clear-event";
    case PerturbationKind::kSetEvent:
      return "set-event";
    case PerturbationKind::kRainDelta:
      return "rain-delta";
    case PerturbationKind::kDayTypeOverride:
      return "day-type-override";
  }
  return "unknown";
}

bool ContextSpec::TouchesColumn(long t) const {
  for (const ContextPerturbation& p : perturbations) {
    if (p.kind == PerturbationKind::kDayTypeOverride) continue;
    if (p.AppliesTo(t)) return true;
  }
  return false;
}

int ContextSpec::DayTypeOverrideFor(long anchor) const {
  int day_type = -1;
  for (const ContextPerturbation& p : perturbations) {
    if (p.kind == PerturbationKind::kDayTypeOverride && p.AppliesTo(anchor)) {
      day_type = static_cast<int>(p.value);
    }
  }
  return day_type;
}

ContextSpec& ContextSpec::ClearEvent(long begin, long end) {
  perturbations.push_back(
      {PerturbationKind::kClearEvent, begin, end, 0.0f});
  return *this;
}

ContextSpec& ContextSpec::SetEvent(long begin, long end) {
  perturbations.push_back({PerturbationKind::kSetEvent, begin, end, 0.0f});
  return *this;
}

ContextSpec& ContextSpec::RainDelta(float delta_mm, long begin, long end) {
  perturbations.push_back(
      {PerturbationKind::kRainDelta, begin, end, delta_mm});
  return *this;
}

ContextSpec& ContextSpec::DayType(int day_type) {
  perturbations.push_back({PerturbationKind::kDayTypeOverride, 0,
                           std::numeric_limits<long>::max(),
                           static_cast<float>(day_type)});
  return *this;
}

Result<ContextSpec> ParseContextSpec(std::string_view text) {
  ContextSpec spec;
  for (const std::string& token : Split(text, ',')) {
    ContextPerturbation p;
    if (!ParsePerturbation(token, &p)) {
      return Status::InvalidArgument(
          "bad perturbation '" + Trim(token) +
          "' (valid: clear-event, set-event, rain+X, rain-X, "
          "day=weekday|holiday|before-holiday|after-holiday, each with an "
          "optional @begin:end)");
    }
    spec.perturbations.push_back(p);
  }
  return spec;
}

Status ContextTable::Register(uint64_t id, ContextSpec spec) {
  if (id == 0) {
    return Status::InvalidArgument(
        "context id 0 is reserved for the live/base stream");
  }
  for (const ContextPerturbation& p : spec.perturbations) {
    if (p.begin > p.end) {
      return Status::InvalidArgument(
          StrFormat("context %llu: perturbation window [%ld, %ld) is "
                    "inverted",
                    static_cast<unsigned long long>(id), p.begin, p.end));
    }
    if (!std::isfinite(p.value)) {
      return Status::InvalidArgument(
          StrFormat("context %llu: %s value %g is not finite",
                    static_cast<unsigned long long>(id),
                    PerturbationKindName(p.kind), p.value));
    }
    // Compared as a float: the int cast of an out-of-range value is
    // undefined.
    if (p.kind == PerturbationKind::kDayTypeOverride &&
        !(p.value > -1.0f && p.value < 4.0f)) {
      return Status::InvalidArgument(
          StrFormat("context %llu: day-type override %g outside 0..3",
                    static_cast<unsigned long long>(id), p.value));
    }
  }
  auto shared = std::make_shared<const ContextSpec>(std::move(spec));
  std::lock_guard<std::mutex> lock(mu_);
  map_[id] = std::move(shared);
  return Status::Ok();
}

std::shared_ptr<const ContextSpec> ContextTable::Find(uint64_t id) const {
  if (id == 0) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(id);
  return it == map_.end() ? nullptr : it->second;
}

size_t ContextTable::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

std::vector<std::pair<uint64_t, ContextSpec>> ContextTable::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<uint64_t, ContextSpec>> out;
  out.reserve(map_.size());
  for (const auto& [id, spec] : map_) {
    out.emplace_back(id, *spec);
  }
  return out;
}

}  // namespace apots::data
