#ifndef APOTS_TRAFFIC_TRAFFIC_DATASET_H_
#define APOTS_TRAFFIC_TRAFFIC_DATASET_H_

#include <string>
#include <vector>

#include "traffic/calendar.h"
#include "traffic/incident.h"
#include "traffic/weather.h"
#include "util/status.h"

namespace apots::traffic {

/// The full synthetic corridor dataset: per-road speed series plus every
/// contextual series the APOTS model consumes. The layout mirrors what the
/// paper's Hyundai dataset provides (speeds, accident/construction logs,
/// KMA weather crawl, calendar).
class TrafficDataset {
 public:
  TrafficDataset() = default;

  TrafficDataset(int num_roads, int num_days, int intervals_per_day,
                 Calendar calendar);

  int num_roads() const { return num_roads_; }
  int num_days() const { return num_days_; }
  int intervals_per_day() const { return intervals_per_day_; }
  long num_intervals() const {
    return static_cast<long>(num_days_) * intervals_per_day_;
  }
  const Calendar& calendar() const { return calendar_; }

  /// Speed of `road` at interval `t` in km/h. All element accessors are
  /// hard-checked in every build type, matching SpeedRow — out-of-range
  /// indices abort instead of silently reading adjacent storage. Callers
  /// with untrusted indices should probe CheckBounds first.
  float Speed(int road, long t) const;
  void SetSpeed(int road, long t, float value);

  /// Status-returning bounds probe for fallible callers (OutOfRange on a
  /// bad index) — the non-aborting counterpart of the checked accessors.
  Status CheckBounds(int road, long t) const;

  /// Entire speed row of one road.
  const float* SpeedRow(int road) const;

  /// Event flag (accident/construction active) of `road` at `t`.
  float EventFlag(int road, long t) const;

  /// Weather at interval `t`.
  const WeatherSample& Weather(long t) const;

  /// Hour of day (0-23) at interval `t`.
  int HourOfDay(long t) const;

  /// Fractional hour (e.g. 7.5 for 07:30) at interval `t`.
  double FractionalHour(long t) const;

  /// Calendar day the interval falls on.
  DayInfo Day(long t) const;

  /// Mutable backing stores, used by the generator.
  std::vector<float>* mutable_speeds() { return &speeds_; }
  std::vector<float>* mutable_event_flags() { return &event_flags_; }
  std::vector<WeatherSample>* mutable_weather() { return &weather_; }
  std::vector<Incident>* mutable_incident_log() { return &incident_log_; }

  const std::vector<Incident>& incident_log() const { return incident_log_; }

  /// Writes the dataset to CSV (one row per interval: interval, day,
  /// weekday 0..6, holiday 0|1, hour, weather, then per-road speed and
  /// event columns) — the exchange format `apots_cli` reads back.
  Status WriteCsv(const std::string& path) const;

  /// Reads a dataset written by WriteCsv. The day count comes from the
  /// `day` column and the calendar from the `weekday` and `holiday`
  /// columns. Returns InvalidArgument, naming the line and column, for a
  /// missing column, days that are not contiguous or not equally long,
  /// a weekday or holiday flag that disagrees within a day or with day
  /// 0, an hour that does not fit the day's length, or a numeric cell
  /// that is not a finite number.
  static Result<TrafficDataset> ReadCsv(const std::string& path);

 private:
  void CheckIndex(int road, long t) const;

  int num_roads_ = 0;
  int num_days_ = 0;
  int intervals_per_day_ = 0;
  Calendar calendar_{1, Weekday::kMonday, {}};
  std::vector<float> speeds_;       ///< road-major [roads x intervals]
  std::vector<float> event_flags_;  ///< road-major [roads x intervals]
  std::vector<WeatherSample> weather_;
  std::vector<Incident> incident_log_;
};

}  // namespace apots::traffic

#endif  // APOTS_TRAFFIC_TRAFFIC_DATASET_H_
