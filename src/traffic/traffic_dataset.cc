#include "traffic/traffic_dataset.h"

#include <cmath>

#include "util/csv.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace apots::traffic {

TrafficDataset::TrafficDataset(int num_roads, int num_days,
                               int intervals_per_day, Calendar calendar)
    : num_roads_(num_roads),
      num_days_(num_days),
      intervals_per_day_(intervals_per_day),
      calendar_(std::move(calendar)) {
  APOTS_CHECK_GT(num_roads, 0);
  APOTS_CHECK_GT(num_days, 0);
  APOTS_CHECK_GT(intervals_per_day, 0);
  APOTS_CHECK_EQ(calendar_.num_days(), num_days);
  const size_t cells = static_cast<size_t>(num_roads) *
                       static_cast<size_t>(num_intervals());
  speeds_.assign(cells, 0.0f);
  event_flags_.assign(cells, 0.0f);
  weather_.assign(static_cast<size_t>(num_intervals()), WeatherSample{});
}

void TrafficDataset::CheckIndex(int road, long t) const {
  // Hard check in every build type: a silently-clamped or wild read here
  // poisons features/metrics far from the root cause. Release builds used
  // to compile these to no-ops while SpeedRow checked — one consistent
  // policy now.
  APOTS_CHECK(road >= 0 && road < num_roads_)
      << "road " << road << " outside [0, " << num_roads_ << ")";
  APOTS_CHECK(t >= 0 && t < num_intervals())
      << "interval " << t << " outside [0, " << num_intervals() << ")";
}

Status TrafficDataset::CheckBounds(int road, long t) const {
  if (road < 0 || road >= num_roads_) {
    return Status::OutOfRange(
        StrFormat("road %d outside [0, %d)", road, num_roads_));
  }
  if (t < 0 || t >= num_intervals()) {
    return Status::OutOfRange(
        StrFormat("interval %ld outside [0, %ld)", t, num_intervals()));
  }
  return Status::Ok();
}

float TrafficDataset::Speed(int road, long t) const {
  CheckIndex(road, t);
  return speeds_[static_cast<size_t>(road) * num_intervals() + t];
}

void TrafficDataset::SetSpeed(int road, long t, float value) {
  CheckIndex(road, t);
  speeds_[static_cast<size_t>(road) * num_intervals() + t] = value;
}

const float* TrafficDataset::SpeedRow(int road) const {
  APOTS_CHECK(road >= 0 && road < num_roads_);
  return speeds_.data() + static_cast<size_t>(road) * num_intervals();
}

float TrafficDataset::EventFlag(int road, long t) const {
  CheckIndex(road, t);
  return event_flags_[static_cast<size_t>(road) * num_intervals() + t];
}

const WeatherSample& TrafficDataset::Weather(long t) const {
  APOTS_CHECK(t >= 0 && t < num_intervals());
  return weather_[static_cast<size_t>(t)];
}

int TrafficDataset::HourOfDay(long t) const {
  return static_cast<int>(FractionalHour(t));
}

double TrafficDataset::FractionalHour(long t) const {
  APOTS_CHECK(t >= 0 && t < num_intervals());
  const long within_day = t % intervals_per_day_;
  return static_cast<double>(within_day) / intervals_per_day_ * 24.0;
}

DayInfo TrafficDataset::Day(long t) const {
  APOTS_CHECK(t >= 0 && t < num_intervals());
  return calendar_.Day(static_cast<int>(t / intervals_per_day_));
}

Status TrafficDataset::WriteCsv(const std::string& path) const {
  std::vector<std::string> header = {"interval", "day", "weekday", "holiday",
                                     "hour", "temperature_c",
                                     "precipitation_mm"};
  for (int r = 0; r < num_roads_; ++r) {
    header.push_back(StrFormat("speed_%d", r));
  }
  for (int r = 0; r < num_roads_; ++r) {
    header.push_back(StrFormat("event_%d", r));
  }
  auto writer_result = CsvWriter::Open(path, header);
  if (!writer_result.ok()) return writer_result.status();
  CsvWriter writer = std::move(writer_result).value();
  for (long t = 0; t < num_intervals(); ++t) {
    const DayInfo day = Day(t);
    std::vector<std::string> row;
    row.reserve(header.size());
    row.push_back(StrFormat("%ld", t));
    row.push_back(StrFormat("%ld", t / intervals_per_day_));
    row.push_back(StrFormat("%d", static_cast<int>(day.weekday)));
    row.push_back(day.is_holiday ? "1" : "0");
    row.push_back(StrFormat("%.4f", FractionalHour(t)));
    row.push_back(StrFormat("%.2f", static_cast<double>(
                                        weather_[t].temperature_c)));
    row.push_back(StrFormat("%.3f", static_cast<double>(
                                        weather_[t].precipitation_mm)));
    for (int r = 0; r < num_roads_; ++r) {
      row.push_back(StrFormat("%.3f", static_cast<double>(Speed(r, t))));
    }
    for (int r = 0; r < num_roads_; ++r) {
      row.push_back(StrFormat("%.0f", static_cast<double>(EventFlag(r, t))));
    }
    APOTS_RETURN_IF_ERROR(writer.WriteRow(row));
  }
  return writer.Close();
}

Result<TrafficDataset> TrafficDataset::ReadCsv(const std::string& path) {
  auto table_res = apots::ReadCsv(path);
  if (!table_res.ok()) return table_res.status();
  const CsvTable& table = table_res.value();
  const auto column = [&](const std::string& name, int* col) {
    *col = table.ColumnIndex(name);
    if (*col >= 0) return Status::Ok();
    return Status::InvalidArgument(StrFormat(
        "%s: no %s column%s", path.c_str(), name.c_str(),
        name == "weekday" || name == "holiday"
            ? " (a file written before the calendar columns existed; "
              "regenerate it)"
            : ""));
  };
  int day_col, weekday_col, holiday_col, hour_col, temp_col, rain_col;
  APOTS_RETURN_IF_ERROR(column("day", &day_col));
  APOTS_RETURN_IF_ERROR(column("weekday", &weekday_col));
  APOTS_RETURN_IF_ERROR(column("holiday", &holiday_col));
  APOTS_RETURN_IF_ERROR(column("hour", &hour_col));
  APOTS_RETURN_IF_ERROR(column("temperature_c", &temp_col));
  APOTS_RETURN_IF_ERROR(column("precipitation_mm", &rain_col));
  // Road 0, then every road whose speed column follows.
  std::vector<int> speed_cols, event_cols;
  for (int r = 0;
       r == 0 || table.ColumnIndex(StrFormat("speed_%d", r)) >= 0; ++r) {
    speed_cols.push_back(-1);
    event_cols.push_back(-1);
    APOTS_RETURN_IF_ERROR(column(StrFormat("speed_%d", r), &speed_cols[r]));
    APOTS_RETURN_IF_ERROR(column(StrFormat("event_%d", r), &event_cols[r]));
  }
  const int num_roads = static_cast<int>(speed_cols.size());
  const long total = static_cast<long>(table.rows.size());
  if (total == 0) {
    return Status::InvalidArgument(path + ": no data rows");
  }
  const auto bad = [&](long t, int col, const std::string& why) {
    const size_t row = static_cast<size_t>(t);
    return Status::InvalidArgument(StrFormat(
        "%s line %zu, column %s: '%s' %s", path.c_str(), table.lines[row],
        table.header[col].c_str(), table.rows[row][col].c_str(),
        why.c_str()));
  };
  const auto cell = [&](long t, int col) -> const std::string& {
    return table.rows[static_cast<size_t>(t)][col];
  };

  // Days run 0, 1, 2, ... in blocks of equal length; day 0 sets it.
  int64_t value = -1;
  long per_day = 0;
  while (per_day < total && ParseInt64(cell(per_day, day_col), &value) &&
         value == 0) {
    ++per_day;
  }
  if (per_day == 0) return bad(0, day_col, "is not day 0");
  for (long t = per_day; t < total; ++t) {
    if (!ParseInt64(cell(t, day_col), &value) || value != t / per_day) {
      return bad(t, day_col,
                 StrFormat("is not day %ld (days run from 0 in blocks of "
                           "%ld intervals)",
                           t / per_day, per_day));
    }
  }
  if (total % per_day != 0) {
    return bad(total - 1, day_col,
               StrFormat("ends a day of %ld intervals, not %ld",
                         total % per_day, per_day));
  }
  const int num_days = static_cast<int>(total / per_day);

  // The calendar: day 0's weekday, then one holiday flag per day.
  int64_t first_weekday = 0;
  std::vector<int> holidays;
  for (long t = 0; t < total; ++t) {
    const int day = static_cast<int>(t / per_day);
    int64_t weekday = -1, holiday = -1;
    if (!ParseInt64(cell(t, weekday_col), &weekday) || weekday < 0 ||
        weekday > 6) {
      return bad(t, weekday_col, "is not a weekday 0..6");
    }
    if (t == 0) first_weekday = weekday;
    if (weekday != (first_weekday + day) % 7) {
      return bad(t, weekday_col,
                 StrFormat("disagrees with day 0's weekday %lld",
                           static_cast<long long>(first_weekday)));
    }
    if (!ParseInt64(cell(t, holiday_col), &holiday) ||
        (holiday != 0 && holiday != 1)) {
      return bad(t, holiday_col, "is not 0 or 1");
    }
    const bool listed = !holidays.empty() && holidays.back() == day;
    if (t % per_day == 0 && holiday == 1) {
      holidays.push_back(day);
    } else if (t % per_day != 0 && (holiday == 1) != listed) {
      return bad(t, holiday_col, "disagrees with the day's first interval");
    }
    // A day cut short reads as a shorter day; the hour column tells.
    const double hour = static_cast<double>(t % per_day) / per_day * 24.0;
    double parsed = 0.0;
    if (!ParseDouble(cell(t, hour_col), &parsed) ||
        !(std::fabs(parsed - hour) <= 1e-4)) {
      return bad(t, hour_col,
                 StrFormat("is not hour %.4f of a %ld-interval day", hour,
                           per_day));
    }
  }
  TrafficDataset dataset(
      num_roads, num_days, static_cast<int>(per_day),
      Calendar(num_days, static_cast<Weekday>(first_weekday), holidays));

  const auto number = [&](long t, int col, float* out) {
    double parsed = 0.0;
    if (!ParseDouble(cell(t, col), &parsed) ||
        !std::isfinite(static_cast<float>(parsed))) {
      return bad(t, col, "is not a finite number");
    }
    *out = static_cast<float>(parsed);
    return Status::Ok();
  };
  for (long t = 0; t < total; ++t) {
    WeatherSample& weather = dataset.weather_[static_cast<size_t>(t)];
    APOTS_RETURN_IF_ERROR(number(t, temp_col, &weather.temperature_c));
    APOTS_RETURN_IF_ERROR(number(t, rain_col, &weather.precipitation_mm));
    for (int r = 0; r < num_roads; ++r) {
      const size_t at = static_cast<size_t>(r) * total + t;
      APOTS_RETURN_IF_ERROR(number(t, speed_cols[r], &dataset.speeds_[at]));
      APOTS_RETURN_IF_ERROR(
          number(t, event_cols[r], &dataset.event_flags_[at]));
    }
  }
  return dataset;
}

}  // namespace apots::traffic
