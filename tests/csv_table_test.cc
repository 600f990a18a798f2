#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include <gtest/gtest.h>

#include "traffic/dataset_generator.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace apots {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(CsvTest, WriteReadRoundtrip) {
  const std::string path = TempPath("apots_csv_rt.csv");
  auto writer = CsvWriter::Open(path, {"a", "b"});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(
      writer.value().WriteRow(std::vector<std::string>{"1", "x"}).ok());
  ASSERT_TRUE(writer.value().WriteRow(std::vector<double>{2.5, 3.0}).ok());
  ASSERT_TRUE(writer.value().Close().ok());

  auto table = ReadCsv(path);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value().header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(table.value().rows.size(), 2u);
  EXPECT_EQ(table.value().rows[0][0], "1");
  EXPECT_EQ(table.value().rows[1][0], "2.5");
  std::filesystem::remove(path);
}

TEST(CsvTest, RowWidthEnforced) {
  auto writer = CsvWriter::Open(TempPath("apots_csv_w.csv"), {"a", "b"});
  ASSERT_TRUE(writer.ok());
  EXPECT_FALSE(
      writer.value().WriteRow(std::vector<std::string>{"only-one"}).ok());
}

TEST(CsvTest, WriteAfterCloseFails) {
  auto writer = CsvWriter::Open(TempPath("apots_csv_c.csv"), {"a"});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value().Close().ok());
  EXPECT_EQ(writer.value().WriteRow(std::vector<std::string>{"x"}).code(),
            StatusCode::kFailedPrecondition);
}

TEST(CsvTest, EmptyHeaderRejected) {
  EXPECT_FALSE(CsvWriter::Open(TempPath("apots_csv_e.csv"), {}).ok());
}

TEST(CsvTest, MissingFileIsIoError) {
  auto table = ReadCsv("/nonexistent/apots.csv");
  EXPECT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, RaggedRowRejected) {
  const std::string path = TempPath("apots_csv_ragged.csv");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("a,b\n1,2\n3\n", f);
  std::fclose(f);
  auto table = ReadCsv(path);
  EXPECT_FALSE(table.ok());
  std::filesystem::remove(path);
}

TEST(CsvTest, ColumnIndexLookup) {
  CsvTable table;
  table.header = {"x", "y", "z"};
  EXPECT_EQ(table.ColumnIndex("y"), 1);
  EXPECT_EQ(table.ColumnIndex("nope"), -1);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "v"});
  table.AddRow({"long-name", "1"});
  table.AddRow({"x", "22"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| long-name | 1  |"), std::string::npos);
  EXPECT_NE(out.find("| x         | 22 |"), std::string::npos);
}

TEST(TablePrinterTest, SeparatorRendered) {
  TablePrinter table({"a"});
  table.AddRow({"1"});
  table.AddSeparator();
  table.AddRow({"2"});
  const std::string out = table.ToString();
  // Header top/bottom + separator + final = at least 4 separator lines.
  size_t count = 0, pos = 0;
  while ((pos = out.find("+---", pos)) != std::string::npos) {
    ++count;
    pos += 1;
  }
  EXPECT_GE(count, 4u);
}

TEST(TablePrinterTest, ShortRowsPadded) {
  TablePrinter table({"a", "b", "c"});
  table.AddRow({"1"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| 1 |"), std::string::npos);
}

TEST(FormatHelpersTest, MetricAndGain) {
  EXPECT_EQ(FormatMetric(12.804), "12.80");
  EXPECT_EQ(FormatGain(22.887), "22.89%");
  EXPECT_EQ(FormatGain(-0.6), "-0.60%");
}

std::string ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

TEST(TrafficDatasetCsvTest, WriteReadRoundtrip) {
  using apots::traffic::DatasetSpec;
  using apots::traffic::TrafficDataset;
  const TrafficDataset original =
      apots::traffic::GenerateDataset(DatasetSpec::Small(81));
  const std::string path = TempPath("apots_dataset.csv");
  ASSERT_TRUE(original.WriteCsv(path).ok());

  auto restored = TrafficDataset::ReadCsv(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const TrafficDataset& copy = restored.value();
  EXPECT_EQ(copy.num_roads(), original.num_roads());
  EXPECT_EQ(copy.num_intervals(), original.num_intervals());
  for (long t = 0; t < original.num_intervals(); t += 101) {
    for (int r = 0; r < original.num_roads(); ++r) {
      EXPECT_NEAR(copy.Speed(r, t), original.Speed(r, t), 0.01f);
      EXPECT_EQ(copy.EventFlag(r, t), original.EventFlag(r, t));
    }
    EXPECT_NEAR(copy.Weather(t).precipitation_mm,
                original.Weather(t).precipitation_mm, 0.01f);
  }
  std::filesystem::remove(path);
}

// Every cell and every interval's day type survive a round trip: the
// reread dataset writes the same bytes, and the calendar (holidays
// included) comes back from the file alone.
TEST(TrafficDatasetCsvTest, EveryCellAndDayTypeRoundTrips) {
  using apots::traffic::DatasetSpec;
  using apots::traffic::TrafficDataset;
  for (const int days : {7, 30, 122}) {
    DatasetSpec spec;
    spec.num_days = days;
    spec.num_roads = 3;
    const TrafficDataset original = apots::traffic::GenerateDataset(spec);
    const std::string path = TempPath("apots_dataset_days.csv");
    const std::string again = TempPath("apots_dataset_days_again.csv");
    ASSERT_TRUE(original.WriteCsv(path).ok());
    auto restored = TrafficDataset::ReadCsv(path);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    const TrafficDataset& copy = restored.value();
    ASSERT_EQ(copy.num_days(), days);
    ASSERT_EQ(copy.intervals_per_day(), original.intervals_per_day());
    ASSERT_EQ(copy.num_roads(), original.num_roads());
    EXPECT_EQ(copy.calendar().num_holidays(),
              original.calendar().num_holidays());
    for (long t = 0; t < original.num_intervals(); ++t) {
      ASSERT_EQ(copy.Day(t).TypeVector(), original.Day(t).TypeVector())
          << days << " days, interval " << t;
      ASSERT_EQ(copy.Day(t).weekday, original.Day(t).weekday);
      for (int r = 0; r < original.num_roads(); ++r) {
        ASSERT_NEAR(copy.Speed(r, t), original.Speed(r, t), 1e-3f);
        ASSERT_EQ(copy.EventFlag(r, t), original.EventFlag(r, t));
      }
      ASSERT_NEAR(copy.Weather(t).temperature_c,
                  original.Weather(t).temperature_c, 1e-2f);
      ASSERT_NEAR(copy.Weather(t).precipitation_mm,
                  original.Weather(t).precipitation_mm, 1e-3f);
    }
    ASSERT_TRUE(copy.WriteCsv(again).ok());
    EXPECT_EQ(ReadText(again), ReadText(path)) << days << " days";
    std::filesystem::remove(path);
    std::filesystem::remove(again);
  }
}

// Malformed files come back as InvalidArgument naming where, never as an
// abort or a silently zeroed cell.
TEST(TrafficDatasetCsvTest, MalformedFilesReturnStatus) {
  using apots::traffic::DatasetSpec;
  using apots::traffic::TrafficDataset;
  const std::string path = TempPath("apots_dataset_bad.csv");
  ASSERT_TRUE(
      apots::traffic::GenerateDataset(DatasetSpec::Small(5)).WriteCsv(path)
          .ok());
  const std::string good = ReadText(path);
  const size_t header_end = good.find('\n') + 1;
  size_t hundred = header_end;
  for (int i = 0; i < 100; ++i) hundred = good.find('\n', hundred) + 1;
  // Line 3 holds day 0's second interval; its event_2 cell is the last.
  const size_t line3 = good.find('\n', header_end) + 1;
  const size_t last_cell = good.rfind(',', good.find('\n', line3)) + 1;
  const auto with_event_cell = [&](const std::string& text) {
    std::string out = good;
    out.replace(last_cell, good.find('\n', line3) - last_cell, text);
    return out;
  };
  // The format before the calendar columns: drop fields 2 and 3 of every
  // line (weekday, holiday).
  std::string old_format;
  for (const std::string& line : Split(good, '\n')) {
    if (line.empty()) continue;
    std::vector<std::string> fields = Split(line, ',');
    fields.erase(fields.begin() + 2, fields.begin() + 4);
    old_format += Join(fields, ",") + "\n";
  }
  const struct {
    const char* name;
    std::string text;
    const char* where;
  } cases[] = {
      {"header only", good.substr(0, header_end), "no data rows"},
      {"100 rows", good.substr(0, hundred), "line 3, column hour"},
      {"bad cell", with_event_cell("abc"), "line 3, column event_2"},
      {"nan cell", with_event_cell("nan"), "line 3, column event_2"},
      {"no calendar columns", old_format, "no weekday column"},
  };
  for (const auto& c : cases) {
    WriteText(path, c.text);
    auto result = TrafficDataset::ReadCsv(path);
    ASSERT_FALSE(result.ok()) << c.name;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << c.name;
    EXPECT_NE(result.status().message().find(c.where), std::string::npos)
        << c.name << ": " << result.status().ToString();
  }
  std::filesystem::remove(path);
}

TEST(TrafficDatasetCsvTest, MissingFileRejected) {
  auto result = apots::traffic::TrafficDataset::ReadCsv("/nonexistent/x.csv");
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace apots
