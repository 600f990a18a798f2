#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "traffic/dataset_generator.h"
#include "util/csv.h"
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

TEST(TrafficDatasetCsvTest, WriteReadRoundtrip) {
  using apots::traffic::DatasetSpec;
  using apots::traffic::TrafficDataset;
  const TrafficDataset original =
      apots::traffic::GenerateDataset(DatasetSpec::Small(81));
  const std::string path = TempPath("apots_dataset.csv");
  ASSERT_TRUE(original.WriteCsv(path).ok());

  auto restored = TrafficDataset::ReadCsv(path, original.calendar());
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

TEST(TrafficDatasetCsvTest, MissingFileRejected) {
  using apots::traffic::Calendar;
  using apots::traffic::TrafficDataset;
  using apots::traffic::Weekday;
  auto result = TrafficDataset::ReadCsv("/nonexistent/x.csv",
                                        Calendar(1, Weekday::kMonday, {}));
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace apots
