// The perf benches' report writer (bench/bench_common.h): the document it
// writes byte for byte, escaping of keys and strings, and a failed check's
// exit status.

#include "bench_common.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace apots::bench {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(BenchReportTest, DottedKeysAndRowsGiveTheExpectedDocument) {
  Report report("demo");
  report.Set("config.quick", true).Set("config.threads", 4);
  report.AddRow("arms")
      .Set("name", "batched")
      .Set("p50_ms", 1.25)
      .Set("rounds", size_t{3});
  report.AddRow("arms")
      .Set("name", "int8")
      .Set("p50_ms", 1234567.0)
      .Set("rounds", size_t{1234567});
  report.Set("storm.availability", 0.99949999)
      .Set("config.isa", std::string("avx2"))
      .Set("bitwise", false);
  const std::string path = TempPath("bench_report_layout.json");
  ASSERT_EQ(report.Write(path), 0);
  EXPECT_EQ(ReadFile(path),
            "{\n"
            "  \"bench\": \"demo\",\n"
            "  \"config\": {\n"
            "    \"quick\": true,\n"
            "    \"threads\": 4,\n"
            "    \"isa\": \"avx2\"\n"
            "  },\n"
            "  \"arms\": [\n"
            "    {\"name\": \"batched\", \"p50_ms\": 1.25, \"rounds\": 3},\n"
            "    {\"name\": \"int8\", \"p50_ms\": 1.23457e+06, "
            "\"rounds\": 1234567}\n"
            "  ],\n"
            "  \"storm\": {\n"
            "    \"availability\": 0.9995\n"
            "  },\n"
            "  \"bitwise\": false\n"
            "}\n");
  // Checks read the written values: rows by index, numbers as rounded.
  EXPECT_EQ(report.Number("arms.1.rounds"), 1234567.0);
  EXPECT_EQ(report.Number("storm.availability"), 0.9995);
  EXPECT_TRUE(report.Flag("config.quick"));
  EXPECT_FALSE(report.Flag("bitwise"));
  EXPECT_TRUE(std::isnan(report.Number("arms.2.rounds")));
  EXPECT_TRUE(std::isnan(report.Number("config.isa")));
  std::filesystem::remove(path);
}

TEST(BenchReportTest, KeysAndStringsWithQuotesOrControlsAreEscaped) {
  Report report("quote\"d");
  report.Set("odd\"key\n", "tab\there\x01");
  report.AddRow("rows").Set("k\\", "line\nbreak");
  const std::string path = TempPath("bench_report_escape.json");
  ASSERT_EQ(report.Write(path), 0);
  EXPECT_EQ(ReadFile(path),
            "{\n"
            "  \"bench\": \"quote\\\"d\",\n"
            "  \"odd\\\"key\\n\": \"tab\\there\\u0001\",\n"
            "  \"rows\": [\n"
            "    {\"k\\\\\": \"line\\nbreak\"}\n"
            "  ]\n"
            "}\n");
  std::filesystem::remove(path);
}

TEST(BenchReportTest, FailedCheckStillWritesTheFileAndExitsOne) {
  const auto dir = std::filesystem::temp_directory_path() / "bench_verdict";
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "sub" / "perf_demo.json").string();

  Report report("verdict");
  report.Set("storm.availability", 0.5).Set("ok", true);
  report.ExpectTrue("ok");
  report.ExpectAtLeast("storm.availability", 0.999);
  report.ExpectAtMost("missing.key", 1.0);  // an absent key fails
  testing::internal::CaptureStderr();
  EXPECT_EQ(report.Write(path), 1);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("FAILED check: storm.availability = 0.5 (want >= "
                     "0.999)"),
            std::string::npos);
  EXPECT_NE(err.find("FAILED check: missing.key"), std::string::npos);
  EXPECT_EQ(err.find("FAILED check: ok"), std::string::npos);
  EXPECT_NE(err.find("1 of 3 checks passed"), std::string::npos);
  EXPECT_EQ(ReadFile(path),
            "{\n"
            "  \"bench\": \"verdict\",\n"
            "  \"storm\": {\n"
            "    \"availability\": 0.5\n"
            "  },\n"
            "  \"ok\": true\n"
            "}\n");

  Report passing("verdict");
  passing.Set("storm.availability", 0.9995);
  passing.ExpectAtLeast("storm.availability", 0.999);
  EXPECT_EQ(passing.Write(path), 0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace apots::bench
