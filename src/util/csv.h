#ifndef APOTS_UTIL_CSV_H_
#define APOTS_UTIL_CSV_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace apots {

/// A parsed CSV file: a header row plus data rows of equal width.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  /// 1-based file line of each row (blank lines are skipped).
  std::vector<size_t> lines;

  /// Index of a header column, or -1 when absent.
  int ColumnIndex(const std::string& name) const;
};

/// Reads a comma-separated file with a mandatory header row. Fields are not
/// quoted (the library only writes/reads numeric tables).
Result<CsvTable> ReadCsv(const std::string& path);

/// Writer that streams rows to disk; used by benches to emit the series
/// behind each figure so they can be re-plotted.
class CsvWriter {
 public:
  /// Opens (truncates) `path` and writes the header row.
  static Result<CsvWriter> Open(const std::string& path,
                                const std::vector<std::string>& header);

  CsvWriter(CsvWriter&&) = default;
  CsvWriter& operator=(CsvWriter&&) = default;

  /// Appends a row; must match the header width.
  Status WriteRow(const std::vector<std::string>& fields);

  /// Convenience overload formatting doubles with 6 significant digits.
  Status WriteRow(const std::vector<double>& fields);

  /// Flushes and closes; further writes fail.
  Status Close();

 private:
  CsvWriter() = default;

  std::string path_;
  size_t width_ = 0;
  std::string buffer_;
  bool closed_ = false;
};

}  // namespace apots

#endif  // APOTS_UTIL_CSV_H_
