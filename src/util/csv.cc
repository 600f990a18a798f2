#include "util/csv.h"

#include <fstream>
#include <sstream>

#include "util/string_util.h"

namespace apots {

int CsvTable::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return static_cast<int>(i);
  }
  return -1;
}

Result<CsvTable> ReadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open CSV file: " + path);
  CsvTable table;
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("CSV file has no header row: " + path);
  }
  table.header = Split(Trim(line), ',');
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string trimmed = Trim(line);
    if (trimmed.empty()) continue;
    std::vector<std::string> fields = Split(trimmed, ',');
    if (fields.size() != table.header.size()) {
      return Status::InvalidArgument(
          StrFormat("CSV %s line %zu has %zu fields, expected %zu",
                    path.c_str(), line_no, fields.size(),
                    table.header.size()));
    }
    table.rows.push_back(std::move(fields));
    table.lines.push_back(line_no);
  }
  return table;
}

Result<CsvWriter> CsvWriter::Open(const std::string& path,
                                  const std::vector<std::string>& header) {
  if (header.empty()) {
    return Status::InvalidArgument("CSV header must not be empty");
  }
  CsvWriter writer;
  writer.path_ = path;
  writer.width_ = header.size();
  writer.buffer_ = Join(header, ",") + "\n";
  // Probe writability now so the error surfaces at open time.
  std::ofstream probe(path, std::ios::trunc);
  if (!probe) return Status::IoError("cannot open CSV for writing: " + path);
  return writer;
}

Status CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  if (closed_) return Status::FailedPrecondition("CSV writer already closed");
  if (fields.size() != width_) {
    return Status::InvalidArgument(
        StrFormat("row has %zu fields, header has %zu", fields.size(),
                  width_));
  }
  buffer_ += Join(fields, ",");
  buffer_ += "\n";
  return Status::Ok();
}

Status CsvWriter::WriteRow(const std::vector<double>& fields) {
  std::vector<std::string> text;
  text.reserve(fields.size());
  for (double value : fields) text.push_back(StrFormat("%.6g", value));
  return WriteRow(text);
}

Status CsvWriter::Close() {
  if (closed_) return Status::Ok();
  closed_ = true;
  std::ofstream out(path_, std::ios::trunc);
  if (!out) return Status::IoError("cannot open CSV for writing: " + path_);
  out << buffer_;
  out.close();
  if (!out) return Status::IoError("failed writing CSV: " + path_);
  return Status::Ok();
}

}  // namespace apots
