// Shared plumbing of the perf-report benches: the `--perf_json[=path]` /
// `--quick` command line, the JSON report that carries each bench's
// pass/fail verdict, and interleaved paired timing of two arms.

#ifndef APOTS_BENCH_BENCH_COMMON_H_
#define APOTS_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "obs/json_escape.h"

namespace apots::bench {

/// Parses `--perf_json[=path]` (the report path, `default_path` when
/// absent or bare) and `--quick`, then returns `run(path, quick)`. Any
/// other flag is rejected with exit code 1.
inline int PerfMain(int argc, char** argv, const char* default_path,
                    int (*run)(const std::string& path, bool quick)) {
  std::string path = default_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--perf_json", 11) == 0) {
      if (argv[i][11] == '=') path = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 1;
    }
  }
  return run(path, quick);
}

/// One bench's JSON report and its verdict.
///
/// Values are set by dotted key: "storm.availability" is the member
/// "availability" of the object "storm". Members are written in the order
/// they were first set. AddRow appends an object to an array ("arms"); a
/// row's values are addressed by its index ("arms.2.p50_ms"). Numbers are
/// written as `std::ostream` writes them, strings and keys through
/// obs::EscapeJson.
///
/// Checks read their operands back out of the report, so the verdict and
/// the written file cannot disagree. Write() writes the file even when a
/// check failed, names each failed check on stderr, and returns the
/// process exit status.
class Report {
 public:
  /// Sets the members of one row of an array.
  class Row {
   public:
    template <typename T>
    Row& Set(std::string_view field, const T& value) {
      report_->Set(key_ + "." + std::string(field), value);
      return *this;
    }
    /// The row's dotted key, e.g. "arms.2".
    const std::string& key() const { return key_; }

   private:
    friend class Report;
    Row(Report* report, std::string key)
        : report_(report), key_(std::move(key)) {}
    Report* report_;
    std::string key_;
  };

  explicit Report(std::string_view bench) { Set("bench", bench); }

  Report& Set(std::string_view key, double value) {
    std::ostringstream text;
    text << value;
    return Put(key, text.str());
  }
  template <std::integral T>
  Report& Set(std::string_view key, T value) {
    return Put(key, std::to_string(value));
  }
  Report& Set(std::string_view key, bool value) {
    return Put(key, value ? "true" : "false");
  }
  Report& Set(std::string_view key, std::string_view value) {
    return Put(key, "\"" + obs::EscapeJson(value) + "\"");
  }
  Report& Set(std::string_view key, const char* value) {
    return Set(key, std::string_view(value));
  }

  /// Appends an empty object to the array at `key`.
  Row AddRow(std::string_view key) {
    Node* array = Find(key, /*create=*/true);
    array->array = true;
    array->children.push_back(std::make_unique<Node>());
    return Row(this, std::string(key) + "." +
                         std::to_string(array->children.size() - 1));
  }

  /// The number at `key`; NaN when the key is absent or not a number, so
  /// every comparison against it fails.
  double Number(std::string_view key) const {
    const Node* node = Find(key);
    if (node == nullptr || node->text.empty()) return std::nan("");
    char* end = nullptr;
    const double value = std::strtod(node->text.c_str(), &end);
    return *end == '\0' ? value : std::nan("");
  }
  /// True when the value at `key` is the literal `true`.
  bool Flag(std::string_view key) const {
    const Node* node = Find(key);
    return node != nullptr && node->text == "true";
  }
  /// The string at `key` as written, quotes included.
  std::string Text(std::string_view key) const {
    const Node* node = Find(key);
    return node == nullptr ? std::string() : node->text;
  }

  /// Records a check computed by the caller; `what` names it on failure.
  void Check(std::string_view what, bool ok) {
    ++checks_;
    if (!ok) failed_.emplace_back(what);
  }
  void ExpectTrue(std::string_view key) {
    Check(std::string(key) + " = " + Text(key) + " (want true)", Flag(key));
  }
  void ExpectAtLeast(std::string_view key, double floor) {
    Check(Describe(key, ">=", floor), Number(key) >= floor);
  }
  void ExpectAtMost(std::string_view key, double ceiling) {
    Check(Describe(key, "<=", ceiling), Number(key) <= ceiling);
  }

  /// Writes the report to `path`, creating its directory. Returns 0 when
  /// the file was written and every check passed, else 1.
  int Write(const std::string& path) const {
    const std::filesystem::path out_path(path);
    std::error_code ignored;
    if (out_path.has_parent_path()) {
      std::filesystem::create_directories(out_path.parent_path(), ignored);
    }
    std::ofstream out(path);
    WriteNode(out, root_, 0, /*inline_=*/false);
    out << "\n";
    out.close();
    const bool written = static_cast<bool>(out);
    if (!written) std::fprintf(stderr, "cannot write %s\n", path.c_str());
    for (const std::string& what : failed_) {
      std::fprintf(stderr, "FAILED check: %s\n", what.c_str());
    }
    std::fprintf(stderr, "wrote %s: %zu of %zu checks passed\n",
                 path.c_str(), checks_ - failed_.size(), checks_);
    return written && failed_.empty() ? 0 : 1;
  }

 private:
  /// A scalar (its JSON text), an object, or an array of row objects.
  struct Node {
    std::string key;
    std::string text;  // empty for objects and arrays
    bool array = false;
    std::vector<std::unique_ptr<Node>> children;
  };

  Report& Put(std::string_view key, std::string text) {
    Find(key, /*create=*/true)->text = std::move(text);
    return *this;
  }

  /// Walks the dotted `key`; with `create`, adds the missing members.
  Node* Find(std::string_view key, bool create) {
    Node* node = &root_;
    size_t start = 0;
    while (node != nullptr && start <= key.size()) {
      size_t dot = key.find('.', start);
      if (dot == std::string_view::npos) dot = key.size();
      const std::string_view part = key.substr(start, dot - start);
      start = dot + 1;
      Node* next = nullptr;
      if (node->array) {
        const size_t index = std::strtoul(std::string(part).c_str(),
                                          nullptr, 10);
        if (index < node->children.size()) {
          next = node->children[index].get();
        }
      } else {
        for (const auto& child : node->children) {
          if (child->key == part) next = child.get();
        }
        if (next == nullptr && create) {
          node->children.push_back(std::make_unique<Node>());
          next = node->children.back().get();
          next->key = part;
        }
      }
      node = next;
    }
    return node;
  }
  const Node* Find(std::string_view key) const {
    return const_cast<Report*>(this)->Find(key, /*create=*/false);
  }

  std::string Describe(std::string_view key, const char* op,
                       double bound) const {
    std::ostringstream text;
    text << key << " = " << Text(key) << " (want " << op << " " << bound
         << ")";
    return text.str();
  }

  /// Objects one member per line; an array's rows one per line, each
  /// written inline.
  static void WriteNode(std::ostream& out, const Node& node, int indent,
                        bool inline_) {
    if (node.children.empty()) {
      out << (!node.text.empty() ? node.text : node.array ? "[]" : "{}");
      return;
    }
    const std::string pad =
        inline_ ? "" : std::string(static_cast<size_t>(indent) + 2, ' ');
    out << (node.array ? "[" : "{") << (inline_ ? "" : "\n");
    for (size_t i = 0; i < node.children.size(); ++i) {
      const Node& child = *node.children[i];
      out << pad;
      if (!node.array) out << "\"" << obs::EscapeJson(child.key) << "\": ";
      WriteNode(out, child, indent + 2, inline_ || node.array);
      if (i + 1 < node.children.size()) out << (inline_ ? ", " : ",");
      if (!inline_) out << "\n";
    }
    if (!inline_) out << std::string(static_cast<size_t>(indent), ' ');
    out << (node.array ? "]" : "}");
  }

  Node root_;
  size_t checks_ = 0;
  std::vector<std::string> failed_;
};

/// Median of `values` (mean of the middle two for an even count).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Result of TimePairs.
struct PairedTimes {
  double a_seconds = 0.0;  ///< median seconds of one `a` call
  double b_seconds = 0.0;  ///< median seconds of one `b` call
  double ratio = 0.0;      ///< median over pairs of b's seconds / a's
};

/// Times two arms as `pairs` interleaved pairs in one process: A then B,
/// then B then A, and so on. A host whose speed drifts over seconds slows
/// both calls of a pair alike, so the median per-pair ratio resolves
/// differences that two back-to-back blocks of repeats cannot.
inline PairedTimes TimePairs(size_t pairs, const std::function<void()>& a,
                             const std::function<void()>& b) {
  const auto seconds = [](const std::function<void()>& arm) {
    const auto start = std::chrono::steady_clock::now();
    arm();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  std::vector<double> a_seconds, b_seconds, ratios;
  for (size_t pair = 0; pair < pairs; ++pair) {
    double ta = 0.0;
    double tb = 0.0;
    if (pair % 2 == 0) {
      ta = seconds(a);
      tb = seconds(b);
    } else {
      tb = seconds(b);
      ta = seconds(a);
    }
    a_seconds.push_back(ta);
    b_seconds.push_back(tb);
    ratios.push_back(tb / ta);
  }
  return {Median(a_seconds), Median(b_seconds), Median(ratios)};
}

}  // namespace apots::bench

#endif  // APOTS_BENCH_BENCH_COMMON_H_
