// Shared plumbing of the perf-report benches: the `--perf_json[=path]` /
// `--quick` command line and opening the JSON report for writing.

#ifndef APOTS_BENCH_BENCH_COMMON_H_
#define APOTS_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

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

/// Creates `path`'s parent directory and opens `path` for writing into
/// `out`. Returns false, after saying so on stderr, when it cannot.
inline bool OpenReport(const std::string& path, std::ofstream* out) {
  const std::filesystem::path out_path(path);
  if (out_path.has_parent_path()) {
    std::filesystem::create_directories(out_path.parent_path());
  }
  out->open(path);
  if (!*out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace apots::bench

#endif  // APOTS_BENCH_BENCH_COMMON_H_
