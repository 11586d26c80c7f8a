#pragma once
/// Shared helpers for the experiment harness binaries (bench_e1 .. e10).
/// Every binary is standalone: it runs its sweep and prints its result
/// tables (bench_e2 and bench_e7 also write them as BENCH_e2.json and
/// BENCH_e7.json), on deterministic seeds.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "lina/table.hpp"

namespace aspen::bench {

/// True when ASPEN_BENCH_SMOKE is set to a non-empty, non-"0" value.
/// The CTest `bench_smoke` label runs every harness in this mode so a
/// broken sweep is caught cheaply; full runs are the default.
inline bool smoke_mode() {
  const char* v = std::getenv("ASPEN_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// Sample-count helper: `full` normally, `tiny` under smoke mode.
inline int samples(int full, int tiny = 1) {
  return smoke_mode() ? tiny : full;
}

inline void header(const char* experiment, const char* claim) {
  std::printf("################################################################\n");
  std::printf("# %s\n", experiment);
  std::printf("# paper hook: %s\n", claim);
  std::printf("################################################################\n\n");
}

inline void show(lina::Table& t) {
  t.print(std::cout);
  std::cout << "\n";
}

/// One machine-readable bench result row: a timing, a fidelity, a
/// coverage fraction, ... as `unit` says.
struct BenchRow {
  std::string name;   ///< row identifier, stable across PRs
  double value;       ///< measured value, in `unit`
  int ports;          ///< problem size (0 when not size-parameterized)
  std::string unit = "ns/op";  ///< measurement unit (e.g. "%" for overheads)
};

/// Write bench rows as a JSON array (BENCH_mesh.json, BENCH_e2.json,
/// BENCH_e7.json) so CI can archive them as workflow artifacts.
inline void json_report(const std::string& path,
                        const std::vector<BenchRow>& rows) {
  std::ofstream os(path);
  os.precision(3);
  os << std::fixed << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    os << "  {\"name\": \"" << rows[i].name
       << "\", \"value\": " << rows[i].value
       << ", \"ports\": " << rows[i].ports
       << ", \"unit\": \"" << rows[i].unit << "\"}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "]\n";
}

}  // namespace aspen::bench
