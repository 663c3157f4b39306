// Fig. 5: mean put/get/delete latency of Cheetah, Haystack, Tectonic, and
// Ceph for object sizes {8KB, 64KB, 512KB} x concurrency {20, 100, 500}.
//
// Paper shapes to reproduce: Cheetah beats Haystack on put by up to ~2.4x at
// 8KB-20 (parallel metadata/data writes, no separate offset-metadata I/O);
// Tectonic is worst (recursive metadata RPCs); Ceph sits between (layered
// OSD + journaling); get gap is small (~25%); delete is where Cheetah wins
// big (one meta round trip vs Haystack's three-step sequence).
//
// The binary asserts, on stderr only so the printed figure is unchanged:
// zero failed ops in every cell, Cheetah the lowest mean put latency at
// 8KB-20, and Cheetah the lowest mean delete latency in every cell. It exits
// non-zero when any of these fails.
#include <cstdio>
#include <functional>

#include "bench/bench_util.h"

namespace cheetah::bench {
namespace {

struct Cell {
  uint64_t size;
  int concurrency;
  const char* label;
};

const Cell kCells[] = {
    {KiB(8), 20, "8KB-20"},    {KiB(8), 100, "8KB-100"},   {KiB(8), 500, "8KB-500"},
    {KiB(64), 20, "64KB-20"},  {KiB(64), 100, "64KB-100"}, {KiB(64), 500, "64KB-500"},
    {KiB(512), 20, "512KB-20"},
};

struct SystemRow {
  std::string name;
  std::vector<double> put_ms;
  std::vector<double> get_ms;
  std::vector<double> del_ms;
  std::vector<uint64_t> errors;  // failed puts + gets + deletes, per cell
};

template <typename MakeFn>
SystemRow MeasureSystem(const std::string& name, MakeFn make) {
  SystemRow row;
  row.name = name;
  const uint64_t puts_per_cell = ScaledOps(2000);
  const uint64_t gets_per_cell = ScaledOps(800);
  const uint64_t dels_per_cell = ScaledOps(800);
  for (const Cell& cell : kCells) {
    auto bench = make();
    auto puts = RunPuts(bench.loop(), bench.clients, std::string(cell.label) + "-",
                        puts_per_cell, cell.size, cell.concurrency);
    row.put_ms.push_back(puts.put.MeanMillis());
    std::vector<std::string> names;
    for (uint64_t i = 0; i < puts_per_cell; ++i) {
      names.push_back(std::string(cell.label) + "-" + std::to_string(i));
    }
    auto gets = RunGets(bench.loop(), bench.clients, names, gets_per_cell, cell.concurrency);
    row.get_ms.push_back(gets.get.MeanMillis());
    auto dels =
        RunDeletes(bench.loop(), bench.clients, names, dels_per_cell, cell.concurrency);
    row.del_ms.push_back(dels.del.MeanMillis());
    row.errors.push_back(puts.errors + gets.errors + dels.errors);
    std::fprintf(stderr, "  [%s %s] put=%.3fms get=%.3fms del=%.3fms (errors=%llu)\n",
                 name.c_str(), cell.label, row.put_ms.back(), row.get_ms.back(),
                 row.del_ms.back(), static_cast<unsigned long long>(row.errors.back()));
  }
  return row;
}

void PrintFigure(const char* title, const std::vector<SystemRow>& rows,
                 std::vector<double> SystemRow::*member) {
  PrintTitle(title);
  std::vector<std::string> cols = {"system"};
  for (const Cell& cell : kCells) {
    cols.push_back(cell.label);
  }
  PrintTableHeader(cols);
  for (const auto& row : rows) {
    std::printf("%-18s", row.name.c_str());
    for (double v : row.*member) {
      std::printf("%-18.3f", v);
    }
    std::printf("\n");
  }
}

// The Fig. 5 claims, checked against `rows` (Cheetah first); failures go to
// stderr.
bool CheckShape(const std::vector<SystemRow>& rows) {
  bool ok = true;
  auto require = [&ok](bool cond, const std::string& what) {
    if (!cond) {
      std::fprintf(stderr, "FAIL: %s\n", what.c_str());
      ok = false;
    }
  };
  const SystemRow& cheetah = rows.front();
  for (const SystemRow& row : rows) {
    for (size_t c = 0; c < std::size(kCells); ++c) {
      const std::string at = row.name + " at " + kCells[c].label;
      require(row.errors[c] == 0, "failed ops for " + at);
      if (&row != &cheetah) {
        require(cheetah.del_ms[c] < row.del_ms[c], "Cheetah delete not below " + at);
      }
    }
    if (&row != &cheetah) {
      require(cheetah.put_ms[0] < row.put_ms[0],
              "Cheetah put not below " + row.name + " at " + kCells[0].label);
    }
  }
  return ok;
}

}  // namespace
}  // namespace cheetah::bench

int main() {
  using namespace cheetah;
  using namespace cheetah::bench;

  std::vector<SystemRow> rows;
  rows.push_back(MeasureSystem("Cheetah", [] { return MakeCheetah(); }));
  rows.push_back(MeasureSystem("Haystack", [] { return MakeHaystack(); }));
  rows.push_back(MeasureSystem("Tectonic", [] { return MakeTectonic(); }));
  rows.push_back(MeasureSystem("Ceph", [] { return MakeCeph(); }));

  PrintFigure("Fig. 5a: mean PUT latency (ms)", rows, &SystemRow::put_ms);
  PrintFigure("Fig. 5b: mean GET latency (ms)", rows, &SystemRow::get_ms);
  PrintFigure("Fig. 5c: mean DELETE latency (ms)", rows, &SystemRow::del_ms);
  DumpObsJson("fig5_latency");
  if (!CheckShape(rows)) {
    return 1;
  }
  std::fprintf(stderr, "fig5_latency: PASS\n");
  return 0;
}
