// Fig. 14: in-expansion performance. After preloading objects, one machine
// is added to the meta service (Cheetah / Cheetah-NoVG) or the OSD cluster
// (Ceph) and put/get performance is measured while any induced migration is
// in flight. VGs make Cheetah unaffected; Cheetah-NoVG chases its data to
// the reshuffled volumes; Ceph backfills remapped PGs.
#include "bench/bench_util.h"

namespace cheetah::bench {
namespace {

struct Numbers {
  double put_ms = 0;
  double get_ms = 0;
  double get_p99_ms = 0;
  double put_tput = 0;
  double get_tput = 0;
  uint64_t errors = 0;
};

Numbers MeasureDuring(sim::EventLoop& loop,
                      std::vector<std::pair<sim::Actor*, workload::ObjectStore*>> clients,
                      const std::vector<std::string>& names, uint64_t ops) {
  Numbers out;
  {  // latency at conc 20 (Fig. 14a)
    auto put = RunPuts(loop, clients, "exp-lat-", ops / 4, KiB(64), 20);
    out.put_ms = put.put.MeanMillis();
    out.errors += put.errors;
    auto get = RunGets(loop, clients, names, ops / 4, 20);
    out.get_ms = get.get.MeanMillis();
    out.get_p99_ms = get.get.PercentileMillis(0.99);
    out.errors += get.errors;
  }
  {  // throughput at conc 500 (Fig. 14b)
    auto put = RunPuts(loop, clients, "exp-tp-", ops, KiB(64), 500);
    out.put_tput = put.throughput.OpsPerSec();
    out.errors += put.errors;
    auto get = RunGets(loop, clients, names, ops, 500);
    out.get_tput = get.throughput.OpsPerSec();
    out.errors += get.errors;
  }
  return out;
}

}  // namespace
}  // namespace cheetah::bench

int main() {
  using namespace cheetah;
  using namespace cheetah::bench;

  const uint64_t preload = ScaledOps(8000);
  const uint64_t ops = ScaledOps(4000);

  std::vector<std::pair<std::string, Numbers>> rows;

  // Self-assert on the Cheetah row: expansion must be invisible to the
  // foreground — GET p99 while the meta view change/adoption is in flight
  // stays within a fixed multiple of steady state, and no foreground op
  // fails. (The baselines below are *expected* to degrade; no assert there.)
  double steady_get_p99 = 0;
  Numbers cheetah_during;
  {
    auto bench = MakeCheetah();
    auto names =
        workload::Preload(bench.loop(), bench.clients, "pre-", preload, KiB(64));
    auto steady = RunGets(bench.loop(), bench.clients, names, ops / 4, 20);
    steady_get_p99 = steady.get.PercentileMillis(0.99);
    auto added = bench.cluster->AddMetaMachine();
    if (!added.ok()) {
      std::fprintf(stderr, "cheetah expansion failed: %s\n", added.status().ToString().c_str());
      return 1;
    }
    cheetah_during = MeasureDuring(bench.loop(), bench.clients, names, ops);
    rows.emplace_back("Cheetah", cheetah_during);
  }
  {
    core::CheetahOptions options;
    options.no_volume_groups = true;
    auto bench = MakeCheetah(PaperCheetahConfig(options));
    auto names =
        workload::Preload(bench.loop(), bench.clients, "pre-", preload, KiB(64));
    // Do not settle: measure while the PG-data migration runs.
    auto added = bench.cluster->AddMetaMachine(/*settle=*/false);
    if (!added.ok()) {
      std::fprintf(stderr, "novg expansion failed: %s\n", added.status().ToString().c_str());
      return 1;
    }
    rows.emplace_back("Cheetah-NoVG",
                      MeasureDuring(bench.loop(), bench.clients, names, ops));
  }
  {
    auto bench = MakeCeph();
    auto names =
        workload::Preload(bench.loop(), bench.clients, "pre-", preload, KiB(64));
    bench.cluster->AddOsd();  // backfill starts
    rows.emplace_back("Ceph in Migration",
                      MeasureDuring(bench.loop(), bench.clients, names, ops));
  }

  PrintTitle("Fig. 14a: in-expansion latency, 64KB conc 20 (ms)");
  PrintTableHeader({"system", "PUT", "GET"});
  for (const auto& [name, n] : rows) {
    std::printf("%-18s%-18.3f%-18.3f\n", name.c_str(), n.put_ms, n.get_ms);
  }
  PrintTitle("Fig. 14b: in-expansion throughput, 64KB conc 500 (req/sec)");
  PrintTableHeader({"system", "PUT", "GET"});
  for (const auto& [name, n] : rows) {
    std::printf("%-18s%-18.0f%-18.0f\n", name.c_str(), n.put_tput, n.get_tput);
  }
  DumpObsJson("fig14_expansion");

  constexpr double kP99Multiple = 3.0;
  bool ok = true;
  if (cheetah_during.errors != 0) {
    std::fprintf(stderr, "FAIL: %llu foreground ops failed during Cheetah expansion\n",
                 static_cast<unsigned long long>(cheetah_during.errors));
    ok = false;
  }
  if (cheetah_during.get_p99_ms > kP99Multiple * steady_get_p99) {
    std::fprintf(stderr,
                 "FAIL: in-expansion GET p99 %.3fms exceeds %.1fx steady-state %.3fms\n",
                 cheetah_during.get_p99_ms, kP99Multiple, steady_get_p99);
    ok = false;
  }
  if (!ok) {
    return 1;
  }
  std::printf("fig14: PASS (in-expansion GET p99 %.3fms <= %.1fx steady %.3fms, 0 errors)\n",
              cheetah_during.get_p99_ms, kP99Multiple, steady_get_p99);
  return 0;
}
