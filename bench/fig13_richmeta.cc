// Fig. 13: the cost of rich metadata. One meta machine, no replication, data
// servers bypassed (instant acks); the rich meta service writes the full
// MetaX triple per put while the thin directory writes a single name->volume
// KV. The paper finds the rich service only slightly slower — the KV store
// batches the three writes into one atomic commit.
//
// Exits non-zero unless every run is error-free, Meta/Dir stays >= 0.9 at
// every client count, and rich throughput at 30 clients is at least 3x the
// 5-client figure (the paper's curve rises with clients).
#include "bench/bench_util.h"

namespace cheetah::bench {
namespace {

workload::RunnerResults Measure(bool thin, int clients) {
  core::CheetahOptions options;
  options.thin_directory_mode = thin;
  core::TestbedConfig config = PaperCheetahConfig(options);
  config.meta_machines = 1;
  config.replication = 1;
  config.data_machines = 3;
  config.proxies = std::max(1, clients / 10);
  config.disks_per_data_machine = 2;
  config.pvs_per_disk = 11;  // 66 PVs -> 66 LVs at n=1
  config.pg_count = 64;
  config.data_disk = sim::DiskParams{.write_base = 0,
                                     .write_bw_bytes_per_sec = 1e15,
                                     .read_base = 0,
                                     .read_bw_bytes_per_sec = 1e15,
                                     .fsync_base = 0,
                                     .channels = 64};
  auto bench = MakeCheetah(std::move(config));
  return RunPuts(bench.loop(), bench.clients, thin ? "thin-" : "rich-", ScaledOps(5000),
                 KiB(8), clients * 2);
}

}  // namespace
}  // namespace cheetah::bench

int main() {
  using namespace cheetah;
  using namespace cheetah::bench;

  PrintTitle("Fig. 13: rich meta service vs thin directory (req/sec, 1 meta machine)");
  PrintTableHeader({"clients", "MetaService", "DirectoryService", "Meta/Dir"});
  bool ok = true;
  auto require = [&ok](bool cond, const std::string& what) {
    if (!cond) {
      std::fprintf(stderr, "FAIL: %s\n", what.c_str());
      ok = false;
    }
  };
  double rich_at_5 = 0;
  double rich_at_30 = 0;
  for (int clients : {5, 10, 15, 20, 25, 30}) {
    const auto rich = Measure(false, clients);
    const auto thin = Measure(true, clients);
    const double rich_ops = rich.throughput.OpsPerSec();
    const double thin_ops = thin.throughput.OpsPerSec();
    const double ratio = thin_ops > 0 ? rich_ops / thin_ops : 0.0;
    std::printf("%-18d%-18.0f%-18.0f%-18.2f\n", clients, rich_ops, thin_ops, ratio);
    std::fflush(stdout);
    const std::string at = " at " + std::to_string(clients) + " clients";
    require(rich.errors == 0 && thin.errors == 0, "failed puts" + at);
    require(ratio >= 0.9, "Meta/Dir below 0.9" + at);
    if (clients == 5) {
      rich_at_5 = rich_ops;
    }
    if (clients == 30) {
      rich_at_30 = rich_ops;
    }
  }
  require(rich_at_30 >= 3.0 * rich_at_5,
          "rich throughput at 30 clients is under 3x the 5-client figure");
  DumpObsJson("fig13_richmeta");
  if (!ok) {
    return 1;
  }
  std::printf("fig13_richmeta: PASS (rich 30/5 clients = %.1fx)\n", rich_at_30 / rich_at_5);
  return 0;
}
