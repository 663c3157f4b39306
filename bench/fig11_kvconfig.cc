// Fig. 11: sensitivity of the MetaX KV store to flush/merge aggressiveness.
// Default: 64MB memtable, L0 trigger 4. Flush+: 1MB memtable. Merge+: 1MB
// memtable + trigger 1. Values are padded to 1KB as in the paper. The paper
// finds the impact small — the LSM write path absorbs aggressive flushing.
//
// Exits non-zero unless every config runs error-free and Flush+ and Merge+
// each keep at least 0.9 of the Default throughput (the paper's "small
// impact").
#include "bench/bench_util.h"

namespace cheetah::bench {
namespace {

workload::RunnerResults MeasureConfig(uint64_t memtable_bytes, int trigger) {
  core::CheetahOptions options;
  options.metax_kv.memtable_bytes = memtable_bytes;
  options.metax_kv.l0_compaction_trigger = trigger;
  auto bench = MakeCheetah(PaperCheetahConfig(options));
  // Pad the value of each KV to ~1KB: long object names bloat every MetaX
  // record the same way the paper's padding does.
  const std::string pad(1024, 'n');
  workload::RunnerConfig config;
  config.concurrency = 100;
  config.total_ops = ScaledOps(6000);
  workload::Runner runner(bench.loop(), bench.clients, config);
  auto counter = std::make_shared<uint64_t>(0);
  return runner.Run([counter, &pad](Rng&) {
    workload::Op op;
    op.type = workload::OpType::kPut;
    op.name = "kvcfg-" + std::to_string((*counter)++) + "-" + pad;
    op.size = KiB(8);
    return op;
  });
}

}  // namespace
}  // namespace cheetah::bench

int main() {
  using namespace cheetah;
  using namespace cheetah::bench;

  PrintTitle("Fig. 11: MetaX KV-store configurations (8KB puts, padded values)");
  PrintTableHeader({"config", "buffer", "trigger", "req/sec", "normalized"});
  bool ok = true;
  auto require = [&ok](bool cond, const std::string& what) {
    if (!cond) {
      std::fprintf(stderr, "FAIL: %s\n", what.c_str());
      ok = false;
    }
  };
  const auto base = MeasureConfig(MiB(64), 4);
  const double base_ops = base.throughput.OpsPerSec();
  struct Row {
    const char* name;
    uint64_t buffer;
    int trigger;
  };
  for (const Row& row : {Row{"Default", MiB(64), 4}, Row{"Flush+", MiB(1), 4},
                         Row{"Merge+", MiB(1), 1}}) {
    const auto results = (row.buffer == MiB(64) && row.trigger == 4)
                             ? base
                             : MeasureConfig(row.buffer, row.trigger);
    const double tput = results.throughput.OpsPerSec();
    const double normalized = base_ops > 0 ? tput / base_ops : 0.0;
    std::printf("%-18s%-18s%-18d%-18.0f%-18.2f\n", row.name,
                row.buffer >= MiB(64) ? "64MB" : "1MB", row.trigger, tput, normalized);
    std::fflush(stdout);
    require(results.errors == 0, std::string("failed puts in ") + row.name);
    require(normalized >= 0.9, std::string(row.name) + "/Default below 0.9");
  }
  DumpObsJson("fig11_kvconfig");
  if (!ok) {
    return 1;
  }
  std::printf("fig11_kvconfig: PASS\n");
  return 0;
}
