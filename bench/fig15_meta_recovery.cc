// Fig. 15: meta-server crash recovery. Write 8KB objects at concurrency 100
// for 10 virtual seconds, disconnect one of the meta machines, connect a
// replacement, and track how many MetaX KVs the replacement has recovered
// over time. The paper shows full recovery within a few seconds.
#include "bench/bench_util.h"

int main() {
  using namespace cheetah;
  using namespace cheetah::bench;

  auto bench = MakeCheetah();
  // Load with 8KB puts at concurrency 100 (a scaled stand-in for the
  // paper's 10-second loading phase).
  workload::RunnerConfig config;
  config.concurrency = 100;
  config.total_ops = ScaledOps(30000);
  workload::Runner runner(bench.loop(), bench.clients, config);
  auto pool = std::make_shared<workload::NamePool>("rec-");
  auto results = runner.Run([pool](Rng&) {
    workload::Op op;
    op.type = workload::OpType::kPut;
    op.name = pool->NextName();
    op.size = KiB(8);
    return op;
  });
  std::fprintf(stderr, "loaded %llu objects\n",
               static_cast<unsigned long long>(results.put.count()));

  // Disconnect meta machine 0; a fresh machine replaces it.
  bench.bed->CrashMetaMachine(0, /*power_loss=*/false);
  const Nanos t0 = bench.loop().Now();
  // settle=false: return as soon as the view change commits so the sampling
  // below observes the PG transfer in progress.
  auto added = bench.bed->AddMetaMachine(/*settle=*/false);
  if (!added.ok()) {
    std::fprintf(stderr, "replacement failed: %s\n", added.status().ToString().c_str());
    return 1;
  }
  const int new_idx = *added;

  PrintTitle("Fig. 15: MetaX KVs recovered to the replacement meta server over time");
  PrintTableHeader({"time (s)", "recovered KVs"});
  uint64_t last = ~0ull;
  int stable = 0;
  for (int tick = 0; tick < 600; ++tick) {
    const double t = static_cast<double>(bench.loop().Now() - t0) / 1e9;
    const uint64_t recovered = bench.bed->meta(new_idx).counters().recovered_kvs->value();
    std::printf("%-18.1f%-18llu\n", t, static_cast<unsigned long long>(recovered));
    if (recovered == last && recovered > 0 && ++stable > 80) {
      break;  // plateaued for ~0.8s: recovery complete
    }
    if (recovered != last) {
      stable = 0;
    }
    last = recovered;
    bench.bed->RunFor(Millis(10));
  }
  DumpObsJson("fig15_meta_recovery");
  return 0;
}
