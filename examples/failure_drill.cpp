// Failure drill: exercises §5's recovery machinery end to end — crash a
// meta server mid-traffic, crash a data machine, then cut power to the
// whole cluster — verifying after each drill that every committed object is
// still readable and consistent.
//
//   $ ./build/examples/failure_drill
#include <cstdio>
#include <vector>

#include "src/core/testbed.h"

using namespace cheetah;

namespace {

int CheckAll(core::Testbed& bed, const std::vector<std::string>& names) {
  int readable = 0;
  for (const auto& name : names) {
    readable += bed.GetObject(0, name).ok();
  }
  return readable;
}

}  // namespace

int main() {
  core::TestbedConfig config;
  config.meta_machines = 4;  // PGs live on 3 of 4: crashes force real pulls
  config.data_machines = 4;
  config.proxies = 2;
  config.pg_count = 8;
  config.disks_per_data_machine = 2;
  config.pvs_per_disk = 3;
  config.lv_capacity_bytes = MiB(256);

  core::Testbed bed(std::move(config));
  if (Status s = bed.Boot(); !s.ok()) {
    std::printf("boot failed: %s\n", s.ToString().c_str());
    return 1;
  }

  std::vector<std::string> names;
  for (int i = 0; i < 40; ++i) {
    std::string name = "drill-" + std::to_string(i);
    if (bed.PutObject(i % 2, name, std::string(8192, 'd')).ok()) {
      names.push_back(std::move(name));
    }
  }
  std::printf("loaded %zu objects; view=%llu\n", names.size(),
              static_cast<unsigned long long>(bed.proxy(0).view()));

  // Drill 1: meta server crash. The manager detects the missed heartbeats,
  // publishes a new view, and the surviving/new primaries pull the PGs.
  std::printf("\n[drill 1] crashing meta machine 0...\n");
  bed.CrashMetaMachine(0, /*power_loss=*/false);
  bed.RunFor(Seconds(3));
  std::printf("  new view=%llu; readable: %d/%zu\n",
              static_cast<unsigned long long>(bed.proxy(0).view()), CheckAll(bed, names),
              names.size());
  uint64_t recovered = 0;
  for (int i = 1; i < bed.num_meta(); ++i) {
    recovered += bed.meta(i).counters().recovered_kvs->value();
  }
  std::printf("  MetaX KVs pulled by surviving servers: %llu\n",
              static_cast<unsigned long long>(recovered));

  // Drill 2: data machine crash. Affected volumes go readonly, replacements
  // are re-replicated in parallel, then writes resume on them.
  std::printf("\n[drill 2] crashing data machine 0...\n");
  bed.CrashDataMachine(0, /*power_loss=*/false);
  bed.RunFor(Seconds(4));
  uint64_t volumes = 0, bytes = 0;
  for (int i = 1; i < bed.num_data(); ++i) {
    volumes += bed.data(i).stats().volumes_recovered;
    bytes += bed.data(i).stats().recovery_bytes;
  }
  std::printf("  volumes re-replicated: %llu (%llu bytes); readable: %d/%zu\n",
              static_cast<unsigned long long>(volumes),
              static_cast<unsigned long long>(bytes), CheckAll(bed, names), names.size());
  Status put = bed.PutObject(0, "post-data-crash", std::string(8192, 'p'));
  std::printf("  put after recovery: %s\n", put.ToString().c_str());
  if (put.ok()) {
    names.push_back("post-data-crash");
  }

  // Drill 3: full power loss. MetaX was fsynced before every ack, so after
  // reboot + Raft re-election + PG log negotiation everything is back.
  std::printf("\n[drill 3] power failure on every machine...\n");
  for (int i = 0; i < 3; ++i) {
    bed.CrashManager(i, /*power_loss=*/true);
  }
  for (int i = 0; i < bed.num_meta(); ++i) {
    bed.CrashMetaMachine(i, /*power_loss=*/true);
  }
  for (int i = 0; i < bed.num_data(); ++i) {
    bed.CrashDataMachine(i, /*power_loss=*/true);
  }
  bed.RunFor(Millis(100));
  for (int i = 0; i < 3; ++i) {
    bed.RestartManager(i);
  }
  for (int i = 0; i < bed.num_meta(); ++i) {
    bed.RestartMetaMachine(i);
  }
  for (int i = 0; i < bed.num_data(); ++i) {
    bed.RestartDataMachine(i);
  }
  bed.RunFor(Seconds(5));
  std::printf("  after reboot: view=%llu, readable: %d/%zu\n",
              static_cast<unsigned long long>(bed.proxy(0).view()), CheckAll(bed, names),
              names.size());
  std::printf("\nall drills complete.\n");
  return 0;
}
