// Resize-under-fire chaos: a planned drain runs mid-workload while a nemesis
// attacks a different leg of the live-migration state machine — the source
// dies mid-DoubleWrite, the destination dies mid-Catchup, or the manager
// leader is partitioned around Cutover. Every client operation is recorded
// and each per-key history is checked for linearizability; the final audit
// proves no lost or ghost objects. Any failure prints the seed + schedule,
// which reproduce the run byte-for-byte.
//
// Seed policy mirrors the chaos sweep: CHEETAH_MIGRATE_SEEDS is a
// comma-separated list (default "1,2,3" — the fixed CI set; pass larger sets
// for local hunts, scripts/chaos.sh style).
#include <gtest/gtest.h>

#include <string>

#include "src/chaos/nemesis.h"
#include "src/chaos/sweep.h"

namespace cheetah::chaos {
namespace {

using core::TestbedConfig;

constexpr const char* kFaultNames[] = {"CrashSource", "CrashDestination",
                                       "PartitionLeader"};

// Four meta machines: a drained node needs a destination among the survivors
// (replication 3 of the remaining 3).
TestbedConfig MigrateChaosConfig() {
  TestbedConfig config;
  config.meta_machines = 4;
  config.data_machines = 4;
  config.proxies = 3;
  config.pg_count = 8;
  config.disks_per_data_machine = 2;
  config.pvs_per_disk = 3;
  config.lv_capacity_bytes = MiB(128);
  return config;
}

struct SweepResult {
  History history;
  std::string schedule_str;
  bool workers_done = false;
  bool audit_healthy = true;
  bool migrations_settled = false;  // no in-flight migration after the run
};

// One full run: pure function of (fault_idx, seed) — the determinism test
// relies on it.
SweepResult RunSweep(int fault_idx, uint64_t seed) {
  SweepResult result;
  TestbedConfig config = MigrateChaosConfig();
  const int meta_count = config.meta_machines;
  Sweep sweep(std::move(config));
  core::Testbed& bed = sweep.bed();
  if (!bed.Boot().ok()) {
    ADD_FAILURE() << "boot failed";
    return result;
  }
  const NemesisSchedule schedule =
      MigrationSchedules(seed, meta_count, Seconds(4)).at(fault_idx);
  bed.network().SeedFaults(seed * 7919 + static_cast<uint64_t>(fault_idx));
  schedule.Install(bed);
  result.schedule_str = schedule.ToString();
  const ClientMix mix;
  result.workers_done = sweep.RunClients(mix, seed);

  // Heal, restart, settle. A drain may legitimately still be running (the
  // schedules re-issue one late); give it room to finish, then require that
  // no migration entry is stuck in the topology.
  sweep.RestoreAll();
  const Nanos settle_deadline = bed.loop().Now() + Seconds(30);
  while (bed.loop().Now() < settle_deadline) {
    const int leader = bed.LeaderManager();
    if (leader >= 0 && bed.manager(leader).topology().migrations.empty() &&
        !bed.manager(leader).drain_running()) {
      result.migrations_settled = true;
      break;
    }
    bed.RunFor(Millis(100));
  }

  // Audit every key: the final reads join the history like any other ops.
  result.audit_healthy = sweep.AuditKeys(mix.Keys());
  result.history = sweep.history();
  return result;
}

struct Param {
  int fault;
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<Param>& info) {
  return std::string(kFaultNames[info.param.fault]) + "Seed" +
         std::to_string(info.param.seed);
}

class MigrationSweep : public ::testing::TestWithParam<Param> {};

TEST_P(MigrationSweep, HistoriesAreLinearizable) {
  const Param p = GetParam();
  SweepResult r = RunSweep(p.fault, p.seed);
  const std::string replay =
      "replay: CHEETAH_MIGRATE_SEEDS=" + std::to_string(p.seed) +
      " ./build/tests/migration_sweep_test --gtest_filter='*" +
      ParamName({p, 0}) + "'";
  EXPECT_TRUE(r.workers_done) << "workload hung under schedule:\n"
                              << r.schedule_str << replay;
  EXPECT_TRUE(r.audit_healthy) << "cluster unhealthy at audit time\n"
                               << r.schedule_str << replay;
  EXPECT_TRUE(r.migrations_settled)
      << "migration state stuck in the topology after the run\n"
      << r.schedule_str << replay;
  auto violations = CheckLinearizable(r.history);
  EXPECT_TRUE(violations.empty())
      << FormatViolations(violations) << "schedule (seed " << p.seed << "):\n"
      << r.schedule_str << replay;
}

std::vector<Param> MakeParams() {
  std::vector<Param> out;
  for (uint64_t seed : SeedsFromEnv("CHEETAH_MIGRATE_SEEDS", "1,2,3")) {
    for (int fault = 0; fault < 3; ++fault) {
      out.push_back({fault, seed});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Matrix, MigrationSweep, ::testing::ValuesIn(MakeParams()),
                         ParamName);

// Two runs of the same (fault, seed) must produce byte-identical histories —
// this is what makes a printed seed+schedule a full reproduction.
TEST(MigrationDeterminism, SameSeedSameHistory) {
  SweepResult a = RunSweep(/*fault_idx=*/0, /*seed=*/1);
  SweepResult b = RunSweep(/*fault_idx=*/0, /*seed=*/1);
  EXPECT_EQ(a.schedule_str, b.schedule_str);
  EXPECT_EQ(a.history.Serialize(), b.history.Serialize());
  EXPECT_FALSE(a.history.Serialize().empty());
  // Cross-engine guard: the reference heap engine must replay the identical
  // run byte for byte — the timer wheel is only allowed to be faster, never
  // different.
  SweepResult c = OnHeapEngine([] { return RunSweep(/*fault_idx=*/0, /*seed=*/1); });
  EXPECT_EQ(a.schedule_str, c.schedule_str);
  EXPECT_EQ(a.history.Serialize(), c.history.Serialize());
}

}  // namespace
}  // namespace cheetah::chaos
