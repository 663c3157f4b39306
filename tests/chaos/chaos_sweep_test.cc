// Randomized chaos sweep: Cheetah variants x nemesis schedules x seeds, with
// every client operation recorded and each per-key history checked for
// linearizability afterwards. Any failure prints the seed + schedule, which
// reproduce the run byte-for-byte (the whole simulator is deterministic).
//
// Seed policy: CHEETAH_CHAOS_SEEDS is a comma-separated list (default
// "1,2,3" — the fixed CI set; scripts/chaos.sh passes larger sets for local
// hunts). The same seed drives the workload RNG, the network fault RNG, and
// the schedule composition, so one integer pins the entire run.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/chaos/nemesis.h"
#include "src/chaos/sweep.h"

namespace cheetah::chaos {
namespace {

using core::ClientProxy;
using core::Testbed;
using core::TestbedConfig;

enum class Variant { kBase, kOrderedWrites, kFsBacked };

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kBase: return "Base";
    case Variant::kOrderedWrites: return "OW";
    case Variant::kFsBacked: return "FS";
  }
  return "?";
}

constexpr const char* kScheduleNames[] = {
    "MetaCrashRestartLoop", "MetaPowerFailViewChange", "PartitionHealMeta",
    "GrayDataDisk",         "NetChaos",                "Combined",
};

TestbedConfig ChaosConfig(Variant variant) {
  TestbedConfig config;
  config.meta_machines = 4;
  config.data_machines = 4;
  config.proxies = 3;
  config.pg_count = 8;
  config.disks_per_data_machine = 2;
  config.pvs_per_disk = 3;
  config.lv_capacity_bytes = MiB(128);
  switch (variant) {
    case Variant::kBase:
      break;
    case Variant::kOrderedWrites:
      config.options.ordered_writes = true;
      break;
    case Variant::kFsBacked:
      config.options.fs_backed_data = true;
      break;
  }
  return config;
}

struct SweepResult {
  History history;
  std::string schedule_str;
  bool workers_done = false;
  bool audit_healthy = true;
};

// One full chaos run: three workers over eight shared keys, mixed
// put/get/delete. Everything inside is a pure function of
// (variant, schedule_idx, seed) — the determinism test relies on it.
SweepResult RunSweep(Variant variant, int schedule_idx, uint64_t seed) {
  SweepResult result;
  TestbedConfig config = ChaosConfig(variant);
  const int meta_count = config.meta_machines;
  const int data_count = config.data_machines;
  Sweep sweep(std::move(config));
  Testbed& bed = sweep.bed();
  if (!bed.Boot().ok()) {
    ADD_FAILURE() << "boot failed";
    return result;
  }
  const NemesisSchedule schedule =
      StandardSchedules(seed, meta_count, data_count, Seconds(4)).at(schedule_idx);
  bed.network().SeedFaults(seed * 7919 + static_cast<uint64_t>(schedule_idx));
  schedule.Install(bed);
  result.schedule_str = schedule.ToString();
  const ClientMix mix;
  result.workers_done = sweep.RunClients(mix, seed);
  // Schedules end restorative; restoring again is belt-and-braces. The final
  // reads join the history like any other ops.
  sweep.RestoreAll();
  result.audit_healthy = sweep.AuditKeys(mix.Keys());
  result.history = sweep.history();
  return result;
}

struct Param {
  Variant variant;
  int schedule;
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<Param>& info) {
  return std::string(VariantName(info.param.variant)) +
         kScheduleNames[info.param.schedule] + "Seed" +
         std::to_string(info.param.seed);
}

class ChaosSweep : public ::testing::TestWithParam<Param> {};

TEST_P(ChaosSweep, HistoriesAreLinearizable) {
  const Param p = GetParam();
  SweepResult r = RunSweep(p.variant, p.schedule, p.seed);
  // ctest only knows the default-seed test names, so replay goes through the
  // binary: the filter name embeds the seed and the env re-registers it.
  const std::string replay =
      "replay: CHEETAH_CHAOS_SEEDS=" + std::to_string(p.seed) +
      " ./build/tests/chaos_sweep_test --gtest_filter='*" + ParamName({p, 0}) +
      "'";
  EXPECT_TRUE(r.workers_done) << "workload hung under schedule:\n"
                              << r.schedule_str << replay;
  EXPECT_TRUE(r.audit_healthy) << "cluster unhealthy at audit time\n"
                               << r.schedule_str << replay;
  auto violations = CheckLinearizable(r.history);
  EXPECT_TRUE(violations.empty())
      << FormatViolations(violations) << "schedule (seed " << p.seed << "):\n"
      << r.schedule_str << replay;
}

std::vector<Param> MakeParams() {
  std::vector<Param> out;
  for (uint64_t seed : SeedsFromEnv("CHEETAH_CHAOS_SEEDS", "1,2,3")) {
    // Base gets the full battery; the ablation variants get the heaviest
    // schedules (power-fail view change, combined) to bound suite runtime.
    for (int sched = 0; sched < 6; ++sched) {
      out.push_back({Variant::kBase, sched, seed});
    }
    for (int sched : {1, 5}) {
      out.push_back({Variant::kOrderedWrites, sched, seed});
      out.push_back({Variant::kFsBacked, sched, seed});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Matrix, ChaosSweep, ::testing::ValuesIn(MakeParams()),
                         ParamName);

// Two runs of the same (variant, schedule, seed) must produce byte-identical
// histories — this is what makes a printed seed+schedule a full reproduction.
TEST(ChaosDeterminism, SameSeedSameHistory) {
  SweepResult a = RunSweep(Variant::kBase, /*schedule=*/5, /*seed=*/1);
  SweepResult b = RunSweep(Variant::kBase, /*schedule=*/5, /*seed=*/1);
  EXPECT_EQ(a.schedule_str, b.schedule_str);
  EXPECT_EQ(a.history.Serialize(), b.history.Serialize());
  EXPECT_FALSE(a.history.Serialize().empty());
  // Cross-engine guard: the reference heap engine must replay the identical
  // run byte for byte — the timer wheel is only allowed to be faster, never
  // different.
  SweepResult c =
      OnHeapEngine([] { return RunSweep(Variant::kBase, /*schedule=*/5, /*seed=*/1); });
  EXPECT_EQ(a.schedule_str, c.schedule_str);
  EXPECT_EQ(a.history.Serialize(), c.history.Serialize());
}

// The checker must catch a real consistency bug: with the persist-ack wait
// skipped (options.unsafe_skip_persist_wait), an acked put whose MetaX has
// not reached any replica's WAL dies with a cluster-wide meta power failure.
// Slow meta disks widen that window from microseconds to milliseconds so a
// scripted power failure reliably lands inside it.
TEST(ChaosInjectedBug, SkippedPersistWaitIsCaught) {
  auto run_with_bug_schedule = [](uint64_t seed, bool bug) {
    TestbedConfig config = ChaosConfig(Variant::kBase);
    config.options.unsafe_skip_persist_wait = bug;
    const int meta_count = config.meta_machines;
    Sweep sweep(std::move(config));
    EXPECT_TRUE(sweep.bed().Boot().ok());

    NemesisSchedule schedule;
    schedule.Add(Millis(150), "gray ALL meta disks x25",
                 [meta_count](Testbed& b) {
                   sim::GrayFailure g;
                   g.latency_multiplier = 100.0;
                   for (int i = 0; i < meta_count; ++i) {
                     b.meta_machine(i).SetGrayFailure(g);
                   }
                 });
    schedule.Add(Millis(650), "power-fail ALL meta machines",
                 [meta_count](Testbed& b) {
                   for (int i = 0; i < meta_count; ++i) {
                     b.Crash(b.meta_node(i), /*power_loss=*/true);
                   }
                 });
    schedule.Add(Millis(1300), "restore meta disks",
                 [meta_count](Testbed& b) {
                   for (int i = 0; i < meta_count; ++i) {
                     b.meta_machine(i).ClearGrayFailure();
                   }
                 });
    schedule.Add(Millis(1350), "restart ALL meta machines",
                 [meta_count](Testbed& b) {
                   for (int i = 0; i < meta_count; ++i) {
                     b.Restart(b.meta_node(i));
                   }
                 });
    sweep.bed().network().SeedFaults(seed);
    schedule.Install(sweep.bed());

    History* history = &sweep.history();
    auto done_workers = std::make_shared<int>(0);
    auto put_count = std::make_shared<int>(0);
    constexpr int kWorkers = 3;
    for (int w = 0; w < kWorkers; ++w) {
      sweep.bed().SpawnOnProxy(w, [w, seed, history, done_workers, put_count,
                                 &loop = sweep.bed().loop()](
                                    ClientProxy& proxy) -> sim::Task<> {
        Rng rng(seed * 31 + static_cast<uint64_t>(w));
        const Nanos start = loop.Now();
        // No op-count cap below the time cutoff: the workers must still be
        // putting when the scripted power failure lands, or the vulnerable
        // ack-before-persist window is empty and the bug never manifests.
        for (int i = 0; i < 100000; ++i) {
          const std::string key =
              "bug-w" + std::to_string(w) + "-" + std::to_string(i);
          const std::string value = DefaultPayload(w, i, key);
          const uint64_t id =
              history->Invoke(w, OpType::kPut, key, value, loop.Now());
          Status s = co_await proxy.Put(key, value);
          if (s.ok()) {
            ++*put_count;
          }
          history->Return(id, Classify(OpType::kPut, s), "", loop.Now());
          if (loop.Now() > start + Millis(800)) {
            break;  // past the interesting window; stop early
          }
          co_await sim::SleepFor(Millis(2) + rng.Uniform(Millis(4)));
        }
        ++*done_workers;
      });
    }
    sweep.bed().loop().RunUntilDone([&] { return *done_workers == kWorkers; }, kClientBudget);
    EXPECT_EQ(*done_workers, kWorkers) << "bug workload hung";
    EXPECT_GT(*put_count, 0) << "no put was ever acked";
    sweep.bed().RunFor(Seconds(5));
    // Audit every key the workers touched.
    std::vector<std::string> keys;
    for (const auto& op : history->ops()) {
      if (op.type == OpType::kPut) {
        keys.push_back(op.key);
      }
    }
    sweep.AuditKeys(keys);
    return CheckLinearizable(*history);
  };

  // The checker must flag the bug under at least one seed...
  bool caught = false;
  uint64_t caught_seed = 0;
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    auto violations = run_with_bug_schedule(seed, /*bug=*/true);
    if (!violations.empty()) {
      caught = true;
      caught_seed = seed;
      break;
    }
  }
  EXPECT_TRUE(caught) << "injected persist-wait bug escaped the checker";
  // ...and the identical schedule with the bug reverted must be clean.
  auto control = run_with_bug_schedule(caught ? caught_seed : 1, /*bug=*/false);
  EXPECT_TRUE(control.empty()) << FormatViolations(control);
}

}  // namespace
}  // namespace cheetah::chaos
