// Chaos with QoS enabled: a nemesis schedule (crashes, partitions, link
// faults) runs against a cluster whose schedulers are live, while an explicit
// background PG-pull storm keeps the low classes busy. Asserts that
//   (1) every per-key history is linearizable — admission control and
//       retry-after bounces never break client semantics,
//   (2) no foreground request was shed anywhere while background classes
//       were actively dispatched — the shed ladder stops above foreground,
//   (3) the whole run replays byte-for-byte (history serialization equality
//       across two identical runs, and under the reference heap engine).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "src/chaos/nemesis.h"
#include "src/chaos/sweep.h"
#include "src/core/messages.h"
#include "src/obs/metrics.h"
#include "src/qos/qos.h"

namespace cheetah::chaos {
namespace {

using core::Testbed;
using core::TestbedConfig;

// Sums every "qos@<node>#<instance>.<field>" counter in the global registry.
// Schedulers are recreated (with fresh Scope instances) on every restart, so
// the per-run total has to be collected from the registry rather than from
// the testbed's current scheduler objects.
uint64_t SumQosCounters(const std::string& field) {
  const std::string json = obs::Registry::Global().ToJson();
  const std::string needle = "." + field + "\":";
  uint64_t total = 0;
  size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    const size_t key_start = json.rfind('"', pos);
    if (key_start != std::string::npos &&
        json.compare(key_start + 1, 4, "qos@") == 0) {
      total += std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
    }
    pos += needle.size();
  }
  return total;
}

// Keeps the background class busy for the whole run: pull PGs from the meta
// servers in a loop, honoring retry-after pushback like a polite scrubber.
sim::Task<> BgPuller(rpc::Node* rpc, Testbed* bed, std::shared_ptr<bool> stop,
                     int idx) {
  uint32_t pg = static_cast<uint32_t>(idx);
  while (!*stop) {
    core::PgPullRequest req;
    req.pg = pg++ % bed->config().pg_count;
    req.limit = 64;
    const int meta = static_cast<int>(pg) % bed->num_meta();
    auto r = co_await rpc->Call(bed->meta_node(meta), std::move(req), Millis(300));
    if (!r.ok() && r.status().IsOverloaded()) {
      co_await sim::SleepFor(qos::RetryAfterOf(r.status(), Millis(20)));
    }
    co_await sim::SleepFor(Millis(10));
  }
}

struct QosChaosResult {
  std::string history;      // serialized, for the determinism comparison
  std::string schedule_str;
  bool workers_done = false;
  bool linearizable = false;
  std::string violations;
  uint64_t fg_sheds = 0;
  uint64_t bg_dispatched = 0;
};

// Pure function of `seed` (modulo obs instance numbering, which the history
// comparison deliberately ignores).
QosChaosResult RunQosChaos(uint64_t seed) {
  QosChaosResult result;
  TestbedConfig config;
  config.meta_machines = 4;
  config.data_machines = 4;
  config.proxies = 3;
  config.pg_count = 8;
  config.disks_per_data_machine = 2;
  config.pvs_per_disk = 3;
  config.lv_capacity_bytes = MiB(128);
  config.options.qos.enabled = true;
  const int meta_count = config.meta_machines;
  const int data_count = config.data_machines;
  Sweep sweep(std::move(config));
  Testbed& bed = sweep.bed();
  if (!bed.Boot().ok()) {
    ADD_FAILURE() << "boot failed";
    return result;
  }

  const uint64_t fg_sheds_before = SumQosCounters("shed.foreground");
  const uint64_t bg_dispatched_before = SumQosCounters("dispatched.background");

  const NemesisSchedule schedule =
      StandardSchedules(seed, meta_count, data_count, Seconds(4)).back();  // Combined
  bed.network().SeedFaults(seed * 7919 + 42);
  schedule.Install(bed);
  result.schedule_str = schedule.ToString();

  auto stop_pullers = std::make_shared<bool>(false);
  for (int i = 0; i < 2; ++i) {
    bed.proxy_machine(2).actor().Spawn(
        BgPuller(&bed.proxy_rpc(2), &bed, stop_pullers, i));
  }

  ClientMix mix;
  mix.rounds = 12;
  result.workers_done = sweep.RunClients(mix, seed);

  // Restore, settle, audit every key into the same history.
  *stop_pullers = true;
  sweep.RestoreAll();
  sweep.AuditKeys(mix.Keys());

  result.fg_sheds = SumQosCounters("shed.foreground") - fg_sheds_before;
  result.bg_dispatched =
      SumQosCounters("dispatched.background") - bg_dispatched_before;
  auto violations = CheckLinearizable(sweep.history());
  result.linearizable = violations.empty();
  result.violations = FormatViolations(violations);
  result.history = sweep.history().Serialize();
  return result;
}

TEST(QosChaosTest, CombinedNemesisWithQosStaysLinearizableAndNeverShedsForeground) {
  const uint64_t seed = 1;
  QosChaosResult r = RunQosChaos(seed);
  EXPECT_TRUE(r.workers_done) << "workload hung under schedule:\n" << r.schedule_str;
  EXPECT_TRUE(r.linearizable) << r.violations << "schedule (seed " << seed << "):\n"
                              << r.schedule_str;
  // Background traffic (explicit pullers + crash-recovery PG pulls) must
  // actually have flowed through the schedulers...
  EXPECT_GT(r.bg_dispatched, 0u);
  // ...while foreground was never shed: the ladder stops above it, and the
  // chaos workload is far below any foreground queue bound.
  EXPECT_EQ(r.fg_sheds, 0u);
}

TEST(QosChaosTest, QosChaosRunIsDeterministic) {
  QosChaosResult a = RunQosChaos(2);
  QosChaosResult b = RunQosChaos(2);
  ASSERT_TRUE(a.workers_done);
  ASSERT_TRUE(b.workers_done);
  EXPECT_EQ(a.history, b.history);
  EXPECT_EQ(a.schedule_str, b.schedule_str);
  EXPECT_EQ(a.fg_sheds, b.fg_sheds);
  // Cross-engine guard: the reference heap engine must replay the identical
  // run byte for byte — the timer wheel is only allowed to be faster, never
  // different.
  QosChaosResult c = OnHeapEngine([] { return RunQosChaos(2); });
  ASSERT_TRUE(c.workers_done);
  EXPECT_EQ(a.history, c.history);
  EXPECT_EQ(a.schedule_str, c.schedule_str);
}

}  // namespace
}  // namespace cheetah::chaos
