// Recovery regressions for the chaos PR:
//  * a partitioned-then-healed meta primary must not make in-flight puts
//    exhaust their retries — the RE-META path (§5.3) finishes them on the
//    post-view-change primary;
//  * crashing the meta server that is itself mid-way through pulling PGs
//    (crash during view change) must still converge to a view where every
//    acknowledged object is readable;
//  * a lone meta server has no peer to pull its PGs from, so boot must ready
//    every PG at once instead of retrying a pull that has no source.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "src/core/testbed.h"
#include "tests/test_util.h"

namespace cheetah::core {
namespace {

TestbedConfig SmallConfig() {
  TestbedConfig config;
  config.meta_machines = 4;
  config.data_machines = 4;
  config.proxies = 2;
  config.pg_count = 8;
  config.disks_per_data_machine = 2;
  config.pvs_per_disk = 3;
  config.lv_capacity_bytes = MiB(128);
  return config;
}

TEST(Recovery, HealedMetaPartitionCompletesInflightPutsViaReMeta) {
  Testbed bed(SmallConfig());
  ASSERT_TRUE(bed.Boot().ok());

  // Cut one meta machine off from the whole cluster, then immediately start
  // puts. Names spread across all PGs, so some target the isolated primary;
  // those must ride RE-META onto the post-view-change primary instead of
  // burning all retries against the black hole.
  bed.Isolate(bed.meta_node(0));
  auto oks = std::make_shared<int>(0);
  auto fails = std::make_shared<int>(0);
  auto done = std::make_shared<int>(0);
  constexpr int kPuts = 16;
  bed.SpawnOnProxy(0, [oks, fails, done](ClientProxy& proxy) -> sim::Task<> {
    for (int i = 0; i < kPuts; ++i) {
      Status s = co_await proxy.Put("inflight-" + std::to_string(i),
                                    std::string(4096, static_cast<char>('a' + i % 26)));
      if (s.ok()) {
        ++*oks;
      } else {
        ++*fails;
      }
    }
    ++*done;
  });
  bed.loop().RunUntilDone([&] { return *done == 1; }, Seconds(60));
  ASSERT_EQ(*done, 1) << "puts hung";
  EXPECT_EQ(*fails, 0) << "puts exhausted retries during the partition";
  EXPECT_EQ(*oks, kPuts);

  // Heal; the evicted meta rejoins as the topology dictates, and the data
  // stays readable afterwards.
  bed.Heal();
  bed.RunFor(Seconds(2));
  for (int i = 0; i < kPuts; ++i) {
    auto got = bed.GetObject(1, "inflight-" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
    EXPECT_EQ(got->size(), 4096u);
  }
}

TEST(Recovery, CrashDuringViewChangeConvergesWithoutLoss) {
  TestbedConfig config = SmallConfig();
  config.meta_machines = 5;  // survive two dead metas with replication 3
  Testbed bed(std::move(config));
  ASSERT_TRUE(bed.Boot().ok());

  // Seed enough objects that the post-crash PG pulls do real work.
  std::map<std::string, char> acked;
  for (int i = 0; i < 48; ++i) {
    const std::string name = "vc-" + std::to_string(i);
    const char fill = static_cast<char>('a' + i % 26);
    ASSERT_TRUE(bed.PutObject(0, name, std::string(2048, fill)).ok()) << name;
    acked[name] = fill;
  }

  // First crash forces a view change; catch a surviving meta mid-adoption
  // (actively pulling PGs) and kill it too.
  bed.CrashMetaMachine(0, /*power_loss=*/false);
  int second_victim = -1;
  bed.loop().RunUntilDone([&] {
    for (int i = 1; i < bed.num_meta(); ++i) {
      if (bed.meta_machine(i).alive() && bed.meta(i).adopting()) {
        second_victim = i;
        return true;
      }
    }
    return false;
  }, Seconds(5));
  ASSERT_GE(second_victim, 0) << "never observed a meta mid-adoption";
  bed.CrashMetaMachine(second_victim, /*power_loss=*/true);

  // The next view must converge on the three remaining metas.
  bed.RunFor(Seconds(3));
  for (int i = 0; i < bed.num_meta(); ++i) {
    if (!bed.meta_machine(i).alive()) {
      continue;
    }
    EXPECT_TRUE(bed.meta(i).HasLease()) << "meta " << i;
    EXPECT_GT(bed.meta(i).view(), 1u) << "meta " << i;
  }

  // No acknowledged object lost, reading through the survivors...
  for (const auto& [name, fill] : acked) {
    auto got = bed.GetObject(0, name);
    ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
    ASSERT_EQ(got->size(), 2048u) << name;
    EXPECT_EQ((*got)[0], fill) << name;
  }

  // ...and still none after both casualties return and re-adopt.
  bed.RestartMetaMachine(0);
  bed.RestartMetaMachine(second_victim);
  bed.RunFor(Seconds(3));
  for (const auto& [name, fill] : acked) {
    auto got = bed.GetObject(1, name);
    ASSERT_TRUE(got.ok()) << name << " after restarts: " << got.status().ToString();
    EXPECT_EQ((*got)[0], fill) << name;
  }
}

TEST(Recovery, SingleMetaBootReadiesEveryPgWithinOneHeartbeat) {
  TestbedConfig config = SmallConfig();
  config.meta_machines = 1;
  config.replication = 1;
  config.pg_count = 64;
  config.pvs_per_disk = 8;  // 64 PVs -> 64 LVs at replication 1
  // Boot() returns one heartbeat interval after the servers start.
  config.boot_warmup = kHeartbeatInterval;
  Testbed bed(std::move(config));
  ASSERT_TRUE(bed.Boot().ok());

  for (cluster::PgId pg = 0; pg < 64; ++pg) {
    EXPECT_TRUE(bed.meta(0).IsReady(pg)) << "pg " << pg;
  }
  const uint64_t retries_before = bed.proxy(0).counters().retries->value();
  ASSERT_TRUE(bed.PutObject(0, "first-put", std::string(4096, 'f')).ok());
  EXPECT_EQ(bed.proxy(0).counters().retries->value(), retries_before) << "put answered pg not ready";
}

}  // namespace
}  // namespace cheetah::core
