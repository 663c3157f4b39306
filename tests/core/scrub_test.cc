// Background scrub/audit (§2.1 lists auditing among directory-based stores'
// management benefits): the primary compares MetaX checksums against every
// data replica and repairs divergent copies.
#include <gtest/gtest.h>

#include <memory>

#include "src/core/scrubber.h"
#include "src/core/testbed.h"
#include "tests/test_util.h"

namespace cheetah::core {
namespace {

class ScrubTest : public ::testing::Test {
 public:
  void SetUp() override {
    TestbedConfig config;
    config.meta_machines = 3;
    config.data_machines = 4;
    config.proxies = 1;
    config.pg_count = 8;
    config.disks_per_data_machine = 2;
    config.pvs_per_disk = 3;
    config.lv_capacity_bytes = MiB(128);
    bed_ = std::make_unique<Testbed>(std::move(config));
    ASSERT_TRUE(bed_->Boot().ok());
  }

  void ScrubAll() {
    auto pending = std::make_shared<int>(bed_->num_meta());
    for (int i = 0; i < bed_->num_meta(); ++i) {
      bed_->meta_machine(i).actor().Spawn(
          [](MetaServer* server, std::shared_ptr<int> pending) -> sim::Task<> {
            co_await server->ScrubNow();
            --*pending;
          }(&bed_->meta(i), pending));
    }
    while (*pending > 0 && bed_->loop().RunOne()) {
    }
  }

  std::unique_ptr<Testbed> bed_;
};

TEST_F(ScrubTest, CleanClusterScrubsWithoutRepairs) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(bed_->PutObject(0, "s-" + std::to_string(i), std::string(8192, 's')).ok());
  }
  bed_->RunFor(Seconds(2));  // let logs clean so objects are settled
  ScrubAll();
  uint64_t scrubbed = 0, repairs = 0;
  for (int i = 0; i < bed_->num_meta(); ++i) {
    scrubbed += bed_->meta(i).scrubber().stats().objects;
    repairs += bed_->meta(i).scrubber().stats().repairs;
  }
  EXPECT_EQ(scrubbed, 20u);
  EXPECT_EQ(repairs, 0u);
}

TEST_F(ScrubTest, ScrubRepairsLostReplica) {
  ASSERT_TRUE(bed_->PutObject(0, "victim", std::string(8192, 'v')).ok());
  bed_->RunFor(Seconds(2));

  // Simulate silent loss of one replica: discard the object's extents on one
  // physical volume (the device, not the metadata, loses the data).
  const auto& topo = bed_->meta(0).topology();
  int discarded_on = -1;
  for (int d = 0; d < bed_->num_data() && discarded_on < 0; ++d) {
    auto& machine = bed_->data_machine(d);
    for (size_t disk = 0; disk < machine.num_disks() && discarded_on < 0; ++disk) {
      for (const auto& [pv_id, pv] : topo.pvs) {
        if (pv.data_server != machine.node_id() ||
            pv.disk_index != static_cast<uint32_t>(disk)) {
          continue;
        }
        auto extents = machine.disk(disk).ListVolumeExtents(pv.DeviceName());
        if (!extents.empty()) {
          machine.disk(disk).DiscardBlocks(pv.DeviceName(), extents[0].offset);
          discarded_on = d;
          break;
        }
      }
    }
  }
  ASSERT_GE(discarded_on, 0) << "no replica found to damage";

  ScrubAll();
  uint64_t repairs = 0;
  for (int i = 0; i < bed_->num_meta(); ++i) {
    repairs += bed_->meta(i).scrubber().stats().repairs;
  }
  EXPECT_GE(repairs, 1u);

  // After repair, a second scrub is clean and the object reads everywhere.
  ScrubAll();
  uint64_t repairs_after = 0;
  for (int i = 0; i < bed_->num_meta(); ++i) {
    repairs_after += bed_->meta(i).scrubber().stats().repairs;
  }
  EXPECT_EQ(repairs_after, repairs);
  for (int trial = 0; trial < 6; ++trial) {  // random replica choice
    auto got = bed_->GetObject(0, "victim");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->size(), 8192u);
  }
}

// Transparent read-repair: a verified get that sees a corrupt replica but
// finds a healthy one rewrites the damaged copy in the background.
TEST_F(ScrubTest, VerifiedGetTriggersReadRepair) {
  const std::string payload(8192, 'r');
  ASSERT_TRUE(bed_->PutObject(0, "heal-me", payload).ok());
  bed_->RunFor(Seconds(2));

  // Rot every extent of every replica but one, so any get must observe at
  // least one damaged copy before it finds the healthy replica.
  const auto& topo = bed_->meta(0).topology();
  int rotted_replicas = 0;
  bool spared_one = false;
  for (int d = 0; d < bed_->num_data(); ++d) {
    auto& machine = bed_->data_machine(d);
    for (size_t disk = 0; disk < machine.num_disks(); ++disk) {
      for (const auto& [pv_id, pv] : topo.pvs) {
        if (pv.data_server != machine.node_id() ||
            pv.disk_index != static_cast<uint32_t>(disk)) {
          continue;
        }
        auto extents = machine.disk(disk).ListVolumeExtents(pv.DeviceName());
        if (extents.empty()) {
          continue;
        }
        if (!spared_one) {
          spared_one = true;  // the repair source
          continue;
        }
        for (const auto& info : extents) {
          ASSERT_TRUE(machine.disk(disk).CorruptExtent(pv.DeviceName(), info.offset));
        }
        ++rotted_replicas;
      }
    }
  }
  ASSERT_GT(rotted_replicas, 0) << "no replica found to damage";

  // Gets never return damaged bytes, and once one observes the corruption it
  // spawns the background repair.
  uint64_t observed = 0;
  for (int trial = 0; trial < 12 && observed == 0; ++trial) {
    auto got = bed_->GetObject(0, "heal-me");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, payload);
    observed = bed_->proxy(0).stats().corrupt_replica_reads;
  }
  ASSERT_GT(observed, 0u) << "no get ever touched a damaged replica";
  bed_->RunFor(Seconds(1));  // let the fire-and-forget repair land
  EXPECT_GT(bed_->proxy(0).stats().read_repairs, 0u);

  // Read-repair only heals replicas the gets actually touched; one scrub
  // pass mops up any replica no get ever routed to, after which a second
  // pass finds nothing left.
  ScrubAll();
  uint64_t corrupt_first = 0;
  for (int i = 0; i < bed_->num_meta(); ++i) {
    corrupt_first += bed_->meta(i).scrubber().stats().corrupt_found;
  }
  ScrubAll();
  uint64_t corrupt_second = 0;
  for (int i = 0; i < bed_->num_meta(); ++i) {
    corrupt_second += bed_->meta(i).scrubber().stats().corrupt_found;
  }
  EXPECT_EQ(corrupt_second, corrupt_first);
  // Read-repair got there first for at least one replica: the scrub pass had
  // fewer damaged copies left than were injected.
  EXPECT_LT(corrupt_first, static_cast<uint64_t>(rotted_replicas))
      << "read-repair healed nothing before the scrub pass";
}

// Read-repair racing a concurrent delete: the repair write is fire-and-forget
// and may land after the delete freed the object's blocks. Deletes never
// touch data servers (visibility is governed by MetaX tombstones), so a late
// repair write is benign: the name stays deleted, a re-put of the name works,
// and the cluster converges to a state a scrub pass finds clean.
TEST(ScrubRaceTest, ReadRepairRacingDeleteStaysConsistent) {
  TestbedConfig config;
  config.meta_machines = 3;
  config.data_machines = 4;
  config.proxies = 2;
  config.pg_count = 8;
  config.disks_per_data_machine = 2;
  config.pvs_per_disk = 3;
  config.lv_capacity_bytes = MiB(128);
  Testbed bed(std::move(config));
  ASSERT_TRUE(bed.Boot().ok());

  const std::string payload(8192, 'v');
  ASSERT_TRUE(bed.PutObject(0, "victim", payload).ok());
  bed.RunFor(Seconds(2));

  // Damage all replicas but one (same setup as the repair test above).
  const auto& topo = bed.meta(0).topology();
  bool spared_one = false;
  int rotted = 0;
  for (int d = 0; d < bed.num_data(); ++d) {
    auto& machine = bed.data_machine(d);
    for (size_t disk = 0; disk < machine.num_disks(); ++disk) {
      for (const auto& [pv_id, pv] : topo.pvs) {
        if (pv.data_server != machine.node_id() ||
            pv.disk_index != static_cast<uint32_t>(disk)) {
          continue;
        }
        auto extents = machine.disk(disk).ListVolumeExtents(pv.DeviceName());
        if (extents.empty()) {
          continue;
        }
        if (!spared_one) {
          spared_one = true;
          continue;
        }
        for (const auto& info : extents) {
          machine.disk(disk).CorruptExtent(pv.DeviceName(), info.offset);
          ++rotted;
        }
      }
    }
  }
  ASSERT_GT(rotted, 0);

  // Proxy 0 reads (observing the corruption and spawning repairs) while
  // proxy 1 deletes the object mid-stream.
  auto done = std::make_shared<int>(0);
  auto wrong_bytes = std::make_shared<int>(0);
  bed.RunOnProxy(0, [payload, done, wrong_bytes](ClientProxy& proxy) -> sim::Task<> {
    for (int i = 0; i < 10; ++i) {
      auto r = co_await proxy.Get("victim");
      if (r.ok() && *r != payload) {
        ++*wrong_bytes;  // silent corruption — never allowed
      }
      co_await sim::SleepFor(Millis(2));
    }
    ++*done;
  }, Nanos{0});
  bed.RunOnProxy(1, [done](ClientProxy& proxy) -> sim::Task<> {
    co_await sim::SleepFor(Millis(8));  // a few reads in flight first
    Status s = co_await proxy.Delete("victim");
    EXPECT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
    ++*done;
  }, Nanos{0});
  const Nanos deadline = bed.loop().Now() + Seconds(60);
  while (*done < 2 && bed.loop().Now() < deadline && bed.loop().RunOne()) {
  }
  ASSERT_EQ(*done, 2);
  EXPECT_EQ(*wrong_bytes, 0);

  // Any straggler repair writes land here.
  bed.RunFor(Seconds(2));

  // The delete sticks on every proxy, even if a repair wrote freed blocks.
  EXPECT_TRUE(bed.GetObject(0, "victim").status().IsNotFound());
  EXPECT_TRUE(bed.GetObject(1, "victim").status().IsNotFound());

  // The name is reusable, and the new bytes win everywhere.
  const std::string reborn(8192, 'w');
  ASSERT_TRUE(bed.PutObject(1, "victim", reborn).ok());
  bed.RunFor(Seconds(2));
  for (int p = 0; p < 2; ++p) {
    for (int trial = 0; trial < 6; ++trial) {  // random replica choice
      auto got = bed.GetObject(p, "victim");
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, reborn);
    }
  }

  // Converged: two scrub passes, the second finds nothing to repair.
  auto scrub_all = [&bed] {
    auto pending = std::make_shared<int>(bed.num_meta());
    for (int i = 0; i < bed.num_meta(); ++i) {
      bed.meta_machine(i).actor().Spawn(
          [](MetaServer* server, std::shared_ptr<int> pending) -> sim::Task<> {
            co_await server->ScrubNow();
            --*pending;
          }(&bed.meta(i), pending));
    }
    while (*pending > 0 && bed.loop().RunOne()) {
    }
  };
  scrub_all();
  uint64_t corrupt_before = 0;
  for (int i = 0; i < bed.num_meta(); ++i) {
    corrupt_before += bed.meta(i).scrubber().stats().corrupt_found;
  }
  scrub_all();
  uint64_t corrupt_after = 0;
  for (int i = 0; i < bed.num_meta(); ++i) {
    corrupt_after += bed.meta(i).scrubber().stats().corrupt_found;
  }
  EXPECT_EQ(corrupt_after, corrupt_before);
}

TEST_F(ScrubTest, PeriodicScrubRunsWhenEnabled) {
  TestbedConfig config;
  config.meta_machines = 3;
  config.data_machines = 4;
  config.proxies = 1;
  config.pg_count = 8;
  config.disks_per_data_machine = 2;
  config.pvs_per_disk = 3;
  config.lv_capacity_bytes = MiB(128);
  config.options.scrub_interval = Millis(500);
  Testbed bed(std::move(config));
  ASSERT_TRUE(bed.Boot().ok());
  ASSERT_TRUE(bed.PutObject(0, "periodic", std::string(4096, 'p')).ok());
  bed.RunFor(Seconds(3));
  uint64_t scrubbed = 0;
  for (int i = 0; i < bed.num_meta(); ++i) {
    scrubbed += bed.meta(i).scrubber().stats().objects;
  }
  EXPECT_GT(scrubbed, 0u);
}

}  // namespace
}  // namespace cheetah::core
