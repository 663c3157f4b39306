// Manager behaviors beyond what the end-to-end suite exercises: bootstrap
// validation, expansion layout rules, failure-report acceleration, and view
// monotonicity.
#include <gtest/gtest.h>

#include <set>

#include "src/core/testbed.h"
#include "tests/test_util.h"

namespace cheetah::cluster {
namespace {

core::TestbedConfig SmallConfig() {
  core::TestbedConfig config;
  config.meta_machines = 3;
  config.data_machines = 4;
  config.proxies = 1;
  config.pg_count = 8;
  config.disks_per_data_machine = 2;
  config.pvs_per_disk = 3;
  config.lv_capacity_bytes = MiB(64);
  return config;
}

TEST(ManagerTest, BootstrapRejectsTooFewVolumes) {
  core::TestbedConfig config = SmallConfig();
  config.pg_count = 512;  // 4*2*3/3 = 8 LVs < 512 PGs
  core::Testbed bed(std::move(config));
  Status s = bed.Boot();
  EXPECT_FALSE(s.ok());
}

TEST(ManagerTest, BootstrapLvReplicasOnDistinctServers) {
  core::Testbed bed(SmallConfig());
  ASSERT_TRUE(bed.Boot().ok());
  const TopologyMap& topo = bed.manager(bed.LeaderManager()).topology();
  for (const auto& [id, lv] : topo.lvs) {
    ASSERT_EQ(lv.replicas.size(), topo.replication);
    std::set<sim::NodeId> servers;
    for (PvId pv : lv.replicas) {
      servers.insert(topo.FindPv(pv)->data_server);
    }
    EXPECT_EQ(servers.size(), topo.replication) << "lv " << id << " co-locates replicas";
  }
  // Every PG's VG is non-empty and every LV belongs to exactly one VG.
  std::set<LvId> assigned;
  for (const auto& [pg, lvs] : topo.vgs) {
    EXPECT_FALSE(lvs.empty()) << "pg " << pg;
    for (LvId lv : lvs) {
      EXPECT_TRUE(assigned.insert(lv).second) << "lv " << lv << " in two VGs";
    }
  }
  EXPECT_EQ(assigned.size(), topo.lvs.size());
}

TEST(ManagerTest, AddDataServerKeepsVgExclusivity) {
  core::Testbed bed(SmallConfig());
  ASSERT_TRUE(bed.Boot().ok());
  const uint64_t view_before = bed.manager(bed.LeaderManager()).view();
  auto added = bed.AddDataMachine(2, 2);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  const TopologyMap& topo = bed.manager(bed.LeaderManager()).topology();
  EXPECT_GT(topo.view, view_before);
  std::set<LvId> assigned;
  for (const auto& [pg, lvs] : topo.vgs) {
    for (LvId lv : lvs) {
      EXPECT_TRUE(assigned.insert(lv).second);
    }
  }
  EXPECT_EQ(assigned.size(), topo.lvs.size());
  // New LVs still have distinct-server replicas.
  for (const auto& [id, lv] : topo.lvs) {
    std::set<sim::NodeId> servers;
    for (PvId pv : lv.replicas) {
      servers.insert(topo.FindPv(pv)->data_server);
    }
    EXPECT_EQ(servers.size(), topo.replication);
  }
}

TEST(ManagerTest, DuplicateMetaServerRejected) {
  core::Testbed bed(SmallConfig());
  ASSERT_TRUE(bed.Boot().ok());
  const sim::NodeId existing = bed.meta_machine(0).node_id();
  auto result = std::make_shared<Status>(Status::Internal("unresolved"));
  const int leader = bed.LeaderManager();
  ASSERT_GE(leader, 0);
  // Issue the duplicate add directly on the leader.
  auto& mgr = bed.manager(leader);
  bed.RunOnProxy(0, [&mgr, existing, result](core::ClientProxy&) -> sim::Task<> {
    // Hop onto the proxy actor just to have a coroutine context; the manager
    // method itself checks leadership internally.
    *result = co_await mgr.AddMetaServer(existing);
  });
  EXPECT_EQ(result->code(), ErrorCode::kAlreadyExists);
}

TEST(ManagerTest, ViewNumbersAreStrictlyMonotonic) {
  core::Testbed bed(SmallConfig());
  ASSERT_TRUE(bed.Boot().ok());
  std::vector<uint64_t> views;
  views.push_back(bed.manager(bed.LeaderManager()).view());
  (void)bed.AddDataMachine(1, 2);
  views.push_back(bed.manager(bed.LeaderManager()).view());
  (void)bed.AddMetaMachine();
  views.push_back(bed.manager(bed.LeaderManager()).view());
  bed.CrashMetaMachine(0, false);
  bed.RunFor(Seconds(2));
  views.push_back(bed.manager(bed.LeaderManager()).view());
  for (size_t i = 1; i < views.size(); ++i) {
    EXPECT_GT(views[i], views[i - 1]) << "step " << i;
  }
}

TEST(ManagerTest, FailureReportsAccelerateDetection) {
  core::Testbed bed(SmallConfig());
  ASSERT_TRUE(bed.Boot().ok());
  ASSERT_TRUE(bed.PutObject(0, "obj", std::string(4096, 'o')).ok());
  const uint64_t view_before = bed.proxy(0).view();
  bed.CrashMetaMachine(1, false);
  // A put routed at the dead server's PGs will time out and file a report;
  // detection completes within roughly fail_timeout rather than much later.
  bed.RunFor(Millis(1200));
  EXPECT_GT(bed.manager(bed.LeaderManager()).view(), view_before);
}

}  // namespace
}  // namespace cheetah::cluster
