// ReplicaSet at its seam: the snapshot outlives its map, request builders
// fill the shared DataTarget fields, wire sizes stay pinned, the read-outcome
// classifier as a table, and the shared probe/repair loops against stub data
// servers.
#include "src/core/replica_set.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/crc32c.h"
#include "src/obs/metrics.h"
#include "src/sim/actor.h"

namespace cheetah::core {
namespace {

using sim::NodeId;

cluster::PhysicalVolume Pv(cluster::PvId id, NodeId server, uint32_t disk, bool healthy) {
  cluster::PhysicalVolume pv;
  pv.id = id;
  pv.data_server = server;
  pv.disk_index = disk;
  pv.healthy = healthy;
  return pv;
}

// LV 3 on PVs 7, 2, 5 (deliberately not sorted); PV 2 is unhealthy.
cluster::TopologyMap ThreeWayMap() {
  cluster::TopologyMap map;
  map.view = 9;
  map.pvs[7] = Pv(7, 10, 0, true);
  map.pvs[2] = Pv(2, 11, 1, false);
  map.pvs[5] = Pv(5, 12, 2, true);
  cluster::LogicalVolume lv;
  lv.id = 3;
  lv.replicas = {7, 2, 5};
  lv.block_size = 8192;
  map.lvs[3] = lv;
  return map;
}

const std::vector<alloc::Extent> kExtents = {{4, 2}, {10, 1}};

void ExpectTarget(const DataTarget& t, const std::string& device, uint32_t disk) {
  EXPECT_EQ(t.device, device);
  EXPECT_EQ(t.disk_index, disk);
  EXPECT_EQ(t.block_size, 8192u);
  ASSERT_EQ(t.extents.size(), kExtents.size());
  for (size_t i = 0; i < kExtents.size(); ++i) {
    EXPECT_EQ(t.extents[i].block, kExtents[i].block);
    EXPECT_EQ(t.extents[i].count, kExtents[i].count);
  }
}

TEST(ReplicaSet, SnapshotOutlivesItsMap) {
  auto map = std::make_unique<cluster::TopologyMap>(ThreeWayMap());
  auto set = ReplicaSet::Of(*map, 3, kExtents);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  // A topology push move-assigns the live map; then the map goes away. The
  // set must not point into either (the sanitize preset flags any access).
  *map = cluster::TopologyMap{};
  map.reset();
  ASSERT_EQ(set->size(), 3u);
  EXPECT_EQ((*set)[0].device, "pv_7");
  const DataWriteRequest write = set->Write((*set)[2], "payload", 1);
  ExpectTarget(write, "pv_5", 2);
  EXPECT_EQ(write.view, 9u);
}

TEST(ReplicaSet, KeepsReplicaOrderAndHealth) {
  auto set = ReplicaSet::Of(ThreeWayMap(), 3, kExtents);
  ASSERT_TRUE(set.ok());
  EXPECT_TRUE(set->complete());
  const std::vector<cluster::PvId> pvs = {7, 2, 5};
  const std::vector<NodeId> nodes = {10, 11, 12};
  const std::vector<bool> healthy = {true, false, true};
  for (size_t i = 0; i < set->size(); ++i) {
    const Replica& r = (*set)[i];
    EXPECT_EQ(r.pv, pvs[i]) << i;
    EXPECT_EQ(r.device, "pv_" + std::to_string(pvs[i])) << i;
    EXPECT_EQ(r.disk_index, i) << i;
    EXPECT_EQ(r.node, nodes[i]) << i;
    EXPECT_EQ(r.healthy, healthy[i]) << i;
    EXPECT_TRUE(r.known()) << i;
  }
}

TEST(ReplicaSet, LookupSeesTheNewerMap) {
  cluster::TopologyMap map = ThreeWayMap();
  auto set = ReplicaSet::Of(map, 3, kExtents);
  ASSERT_TRUE(set.ok());
  map.pvs[7].healthy = false;
  map.pvs[2].healthy = true;
  EXPECT_TRUE((*set)[0].healthy);  // the snapshot keeps what it saw
  EXPECT_FALSE(ReplicaSet::Lookup(map, 7).healthy);
  EXPECT_TRUE(ReplicaSet::Lookup(map, 2).healthy);
  EXPECT_FALSE(ReplicaSet::Lookup(map, 99).known());
}

// Unknown LV: StaleView, which the proxy's put, get and EC get paths return
// as is (VerifyPending answers Unavailable; discard, migration, scrub and
// tiering skip the object). Unknown PV: the set is incomplete and the entry
// is unknown and unhealthy, so the put and EC get paths answer StaleView
// while the others skip that replica.
TEST(ReplicaSet, UnknownVolumes) {
  const cluster::TopologyMap map = ThreeWayMap();
  auto missing_lv = ReplicaSet::Of(map, 4, kExtents);
  ASSERT_FALSE(missing_lv.ok());
  EXPECT_TRUE(missing_lv.status().IsStaleView()) << missing_lv.status().ToString();

  cluster::TopologyMap holed = map;
  holed.pvs.erase(2);
  auto set = ReplicaSet::Of(holed, 3, kExtents);
  ASSERT_TRUE(set.ok());
  EXPECT_FALSE(set->complete());
  ASSERT_EQ(set->size(), 3u);
  EXPECT_EQ((*set)[1].pv, 2u);
  EXPECT_FALSE((*set)[1].known());
  EXPECT_FALSE((*set)[1].healthy);
  EXPECT_TRUE((*set)[0].known());
  EXPECT_TRUE((*set)[2].known());
}

TEST(ReplicaSet, BuildersFillTheSharedFields) {
  auto set = ReplicaSet::Of(ThreeWayMap(), 3, kExtents);
  ASSERT_TRUE(set.ok());
  const Replica& r = (*set)[2];
  const std::string data(100, 'd');

  const DataWriteRequest write = set->Write(r, data, 0xabc);
  ExpectTarget(write, "pv_5", 2);
  EXPECT_EQ(write.view, 9u);
  EXPECT_EQ(write.data, data);
  EXPECT_EQ(write.checksum, 0xabcu);
  const RepairWriteRequest repair_write = set->Write<RepairWriteRequest>(r, data, 0xabc);
  ExpectTarget(repair_write, "pv_5", 2);
  EXPECT_EQ(repair_write.view, 9u);

  const DataReadRequest plain = set->Read(r, 777);
  ExpectTarget(plain, "pv_5", 2);
  EXPECT_EQ(plain.length, 777u);
  EXPECT_FALSE(plain.verify);
  EXPECT_EQ(plain.expected_checksum, 0u);
  const RepairReadRequest verified = set->Read<RepairReadRequest>(r, 777, 0xdef);
  ExpectTarget(verified, "pv_5", 2);
  EXPECT_TRUE(verified.verify);
  EXPECT_EQ(verified.expected_checksum, 0xdefu);

  const DataProbeRequest probe = set->Probe(r, 0x123);
  ExpectTarget(probe, "pv_5", 2);
  EXPECT_EQ(probe.expected_checksum, 0x123u);
  ExpectTarget(set->Discard(r), "pv_5", 2);

  // Wire sizes set virtual time: pinned for a 4-byte device name, two
  // extents and a 100-byte payload.
  EXPECT_EQ(write.wire_size(), 168u);
  EXPECT_EQ(repair_write.wire_size(), 168u);
  EXPECT_EQ(plain.wire_size(), 100u);
  EXPECT_EQ(verified.wire_size(), 100u);
  EXPECT_EQ(probe.wire_size(), 84u);
  EXPECT_EQ(set->Discard(r).wire_size(), 76u);
}

// The verified-read rules the proxy's replica and EC paths share.
TEST(ReplicaSet, ClassifyReadTable) {
  const std::string bytes = "object bytes";
  const uint32_t crc = Crc32c(bytes);
  auto reply = [&](std::string data, uint32_t stored, bool content_valid) {
    DataReadReply r;
    r.data = std::move(data);
    r.checksum = stored;
    r.content_valid = content_valid;
    return Result<DataReadReply>(std::move(r));
  };
  struct Row {
    const char* what;
    Result<DataReadReply> r;
    ReadOutcome want;
  };
  const Row rows[] = {
      {"ok, content crc matches", reply(bytes, crc, true), ReadOutcome::kOk},
      {"ok, metadata-only, stored crc matches", reply("zeros", crc, false), ReadOutcome::kOk},
      {"ok, recomputed crc mismatch", reply("rotted bytes", crc, true), ReadOutcome::kDamaged},
      {"ok, stored checksum mismatch", reply(bytes, crc + 1, true), ReadOutcome::kDamaged},
      {"ok, metadata-only, stored mismatch", reply(bytes, crc + 1, false),
       ReadOutcome::kDamaged},
      {"corruption", Status::Corruption("extent"), ReadOutcome::kDamaged},
      {"io error", Status::IoError("lse"), ReadOutcome::kDamaged},
      {"timeout", Status::Timeout(), ReadOutcome::kSuspect},
      {"unavailable", Status::Unavailable(), ReadOutcome::kFailed},
      {"stale view", Status::StaleView(), ReadOutcome::kFailed},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(ClassifyRead(row.r, crc), row.want) << row.what;
  }
}

// ---- the shared probe and repair loops ----

// A data server stand-in: answers probes with `present` (true/false) or
// fails them with `fail`, and acks or fails repair writes.
struct StubData {
  StubData(sim::EventLoop& loop, sim::Network& net, NodeId id)
      : machine(loop, id, "stub", sim::MachineParams{}), node(machine, net) {
    node.Attach();
    node.Serve<DataProbeRequest>(
        [this](NodeId, DataProbeRequest req) -> sim::Task<Result<DataProbeReply>> {
          probes.push_back(req);
          if (!fail.ok()) {
            co_return fail;
          }
          DataProbeReply reply;
          reply.present = present;
          co_return reply;
        });
    node.Serve<RepairWriteRequest>(
        [this](NodeId, RepairWriteRequest req) -> sim::Task<Result<DataWriteReply>> {
          writes.push_back(req);
          if (!fail.ok()) {
            co_return fail;
          }
          co_return DataWriteReply{};
        });
  }

  sim::Machine machine;
  rpc::Node node;
  bool present = true;
  Status fail;
  std::vector<DataProbeRequest> probes;
  std::vector<RepairWriteRequest> writes;
};

class ReplicaLoopsTest : public ::testing::Test {
 protected:
  ReplicaLoopsTest()
      : net_(loop_, sim::NetParams{}),
        machine_(loop_, 1, "caller", sim::MachineParams{}),
        node_(machine_, net_),
        scope_("replica_set_test") {
    node_.Attach();
    for (NodeId id : {10, 11, 12}) {
      stubs_[id] = std::make_unique<StubData>(loop_, net_, id);
    }
  }

  template <typename Body>
  void Run(Body body) {
    bool done = false;
    machine_.actor().Spawn([](Body body, bool* done) -> sim::Task<> {
      co_await body();
      *done = true;
    }(std::move(body), &done));
    loop_.Run();
    EXPECT_TRUE(done) << "loop never finished";
  }

  sim::EventLoop loop_;
  sim::Network net_;
  sim::Machine machine_;
  rpc::Node node_;
  std::map<NodeId, std::unique_ptr<StubData>> stubs_;
  obs::Scope scope_;
};

TEST_F(ReplicaLoopsTest, ProbeSkipsUnknownAndOptionallyUnhealthyReplicas) {
  cluster::TopologyMap map = ThreeWayMap();
  stubs_[12]->present = false;
  auto set = ReplicaSet::Of(map, 3, kExtents);
  ASSERT_TRUE(set.ok());
  obs::Counter* errors = scope_.counter("errors");
  obs::Counter* absent = scope_.counter("absent");
  const std::vector<uint32_t> crcs = {1, 2, 3};
  std::optional<ProbeTally> all, healthy;
  Run([&]() -> sim::Task<> {
    all = co_await ProbeReplicas(node_, *set, crcs, /*healthy_only=*/false, Millis(50),
                                 errors, absent);
    healthy = co_await ProbeReplicas(node_, *set, crcs, /*healthy_only=*/true, Millis(50),
                                     nullptr, nullptr);
  });
  ASSERT_TRUE(all.has_value() && healthy.has_value());
  EXPECT_EQ(all->present, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(all->absent, (std::vector<size_t>{2}));
  EXPECT_EQ(healthy->present, (std::vector<size_t>{0}));  // PV 2 (index 1) is unhealthy
  EXPECT_EQ(healthy->absent, (std::vector<size_t>{2}));
  EXPECT_EQ(errors->value(), 0u);
  EXPECT_EQ(absent->value(), 1u);
  // Each probe carries its own expected checksum.
  ASSERT_EQ(stubs_[11]->probes.size(), 1u);
  EXPECT_EQ(stubs_[11]->probes[0].expected_checksum, 2u);
  EXPECT_EQ(stubs_[12]->probes.back().expected_checksum, 3u);

  // An RPC failure counts as an error, neither present nor absent; an
  // unknown PV is never probed.
  stubs_[10]->fail = Status::IoError("down");
  map.pvs.erase(5);
  auto holed = ReplicaSet::Of(map, 3, kExtents);
  ASSERT_TRUE(holed.ok());
  std::optional<ProbeTally> partial;
  Run([&]() -> sim::Task<> {
    partial = co_await ProbeReplicas(node_, *holed, crcs, false, Millis(50), errors, absent);
  });
  ASSERT_TRUE(partial.has_value());
  EXPECT_EQ(partial->present, (std::vector<size_t>{1}));
  EXPECT_TRUE(partial->absent.empty());
  EXPECT_EQ(errors->value(), 1u);
  EXPECT_EQ(stubs_[12]->probes.size(), 2u);  // not probed the third time
}

TEST_F(ReplicaLoopsTest, RepairContinuesPastAFailedWrite) {
  auto set = ReplicaSet::Of(ThreeWayMap(), 3, kExtents);
  ASSERT_TRUE(set.ok());
  stubs_[10]->fail = Status::IoError("media");
  std::vector<Rewrite> writes;
  writes.push_back(Rewrite{(*set)[0], std::string(10, 'a'), 5});
  writes.push_back(Rewrite{(*set)[2], std::string(30, 'c'), 6});
  RepairCounters counters{scope_.counter("repaired"), scope_.counter("bytes"),
                          scope_.counter("failed")};
  Run([&]() -> sim::Task<> {
    co_await RepairReplicas(node_, *set, std::move(writes), Millis(50), counters);
  });
  EXPECT_EQ(counters.repaired->value(), 1u);
  EXPECT_EQ(counters.failed->value(), 1u);
  EXPECT_EQ(counters.bytes->value(), 30u);
  ASSERT_EQ(stubs_[12]->writes.size(), 1u);
  ExpectTarget(stubs_[12]->writes[0], "pv_5", 2);
  EXPECT_EQ(stubs_[12]->writes[0].checksum, 6u);
  EXPECT_EQ(stubs_[12]->writes[0].view, 9u);
  EXPECT_TRUE(stubs_[11]->writes.empty());
}

}  // namespace
}  // namespace cheetah::core
