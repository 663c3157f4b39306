// ReplicaSet: the data-plane targets of one object, copied out of the
// topology.
//
// An object's bytes live on the n physical volumes (PVs) of one logical
// volume (LV): the proxy writes all n in parallel (§4.1), a get reads any one
// (§5.1), the meta primary probes them to verify a pending put (§4.3.2), and
// the scrubber and the tiering engine fan out over the same PVs. Every one of
// these paths awaits RPCs, and a TopologyPush move-assigns the live
// TopologyMap while a coroutine is suspended, so no pointer into the map may
// be held across a co_await. A ReplicaSet is a value: it holds the LV's block
// size, the object's extents and one Replica per PV, and no pointer into the
// map it was built from. It also builds the data-plane requests, so every
// request names its volume the same way.
#ifndef SRC_CORE_REPLICA_SET_H_
#define SRC_CORE_REPLICA_SET_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/alloc/bitmap_allocator.h"
#include "src/cluster/topology.h"
#include "src/common/status.h"
#include "src/core/messages.h"
#include "src/obs/metrics.h"
#include "src/rpc/node.h"

namespace cheetah::core {

// One PV of the set as the map described it. A PV the map does not list
// (possible only in a malformed map) keeps node == kInvalidNode and
// healthy == false.
struct Replica {
  Replica() = default;
  cluster::PvId pv = 0;
  std::string device;
  uint32_t disk_index = 0;
  sim::NodeId node = sim::kInvalidNode;
  bool healthy = false;

  bool known() const { return node != sim::kInvalidNode; }
};

class ReplicaSet {
 public:
  // The PVs of LV `lv` in `lv->replicas` order, addressing `extents`.
  // StaleView when the map does not know the LV.
  static Result<ReplicaSet> Of(const cluster::TopologyMap& topo, cluster::LvId lv,
                               std::vector<alloc::Extent> extents);

  // PV `pv` as `topo` describes it now (a map that may be newer than the
  // set's own snapshot).
  static Replica Lookup(const cluster::TopologyMap& topo, cluster::PvId pv);

  size_t size() const { return replicas_.size(); }
  const Replica& operator[](size_t i) const { return replicas_[i]; }
  std::vector<Replica>::const_iterator begin() const { return replicas_.begin(); }
  std::vector<Replica>::const_iterator end() const { return replicas_.end(); }
  // True when the map listed every PV of the LV.
  bool complete() const;

  // Request builders: `r`'s device and disk, the set's block size and
  // extents. Writes carry the view the set was taken at. The Repair*
  // variants are the same requests in the maintenance QoS class.
  template <typename Req = DataWriteRequest>
  Req Write(const Replica& r, std::string data, uint32_t checksum) const {
    Req req = Target<Req>(r);
    req.view = view_;
    req.data = std::move(data);
    req.checksum = checksum;
    return req;
  }
  // Verified against `expected` on the server when set (DataReadRequest).
  template <typename Req = DataReadRequest>
  Req Read(const Replica& r, uint64_t length,
           std::optional<uint32_t> expected = std::nullopt) const {
    Req req = Target<Req>(r);
    req.length = length;
    req.verify = expected.has_value();
    req.expected_checksum = expected.value_or(0);
    return req;
  }
  DataProbeRequest Probe(const Replica& r, uint32_t expected_checksum) const;
  DataDiscardRequest Discard(const Replica& r) const;

 private:
  template <typename Req>
  Req Target(const Replica& r) const {
    Req req;
    req.device = r.device;
    req.disk_index = r.disk_index;
    req.block_size = block_size_;
    req.extents = extents_;
    return req;
  }

  uint64_t view_ = 0;
  uint32_t block_size_ = 4096;
  std::vector<alloc::Extent> extents_;
  std::vector<Replica> replicas_;
};

// What one verified read says about the replica that served it.
enum class ReadOutcome : uint8_t {
  kOk,       // verified bytes
  kSuspect,  // timed out: report the server to the managers
  kDamaged,  // positive evidence of damage: a repair candidate
  kFailed,   // any other error (unavailable, stale view): no verdict
};

// A kCorruption/kIoError reply, or an OK reply whose payload CRC
// (recomputed, or the stored one when the device keeps no content) or
// stored checksum differs from `expected`, is damage.
ReadOutcome ClassifyRead(const Result<DataReadReply>& r, uint32_t expected);

// The replicas a sequential probe pass found, by index into the set.
struct ProbeTally {
  ProbeTally() = default;
  std::vector<size_t> present;  // data stored under the expected checksum
  std::vector<size_t> absent;   // answered: missing or mismatched
};

// Probes replica i against expected[i], one replica at a time in set order.
// Unknown PVs are skipped, and so are unhealthy ones when `healthy_only`.
// An RPC failure counts neither way (indeterminate). `errors` and
// `absent_found` (either may be null) tick as each reply lands.
sim::Task<ProbeTally> ProbeReplicas(rpc::Node& rpc, const ReplicaSet& set,
                                    std::vector<uint32_t> expected, bool healthy_only,
                                    Nanos timeout, obs::Counter* errors,
                                    obs::Counter* absent_found);

// One maintenance-class rewrite of a damaged replica.
struct Rewrite {
  Replica to;
  std::string data;
  uint32_t checksum = 0;
};

// Counters a repair pass ticks as each write lands; null ones are skipped.
// Only plain pointers, so the bitwise copy GCC 12 makes of a braced
// aggregate coroutine argument (src/sim/task.h) is exact.
struct RepairCounters {
  obs::Counter* repaired = nullptr;
  obs::Counter* bytes = nullptr;
  obs::Counter* failed = nullptr;
};

// Sends each rewrite as a RepairWriteRequest, one at a time in order; a
// failed write is counted and the pass goes on to the next.
sim::Task<> RepairReplicas(rpc::Node& rpc, const ReplicaSet& set, std::vector<Rewrite> writes,
                           Nanos timeout, RepairCounters counters);

}  // namespace cheetah::core

#endif  // SRC_CORE_REPLICA_SET_H_
