#include "src/core/replica_set.h"

#include "src/common/crc32c.h"

namespace cheetah::core {

Result<ReplicaSet> ReplicaSet::Of(const cluster::TopologyMap& topo, cluster::LvId lv,
                                  std::vector<alloc::Extent> extents) {
  const cluster::LogicalVolume* volume = topo.FindLv(lv);
  if (volume == nullptr) {
    return Status::StaleView("volume " + std::to_string(lv) + " unknown");
  }
  ReplicaSet set;
  set.view_ = topo.view;
  set.block_size_ = volume->block_size;
  set.extents_ = std::move(extents);
  set.replicas_.reserve(volume->replicas.size());
  for (cluster::PvId pv : volume->replicas) {
    set.replicas_.push_back(Lookup(topo, pv));
  }
  return set;
}

Replica ReplicaSet::Lookup(const cluster::TopologyMap& topo, cluster::PvId pv) {
  Replica r;
  r.pv = pv;
  if (const cluster::PhysicalVolume* p = topo.FindPv(pv)) {
    r.device = p->DeviceName();
    r.disk_index = p->disk_index;
    r.node = p->data_server;
    r.healthy = p->healthy;
  }
  return r;
}

bool ReplicaSet::complete() const {
  for (const Replica& r : replicas_) {
    if (!r.known()) {
      return false;
    }
  }
  return true;
}

DataProbeRequest ReplicaSet::Probe(const Replica& r, uint32_t expected_checksum) const {
  DataProbeRequest req = Target<DataProbeRequest>(r);
  req.expected_checksum = expected_checksum;
  return req;
}

DataDiscardRequest ReplicaSet::Discard(const Replica& r) const {
  return Target<DataDiscardRequest>(r);
}

ReadOutcome ClassifyRead(const Result<DataReadReply>& r, uint32_t expected) {
  if (!r.ok()) {
    switch (r.status().code()) {
      case ErrorCode::kTimeout:
        return ReadOutcome::kSuspect;
      case ErrorCode::kCorruption:
      case ErrorCode::kIoError:
        return ReadOutcome::kDamaged;
      default:
        return ReadOutcome::kFailed;
    }
  }
  const uint32_t crc = r->content_valid ? Crc32c(r->data) : r->checksum;
  return crc == expected && r->checksum == expected ? ReadOutcome::kOk
                                                    : ReadOutcome::kDamaged;
}

sim::Task<ProbeTally> ProbeReplicas(rpc::Node& rpc, const ReplicaSet& set,
                                    std::vector<uint32_t> expected, bool healthy_only,
                                    Nanos timeout, obs::Counter* errors,
                                    obs::Counter* absent_found) {
  ProbeTally tally;
  for (size_t i = 0; i < set.size(); ++i) {
    const Replica& r = set[i];
    if (!r.known() || (healthy_only && !r.healthy)) {
      continue;
    }
    auto reply = co_await rpc.Call(r.node, set.Probe(r, expected[i]), timeout);
    if (!reply.ok()) {
      if (errors != nullptr) {
        errors->Add();
      }
    } else if (reply->present) {
      tally.present.push_back(i);
    } else {
      if (absent_found != nullptr) {
        absent_found->Add();
      }
      tally.absent.push_back(i);
    }
  }
  co_return tally;
}

sim::Task<> RepairReplicas(rpc::Node& rpc, const ReplicaSet& set, std::vector<Rewrite> writes,
                           Nanos timeout, RepairCounters counters) {
  for (Rewrite& w : writes) {
    const uint64_t bytes = w.data.size();
    auto reply = co_await rpc.Call(
        w.to.node, set.Write<RepairWriteRequest>(w.to, std::move(w.data), w.checksum), timeout);
    obs::Counter* tick = reply.ok() ? counters.repaired : counters.failed;
    if (tick != nullptr) {
      tick->Add();
    }
    if (reply.ok() && counters.bytes != nullptr) {
      counters.bytes->Add(bytes);
    }
  }
}

}  // namespace cheetah::core
