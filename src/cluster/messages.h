// Control-plane RPC messages: manager <-> servers/proxies, and the
// volume-recovery commands the manager issues to data servers.
//
// Every message type is a non-aggregate (defaulted constructor) per the
// GCC 12 caution in src/sim/task.h.
#ifndef SRC_CLUSTER_MESSAGES_H_
#define SRC_CLUSTER_MESSAGES_H_

#include <cstdint>
#include <string>

#include "src/cluster/topology.h"
#include "src/common/units.h"
#include "src/sim/network.h"

namespace cheetah::cluster {

enum class ServerKind : uint8_t { kMetaServer, kDataServer, kClientProxy };

struct HeartbeatReply {
  HeartbeatReply() = default;
  uint64_t current_view = 0;
  Nanos lease_duration = 0;  // 0 = not the manager leader
  bool is_leader = false;
  size_t wire_size() const { return 32; }
};
struct HeartbeatRequest {
  using Response = HeartbeatReply;
  HeartbeatRequest() = default;
  sim::NodeId node = sim::kInvalidNode;
  ServerKind kind = ServerKind::kMetaServer;
  uint64_t view = 0;
  size_t wire_size() const { return 24; }
};

struct GetTopologyReply {
  GetTopologyReply() = default;
  bool changed = false;          // false => caller is already current
  std::string serialized_map;    // TopologyMap::Serialize()
  size_t wire_size() const { return 16 + serialized_map.size(); }
};
struct GetTopologyRequest {
  using Response = GetTopologyReply;
  GetTopologyRequest() = default;
  uint64_t have_view = 0;
  size_t wire_size() const { return 16; }
};

struct ReportFailureReply {
  ReportFailureReply() = default;
  size_t wire_size() const { return 8; }
};
struct ReportFailureRequest {
  using Response = ReportFailureReply;
  ReportFailureRequest() = default;
  sim::NodeId suspect = sim::kInvalidNode;
  size_t wire_size() const { return 16; }
};

// Pushed (fire-and-forget) by the manager leader after a view change.
struct TopologyPushReply {
  TopologyPushReply() = default;
  size_t wire_size() const { return 8; }
};
struct TopologyPush {
  using Response = TopologyPushReply;
  TopologyPush() = default;
  std::string serialized_map;
  size_t wire_size() const { return 16 + serialized_map.size(); }
};

// Manager -> data server: rebuild `target_pv` (on the receiver) by copying
// the contents of `source_pv` (on `source_server`).
struct RecoverVolumeReply {
  RecoverVolumeReply() = default;
  uint64_t bytes_copied = 0;
  size_t wire_size() const { return 16; }
};
struct RecoverVolumeRequest {
  using Response = RecoverVolumeReply;
  RecoverVolumeRequest() = default;
  uint64_t view = 0;
  LvId lv = 0;
  PvId source_pv = 0;
  sim::NodeId source_server = sim::kInvalidNode;
  uint32_t source_disk = 0;
  PvId target_pv = 0;
  uint32_t target_disk = 0;
  size_t wire_size() const { return 52; }
};

// Manager -> migration destination: pull `pg`'s full history (MetaX rows,
// PG/PX logs, OPDONE markers) from `source` and merge it locally. Sent during
// the Catchup phase of a drain; the reply arriving means the destination
// holds everything the source had when the pull finished — double-write
// covers the rest, so cutover is safe.
struct MigratePgReply {
  MigratePgReply() = default;
  size_t wire_size() const { return 16; }
};
struct MigratePgRequest {
  using Response = MigratePgReply;
  MigratePgRequest() = default;
  uint64_t view = 0;
  PgId pg = 0;
  sim::NodeId source = sim::kInvalidNode;
  size_t wire_size() const { return 32; }
};

// Data server -> manager: volume recovery finished.
struct RecoveryDoneReply {
  RecoveryDoneReply() = default;
  size_t wire_size() const { return 8; }
};
struct RecoveryDoneRequest {
  using Response = RecoveryDoneReply;
  RecoveryDoneRequest() = default;
  LvId lv = 0;
  PvId target_pv = 0;
  uint64_t bytes_copied = 0;
  size_t wire_size() const { return 32; }
};

}  // namespace cheetah::cluster

#endif  // SRC_CLUSTER_MESSAGES_H_
