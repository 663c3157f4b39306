// Cheetah meta server: the rich meta service (§3.1).
//
// Maintains MetaX (volume metadata Mv + offset metadata Mo + meta-log Ml) in
// an embedded KV store, written atomically per put (§5.2, Table 1). The
// primary of a PG allocates logical volumes from the PG's VG and in-volume
// blocks with a bitmap allocator, replies to the proxy *before* persistence
// (the paper's removal of distributed ordering, Fig. 4), replicates MetaX to
// the backups, and later notifies the proxy when everything is persisted.
//
// Recovery duties (§5.3):
//  - On a view change it pulls newly-responsible PGs from surviving replicas
//    and rebuilds per-LV allocators and per-PG opseq/pending state by
//    scanning the PG's key range.
//  - A cleaner loop deletes the logs of committed puts (syncing the on-disk
//    bitmaps, §5.2), and verifies stale uncommitted puts against the data
//    servers — completing them if the data landed, revoking them otherwise.
//  - Gets on pending objects trigger the same verification synchronously
//    (§4.3.2).
#ifndef SRC_CORE_META_SERVER_H_
#define SRC_CORE_META_SERVER_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/alloc/bitmap_allocator.h"
#include "src/cluster/messages.h"
#include "src/core/messages.h"
#include "src/core/metax.h"
#include "src/core/options.h"
#include "src/kv/db.h"
#include "src/obs/metrics.h"
#include "src/rpc/node.h"

namespace cheetah::tier {
class TierEngine;
}  // namespace cheetah::tier

namespace cheetah::core {

class Scrubber;

class MetaServer {
 public:
  MetaServer(rpc::Node& rpc, CheetahOptions options,
             std::vector<sim::NodeId> manager_nodes, uint64_t seed);
  ~MetaServer();  // out of line: scrubber_/tier_ own incomplete types here

  // Registers handlers and spawns init/heartbeat/cleaner loops.
  void Start();

  // Registry-backed counters ("meta@<node>#<i>.*"); the scrub counts are in
  // scrubber().stats().
  struct Counters {
    obs::Counter* put_allocs;
    obs::Counter* gets;
    obs::Counter* deletes;
    obs::Counter* replications;
    obs::Counter* pg_pulls_served;
    obs::Counter* recovered_kvs;     // KVs pulled into this server by PgTransfer
    obs::Counter* completed_puts;    // §5.3: verified-complete without commit
    obs::Counter* revoked_puts;
    obs::Counter* logs_cleaned;
    obs::Counter* migrated_objects;  // Cheetah-NoVG only
  };
  const Counters& counters() const { return counters_; }

  const cluster::TopologyMap& topology() const { return topo_; }
  uint64_t view() const { return topo_.view; }
  bool HasLease() const;
  bool IsReady(cluster::PgId pg) const { return ready_pgs_.contains(pg); }
  // True while this server is adopting a view (pulling PGs); chaos tests use
  // it to aim crashes at the middle of a view change.
  bool adopting() const { return adopting_; }
  size_t pending_puts() const { return pending_.size(); }
  kv::DB* db() { return db_.get(); }

  // Test hook: runs one cleaner pass immediately.
  sim::Task<> CleanNow() { return CleanLogs(); }
  // Audits every primary PG once (also runs periodically if
  // options.scrub_interval > 0). Delegates to the Scrubber.
  sim::Task<> ScrubNow();
  Scrubber& scrubber() { return *scrubber_; }
  // Runs one tiering (demotion) pass immediately (also runs periodically if
  // options.tier.tier_scan_interval > 0). Delegates to the TierEngine.
  sim::Task<> TierNow();
  tier::TierEngine& tier_engine() { return *tier_; }

 private:
  friend class Scrubber;  // reads db_/topo_/ready_pgs_/pending_names_
  friend class tier::TierEngine;  // drives demotion through private state
  struct PendingPut {
    ReqId reqid = 0;
    std::string name;
    cluster::PgId pg = 0;
    uint64_t opseq = 0;
    uint32_t proxy_id = 0;
    sim::NodeId proxy_node = sim::kInvalidNode;
    ObMeta meta;
    bool committed = false;
    bool persisted = false;
    // Rebuilt from the PG log (restart or PG adoption) rather than created by
    // a live put: the proxy's commit notification went to the replicas of
    // record at put time, so none is coming here — readers should verify
    // immediately instead of waiting for one.
    bool recovered = false;
    Nanos born = 0;
  };

  sim::Task<> Init();
  sim::Task<> HeartbeatLoop();
  sim::Task<> CleanerLoop();
  sim::Task<> CleanLogs();

  // Pulls newly-responsible PGs, rebuilds allocators/opseq/pending.
  sim::Task<> AdoptTopology(cluster::TopologyMap next);
  // Drops local PG keys absent from a completed pull (stale-record sweep).
  sim::Task<> RebuildPgState(cluster::PgId pg);
  sim::Task<> MigratePgData(cluster::PgId pg);  // Cheetah-NoVG

  // Returns the LVs usable for pg's new allocations (VG, or the NoVG hash
  // partition of all LVs).
  std::vector<cluster::LvId> EffectiveVg(cluster::PgId pg) const;
  Status CheckRequest(uint64_t view, cluster::PgId pg, bool need_primary) const;
  bool IsPrimary(cluster::PgId pg) const;
  alloc::BitmapAllocator* AllocatorFor(cluster::LvId lv);
  Result<std::pair<cluster::LvId, std::vector<alloc::Extent>>> AllocateSpace(
      cluster::PgId pg, uint64_t bytes);
  // Allocates `chunk_bytes` of extents on one of the PG's EC stripe LVs; the
  // one allocation reserves the same extent range on all k+m stripe PVs.
  Result<std::pair<cluster::LvId, std::vector<alloc::Extent>>> AllocateEcStripe(
      cluster::PgId pg, uint64_t chunk_bytes);
  // Allocates on the candidate with the most free space; `ec_stripe` admits
  // stripe LVs only.
  Result<std::pair<cluster::LvId, std::vector<alloc::Extent>>> AllocateOn(
      std::vector<cluster::LvId> candidates, uint64_t bytes, bool ec_stripe);

  // Persists the batch locally and on all backups in parallel; returns OK
  // only if every replica persisted.
  sim::Task<Status> PersistAndReplicate(cluster::PgId pg,
                                        std::vector<std::pair<std::string, std::string>> puts,
                                        std::vector<std::string> deletes);
  // Waits briefly for an in-flight put's commit notification to land.
  sim::Task<> WaitPendingResolved(const std::string& name, Nanos budget);
  // Verifies a pending put against the data servers; completes or revokes.
  sim::Task<Status> VerifyPending(ReqId reqid);
  sim::Task<> RevokePut(PendingPut put);
  sim::Task<> DiscardData(const ObMeta& meta);
  sim::Task<Status> FlushBitmap(cluster::LvId lv);

  sim::Task<Result<PutAllocReply>> HandlePutAlloc(sim::NodeId src, PutAllocRequest req);
  sim::Task<Result<PutCommitAck>> HandleCommit(sim::NodeId src, PutCommitNotify req);
  sim::Task<Result<GetMetaReply>> HandleGet(sim::NodeId src, GetMetaRequest req);
  sim::Task<Result<DeleteReply>> HandleDelete(sim::NodeId src, DeleteRequest req);
  sim::Task<Result<ReplicateMetaXReply>> HandleReplicate(sim::NodeId src,
                                                         ReplicateMetaXRequest req);
  sim::Task<Result<PgPullReply>> HandlePgPull(sim::NodeId src, PgPullRequest req);
  // Migration catchup: this server is the destination; pull the PG from the
  // drain source and merge it (maintenance QoS class).
  sim::Task<Result<cluster::MigratePgReply>> HandleMigratePg(sim::NodeId src,
                                                             cluster::MigratePgRequest req);
  sim::Task<Result<cluster::TopologyPushReply>> HandleTopologyPush(sim::NodeId src,
                                                                   cluster::TopologyPush req);

  rpc::Node& rpc_;
  CheetahOptions options_;
  std::vector<sim::NodeId> manager_nodes_;
  uint64_t seed_;

  std::unique_ptr<kv::DB> db_;
  cluster::TopologyMap topo_;
  Nanos lease_until_ = 0;
  bool adopting_ = false;
  std::optional<cluster::TopologyMap> pending_topo_;

  std::set<cluster::PgId> ready_pgs_;
  std::map<cluster::PgId, uint64_t> pg_opseq_;
  std::map<cluster::LvId, alloc::BitmapAllocator> allocators_;
  std::set<cluster::LvId> dirty_bitmaps_;  // flushed by the next clean cycle
  std::map<ReqId, PendingPut> pending_;
  std::map<std::string, ReqId> pending_names_;
  // Names mid-demotion-swap (src/tier): puts and deletes answer kUnavailable
  // while a name is here, for the single persist round the swap takes.
  std::set<std::string> tiering_names_;
  // Last get time per object name, feeding the demotion recency policy.
  std::map<std::string, Nanos> last_access_;

  std::unique_ptr<Scrubber> scrubber_;
  std::unique_ptr<tier::TierEngine> tier_;

  obs::Scope scope_;
  Counters counters_;
};

}  // namespace cheetah::core

#endif  // SRC_CORE_META_SERVER_H_
