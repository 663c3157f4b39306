// PG state transfer (§5.3): a meta server that becomes responsible for a PG
// pulls it from a surviving replica page by page and merges each page into
// its KV store. View-change adoption, restart recovery and drain catchup all
// use this routine with their own sources and retry policy. Every pull is a
// pure merge: deletes travel as tombstone records, so a replica's own
// (possibly only surviving) copy is never erased for lacking in a source.
#ifndef SRC_CORE_PG_TRANSFER_H_
#define SRC_CORE_PG_TRANSFER_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/topology.h"
#include "src/core/messages.h"
#include "src/kv/db.h"
#include "src/obs/metrics.h"
#include "src/rpc/node.h"

namespace cheetah::core {

// Orders the replicas `self` may pull `pg` from when adopting `next` after
// `prev`: the current owners at boot (prev.view == 0), else the previous
// owners. After a view gap the current owners come first, since the stale
// `prev` may name owners that no longer hold the PG. Sources `next` evicted
// go last: a page call to an unreachable node stalls a full rpc timeout.
// `self` is never listed, so a sole replica gets an empty list.
std::vector<sim::NodeId> PullSources(const cluster::TopologyMap& prev,
                                     const cluster::TopologyMap& next, cluster::PgId pg,
                                     bool view_gap, sim::NodeId self);

// Applies one pulled page locally; a non-OK status fails the source.
using PgPage = std::vector<std::pair<std::string, std::string>>;
using PgPageSink = std::function<sim::Task<Status>(PgPage)>;

// Writes each page to `db` as one batch and counts its rows in `merged`.
PgPageSink MergeInto(kv::DB& db, obs::Counter* merged);

// Not an aggregate: safe to pass by value to a coroutine (src/sim/task.h).
struct PgTransferSpec {
  PgTransferSpec() = default;
  PgPullRequest request;  // pg, view and min_view; the cursor is PgTransfer's
  std::vector<sim::NodeId> sources;
  Nanos rpc_timeout = 0;
  int rounds = 1;               // passes over `sources`
  Nanos backoff = 0;            // slept before every pass after the first
  std::function<bool()> abort;  // when set, checked before every pass
};

// Pulls spec.request.pg from the first source that serves every page,
// handing each page to `sink` as it lands (so Fig. 15's recovery curve tracks
// transfer progress). A call or sink error fails the source; the next one
// starts over. Returns the last failure if no source completes (Aborted if
// `abort` fired). An empty source list fails at once, without any backoff.
sim::Task<Status> PgTransfer(rpc::Node& rpc, PgTransferSpec spec, PgPageSink sink);

}  // namespace cheetah::core

#endif  // SRC_CORE_PG_TRANSFER_H_
