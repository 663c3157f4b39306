#include "src/core/pg_transfer.h"

#include <algorithm>

#include "src/sim/actor.h"

namespace cheetah::core {

namespace {

// Pulls every page of the PG from `source` into `sink`.
sim::Task<Status> PullFrom(rpc::Node& rpc, const PgTransferSpec& spec, sim::NodeId source,
                           const PgPageSink& sink) {
  PgPullRequest pull = spec.request;
  for (int page = 0; page < 100000; ++page) {
    auto r = co_await rpc.Call(source, pull, spec.rpc_timeout);
    if (!r.ok()) {
      co_return r.status();
    }
    pull.start_after = std::move(r->next_start_after);
    CO_RETURN_IF_ERROR(co_await sink(std::move(r->kvs)));
    if (pull.start_after.empty()) {
      co_return Status::Ok();
    }
  }
  co_return Status::Internal("pg pull did not terminate");
}

}  // namespace

std::vector<sim::NodeId> PullSources(const cluster::TopologyMap& prev,
                                     const cluster::TopologyMap& next, cluster::PgId pg,
                                     bool view_gap, sim::NodeId self) {
  std::vector<sim::NodeId> sources = (prev.view > 0 && !view_gap ? prev : next).MetaServersOf(pg);
  if (view_gap) {
    for (sim::NodeId s : prev.MetaServersOf(pg)) {
      if (std::find(sources.begin(), sources.end(), s) == sources.end()) {
        sources.push_back(s);
      }
    }
  }
  std::erase(sources, self);
  std::stable_partition(sources.begin(), sources.end(),
                        [&](sim::NodeId s) { return next.meta_crush.HasItem(s); });
  return sources;
}

PgPageSink MergeInto(kv::DB& db, obs::Counter* merged) {
  return [db = &db, merged](PgPage page) -> sim::Task<Status> {
    merged->Add(page.size());
    kv::WriteBatch batch;
    for (auto& [k, v] : page) {
      batch.Put(std::move(k), std::move(v));
    }
    co_return co_await db->Write(std::move(batch));
  };
}

sim::Task<Status> PgTransfer(rpc::Node& rpc, PgTransferSpec spec, PgPageSink sink) {
  Status last = Status::Unavailable("no pull source");
  for (int round = 0; round < spec.rounds && !spec.sources.empty(); ++round) {
    if (spec.abort && spec.abort()) {
      co_return Status::Aborted("pg transfer aborted");
    }
    if (round > 0) {
      co_await sim::SleepFor(spec.backoff);
    }
    for (sim::NodeId source : spec.sources) {
      last = co_await PullFrom(rpc, spec, source, sink);
      if (last.ok()) {
        co_return last;
      }
    }
  }
  co_return last;
}

}  // namespace cheetah::core
