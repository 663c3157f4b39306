#include "src/core/scrubber.h"

#include <string>
#include <utility>

#include "src/common/crc32c.h"
#include "src/common/logging.h"
#include "src/core/meta_server.h"
#include "src/core/messages.h"
#include "src/core/metax.h"
#include "src/core/replica_set.h"
#include "src/sim/sync.h"
#include "src/tier/striper.h"

namespace cheetah::core {

Scrubber::Scrubber(MetaServer& ms, rpc::Node& rpc, const CheetahOptions& options)
    : ms_(ms),
      rpc_(rpc),
      options_(options),
      scope_("scrub@" + std::to_string(rpc.id())),
      counters_{scope_.counter("objects"),
                scope_.counter("corrupt_found"),
                scope_.counter("repairs"),
                scope_.counter("repair_failures"),
                scope_.counter("probe_errors"),
                scope_.counter("bytes_repaired")} {}

sim::Task<> Scrubber::Loop() {
  for (;;) {
    co_await sim::SleepFor(options_.scrub_interval);
    co_await ScrubAll();
  }
}

sim::Task<> Scrubber::ScrubAll() {
  if (ms_.db_ == nullptr || ms_.topo_.view == 0) {
    co_return;
  }
  for (cluster::PgId pg = 0; pg < ms_.topo_.pg_count; ++pg) {
    // PGs mid-migration are skipped outright: a scrub repair racing the
    // cutover could write through topology targets the next view retires.
    if (ms_.IsPrimary(pg) && ms_.ready_pgs_.contains(pg) &&
        ms_.topo_.MigrationOf(pg) == nullptr) {
      co_await ScrubPg(pg);
    }
  }
}

sim::Task<> Scrubber::ScrubPg(cluster::PgId pg) {
  // Audit: for every settled object of the PG, probe each data replica's
  // stored checksum against MetaX; repair divergent replicas from a healthy
  // one. A replica counts as damaged whether the probe sees a checksum
  // mismatch (bit rot, torn write) or an I/O error (latent sector error) —
  // the repair write remaps either way.
  const uint64_t scrub_view = ms_.topo_.view;
  auto rows = co_await ms_.db_->Scan(ObMetaPrefix(pg), 0);
  if (!rows.ok()) {
    co_return;
  }
  for (const auto& [key, value] : *rows) {
    if (ms_.topo_.view != scrub_view || !ms_.IsPrimary(pg) ||
        ms_.topo_.MigrationOf(pg) != nullptr) {
      co_return;  // superseded by a view change or an in-flight migration
    }
    cluster::PgId key_pg = 0;
    std::string name;
    if (!ParseObMetaKey(key, &key_pg, &name) || ms_.pending_names_.contains(name)) {
      continue;  // unresolved puts are the cleaner's job
    }
    auto meta = ObMeta::Decode(value);
    if (!meta.ok()) {
      continue;
    }
    if (meta->storage_class == StorageClass::kInline) {
      // The payload lives in MetaX itself; the KV layer's own block CRCs and
      // WAL recovery audit it. Nothing on the data plane to probe.
      counters_.objects->Add();
      continue;
    }
    if (meta->storage_class == StorageClass::kEc) {
      co_await ScrubEcObject(std::move(*meta));
      continue;
    }
    auto set = ReplicaSet::Of(ms_.topo_, meta->lvid, meta->extents);
    if (!set.ok()) {
      continue;
    }
    const ProbeTally probed = co_await ProbeReplicas(
        rpc_, *set, std::vector<uint32_t>(set->size(), meta->checksum),
        /*healthy_only=*/true, options_.rpc_timeout, counters_.probe_errors,
        counters_.corrupt_found);
    counters_.objects->Add();
    if (probed.absent.empty() || probed.present.empty()) {
      continue;
    }
    // Repair: copy the healthy replica over the divergent ones. The source
    // read is verified against MetaX so a race (probe passed, then the
    // source rotted) can never propagate a damaged payload.
    const Replica& good = (*set)[probed.present.back()];
    auto data = co_await rpc_.Call(
        good.node, set->Read<RepairReadRequest>(good, meta->size, meta->checksum),
        options_.rpc_timeout);
    if (!data.ok()) {
      counters_.repair_failures->Add();
      continue;
    }
    std::vector<Rewrite> writes;
    for (size_t i : probed.absent) {
      writes.push_back(Rewrite{(*set)[i], data->data, meta->checksum});
    }
    co_await RepairReplicas(
        rpc_, *set, std::move(writes), options_.rpc_timeout,
        RepairCounters{counters_.repairs, counters_.bytes_repaired, counters_.repair_failures});
  }
}

sim::Task<> Scrubber::ScrubEcObject(ObMeta meta) {
  // Audit each stripe chunk against its recorded CRC32C, then rebuild any
  // damaged chunk from k verified survivors. Same detection rules as the
  // replica path: a checksum mismatch and an I/O error both count as damage.
  auto set = ReplicaSet::Of(ms_.topo_, meta.lvid, meta.extents);
  if (!set.ok() || meta.ec_k == 0 || meta.chunk_crcs.size() != set->size() ||
      !set->complete()) {
    co_return;
  }
  const uint32_t k = meta.ec_k;
  const uint32_t total = k + meta.ec_m;
  const uint64_t shard_bytes = (meta.size + k - 1) / k;
  const ProbeTally probed =
      co_await ProbeReplicas(rpc_, *set, meta.chunk_crcs, /*healthy_only=*/false,
                             options_.rpc_timeout, counters_.probe_errors,
                             counters_.corrupt_found);
  counters_.objects->Add();
  if (probed.absent.empty()) {
    co_return;
  }
  if (probed.present.size() < k) {
    counters_.repair_failures->Add();  // beyond m losses; nothing to rebuild from
    co_return;
  }
  // Verified reads of k surviving chunks, then Reed-Solomon reconstruction.
  std::vector<std::optional<std::string>> chunks(total);
  uint32_t have = 0;
  for (size_t j : probed.present) {
    if (have == k) {
      break;
    }
    auto r = co_await rpc_.Call(
        (*set)[j].node,
        set->Read<RepairReadRequest>((*set)[j], shard_bytes, meta.chunk_crcs[j]),
        options_.rpc_timeout);
    if (r.ok() && r->content_valid) {
      chunks[j] = std::move(r->data);
      ++have;
    }
  }
  if (have < k) {
    counters_.repair_failures->Add();
    co_return;
  }
  auto rebuilt = tier::ReconstructChunks(chunks, k, meta.ec_m);
  if (!rebuilt.ok()) {
    counters_.repair_failures->Add();
    co_return;
  }
  std::vector<Rewrite> writes;
  for (size_t j : probed.absent) {
    // Only write back a chunk whose rebuilt bytes match the recorded CRC — a
    // reconstruction from a racing state must never overwrite with garbage.
    if (Crc32c((*rebuilt)[j]) != meta.chunk_crcs[j]) {
      counters_.repair_failures->Add();
      continue;
    }
    writes.push_back(Rewrite{(*set)[j], std::move((*rebuilt)[j]), meta.chunk_crcs[j]});
  }
  co_await RepairReplicas(
      rpc_, *set, std::move(writes), options_.rpc_timeout,
      RepairCounters{counters_.repairs, counters_.bytes_repaired, counters_.repair_failures});
}

}  // namespace cheetah::core
