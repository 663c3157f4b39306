// Embedded LSM key-value store over a simulated disk (RocksDB substitute).
//
// Write path: WAL append (optionally fsynced) -> memtable. Concurrent writers
// share appends (group commit): up to the disk's channel count of WAL groups
// run at once, and writers arriving beyond that queue and go out together as
// the next group, one append and one fsync. A full memtable is
// frozen and flushed to a level-0 SSTable in the background; level-0 tables
// are merged into a single level-1 run when l0_compaction_trigger accumulate.
// WriteBatch gives multi-key atomicity (all-or-nothing across crashes), which
// is the property Cheetah's MetaX maintenance relies on (§5.2 of the paper).
//
// Recovery: Open() reads the manifest, loads live SSTables (salvaging around
// CRC-bad blocks), deletes orphans from interrupted flushes/compactions, and
// replays surviving WAL records in order. WAL replay is paranoid: it
// distinguishes a clean tail from a torn final record (benign power-loss
// truncation) from a full-length record whose CRC or decode fails (media
// damage), and keeps salvaging records that follow a damaged one. The
// classification is reported in RecoveryStats and obs counters so a scrub
// or operator can tell silent corruption from an ordinary crash.
#ifndef SRC_KV_DB_H_
#define SRC_KV_DB_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/arena.h"
#include "src/common/status.h"
#include "src/kv/options.h"
#include "src/obs/metrics.h"
#include "src/kv/sstable.h"
#include "src/kv/write_batch.h"
#include "src/sim/storage.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace cheetah::kv {

class DB {
 public:
  // This DB's registry-backed counters (obs::Registry names them
  // "kv.<name>#<instance>.*").
  struct Counters {
    obs::Counter* writes;
    obs::Counter* flushes;
    obs::Counter* compactions;
    obs::Counter* gets;
    obs::Counter* wal_bytes;
    obs::Counter* wal_torn_tail;
    obs::Counter* wal_corrupt_records;
    obs::Counter* wal_salvaged_records;
    obs::Counter* sst_blocks_bad;
    obs::Counter* wal_syncs;     // group appends; writes / wal_syncs = mean group size
    obs::Counter* filter_skips;  // in-range tables a Get skipped on the Bloom filter
  };
  const Counters& counters() const { return counters_; }

  // What the last Open() found on disk. `clean` means every WAL byte
  // replayed and every SSTable block verified: any other combination is
  // either a benign crash artifact (torn tail) or media damage (corrupt
  // records / bad blocks).
  struct RecoveryStats {
    uint64_t wal_records_replayed = 0;
    uint64_t wal_torn_tail = 0;        // truncated final record (power loss)
    uint64_t wal_corrupt_records = 0;  // full-length record, CRC/decode bad
    uint64_t wal_salvaged_records = 0; // good records found after a corrupt one
    uint64_t sst_blocks_bad = 0;       // SSTable blocks skipped by salvage
    bool clean() const {
      return wal_torn_tail == 0 && wal_corrupt_records == 0 && sst_blocks_bad == 0;
    }
  };
  const RecoveryStats& recovery_stats() const { return recovery_; }

  // Opens (or creates) the database named options.name on `storage`.
  static sim::Task<Result<std::unique_ptr<DB>>> Open(Options options, sim::Storage* storage);

  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;
  ~DB() = default;

  // Atomically applies `batch`. Durable (given sync_wal) once this returns.
  sim::Task<Status> Write(WriteBatch batch);

  sim::Task<Status> Put(std::string key, std::string value);
  sim::Task<Status> Delete(std::string key);

  // Point lookup. NotFound if absent or deleted.
  sim::Task<Result<std::string>> Get(std::string key);

  // All live (key, value) pairs whose key starts with `prefix`, sorted by key.
  // limit = 0 means unlimited.
  sim::Task<Result<std::vector<std::pair<std::string, std::string>>>> Scan(std::string prefix,
                                                                           size_t limit);

  // Number of live entries (exact; walks the merged view without disk charge).
  uint64_t CountLiveEntries() const;

  const Options& options() const { return options_; }

  // Test hook: waits until no flush/compaction is running.
  sim::Task<> WaitForMaintenance();

 private:
  DB(Options options, sim::Storage* storage)
      : options_(std::move(options)),
        storage_(storage),
        scope_("kv." + options_.name),
        counters_{scope_.counter("writes"), scope_.counter("flushes"),
                  scope_.counter("compactions"), scope_.counter("gets"),
                  scope_.counter("wal_bytes"), scope_.counter("wal_torn_tail"),
                  scope_.counter("wal_corrupt_records"),
                  scope_.counter("wal_salvaged_records"),
                  scope_.counter("sst_blocks_bad"), scope_.counter("wal_syncs"),
                  scope_.counter("filter_skips")} {}

  // Node allocations come from the process-wide pool: the memtable churns one
  // tree node per applied key, and pooling them keeps the write path off
  // malloc (behavior is unchanged — an allocator affects neither ordering nor
  // contents).
  using MemTable =
      std::map<std::string, std::optional<std::string>, std::less<std::string>,
               PoolAllocator<std::pair<const std::string, std::optional<std::string>>>>;

  std::string WalName(uint64_t seq) const;
  std::string SstName(uint64_t file_no) const;
  std::string ManifestName() const { return options_.name + ".MANIFEST"; }

  std::string EncodeManifest() const;
  Status ApplyManifest(std::string_view data);

  // A batch waiting for, or leading, a WAL group; lives in its Write frame.
  struct Writer {
    Writer(std::string r, const WriteBatch* b) : record(std::move(r)), batch(b) {}
    std::string record;  // CRC-framed WAL record
    const WriteBatch* batch;
    Status status;
    bool leads = false;  // this writer appends the group
    sim::Event done;     // set when handed the lead, or when its group committed
  };
  // Appends `leader`'s group (itself plus every queued writer), applies it to
  // the memtable, then hands the WAL slot to the next queued writer.
  sim::Task<> CommitGroup(Writer* leader);

  sim::Task<Status> PersistManifest();
  sim::Task<> MaybeScheduleFlush();
  sim::Task<> FlushTask();
  sim::Task<> CompactTask();
  void ApplyToMem(const WriteBatch& batch);

  // Merged lookup across memtables and tables without charging the disk;
  // returns nullopt if the key is nowhere, or the entry (maybe tombstone).
  std::optional<std::optional<std::string>> LookupInMemory(std::string_view key,
                                                           uint64_t* charged_bytes) const;

  Options options_;
  sim::Storage* storage_;

  MemTable mem_;
  uint64_t mem_bytes_ = 0;
  uint64_t mem_wal_seq_ = 1;
  MemTable imm_;       // frozen memtable being flushed
  uint64_t imm_wal_seq_ = 0;
  bool has_imm_ = false;

  bool flushing_ = false;
  bool compacting_ = false;
  bool freeze_pending_ = false;  // flush wants to swap memtables; writes stall
  int in_flight_writes_ = 0;     // batches (queued or appending) not yet in the memtable
  int wal_groups_in_flight_ = 0;  // at most the disk's channel count
  std::deque<Writer*> waiting_writers_;

  // Table names as listed by the last-read manifest (used during Open).
  std::vector<std::string> manifest_l0_;
  std::vector<std::string> manifest_l1_;

  // L1 runs beyond this are folded into one (dropping tombstones).
  static constexpr size_t kMaxL1Runs = 8;

  uint64_t next_file_no_ = 1;
  std::vector<TablePtr> l0_;  // newest first
  std::vector<TablePtr> l1_;  // tiered runs, newest first

  RecoveryStats recovery_;

  obs::Scope scope_;
  Counters counters_;
};

}  // namespace cheetah::kv

#endif  // SRC_KV_DB_H_
