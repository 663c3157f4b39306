// Sorted string table: the immutable on-disk unit of the LSM tree.
//
// The file is a sequence of self-contained blocks, each framed as
// crc32(body) | fixed64 len | body, where a body is a varint entry count
// followed by (tag, key[, value]) entries. Per-block CRCs localize media
// damage: a decode skips a bad block by its declared length and salvages
// every other block, instead of discarding the whole table on one flipped
// bit. A legacy single-block file is exactly a one-block sequence, so old
// tables parse unchanged. A parsed copy of the entries is kept in memory for
// lookup logic; disk reads are *charged* to the simulated device when the
// table is consulted, which is what the experiments measure.
//
// Each table also keeps an in-memory Bloom filter over all of its keys
// (tombstones included, so a delete keeps shadowing older tables), rebuilt
// whenever a Table is constructed: by a flush, a compaction or Open. It is
// not part of the file, so neither the format nor the bytes charged for it
// change; a point lookup that the filter rules out charges no read.
#ifndef SRC_KV_SSTABLE_H_
#define SRC_KV_SSTABLE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace cheetah::kv {

class Table {
 public:
  struct Entry {
    std::string key;
    std::optional<std::string> value;  // nullopt = tombstone
  };

  // `entries` must be sorted by key, duplicates resolved.
  Table(std::string file_name, std::vector<Entry> entries);

  const std::string& file_name() const { return file_name_; }
  size_t entry_count() const { return entries_.size(); }
  uint64_t data_bytes() const { return data_bytes_; }
  bool empty() const { return entries_.empty(); }
  const std::string& min_key() const { return min_key_; }
  const std::string& max_key() const { return max_key_; }

  bool InRange(std::string_view key) const {
    return !entries_.empty() && key >= min_key_ && key <= max_key_;
  }
  // False only if the Bloom filter rules `key` out (false positive rate
  // about 1% at 10 bits per key); says nothing about the key range.
  bool FilterMatch(std::string_view key) const;
  // False only if `key` is certainly absent: out of range or ruled out by
  // the filter.
  bool MayContain(std::string_view key) const { return InRange(key) && FilterMatch(key); }

  // Returns the entry (possibly a tombstone) or nullptr if absent.
  const Entry* Find(std::string_view key) const;

  // All entries whose key starts with `prefix`, in order.
  std::vector<const Entry*> PrefixRange(std::string_view prefix) const;

  const std::vector<Entry>& entries() const { return entries_; }

  // File (de)serialization. Encode targets ~kBlockBytes of entry payload per
  // block so one damaged block loses a bounded key range.
  static constexpr size_t kBlockBytes = 4096;
  std::string Encode() const;

  // Salvaging decode: parses every block whose CRC verifies, skipping
  // damaged ones. `blocks`/`bad_blocks` report what was lost so recovery can
  // distinguish a clean load from a partial salvage. Fails outright only
  // when a block header is too mangled to skip past (the remainder of the
  // file is then unparseable and also counts as one bad block).
  struct DecodeResult {
    DecodeResult() = default;
    std::vector<Entry> entries;
    uint64_t blocks = 0;
    uint64_t bad_blocks = 0;
  };
  static DecodeResult DecodeBlocks(std::string_view file);

  // Strict variant: Corruption if any block failed to parse.
  static Result<std::vector<Entry>> DecodeEntries(std::string_view file);

 private:
  static constexpr uint64_t kFilterBitsPerKey = 10;
  static constexpr int kFilterProbes = 7;  // ~ln 2 * bits per key

  std::string file_name_;
  std::vector<Entry> entries_;
  std::string min_key_;
  std::string max_key_;
  uint64_t data_bytes_ = 0;
  std::vector<uint64_t> filter_;  // bit array, a multiple of 64 bits
};

using TablePtr = std::shared_ptr<const Table>;

}  // namespace cheetah::kv

#endif  // SRC_KV_SSTABLE_H_
