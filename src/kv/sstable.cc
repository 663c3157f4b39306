#include "src/kv/sstable.h"

#include <algorithm>

#include "src/common/coding.h"
#include "src/common/crc32c.h"
#include "src/common/hash.h"

namespace cheetah::kv {

namespace {

// Double hashing: probe i tests bit (h1 + i * h2) mod bits. Both hashes are
// fixed functions of the key, so the filter (and every run) is deterministic.
struct FilterProbe {
  uint64_t h1;
  uint64_t h2;
  explicit FilterProbe(std::string_view key) : h1(Fnv1a64(key)), h2(Mix64(h1)) {}
  uint64_t Bit(int i, uint64_t bits) const { return (h1 + static_cast<uint64_t>(i) * h2) % bits; }
};

}  // namespace

Table::Table(std::string file_name, std::vector<Entry> entries)
    : file_name_(std::move(file_name)), entries_(std::move(entries)) {
  if (!entries_.empty()) {
    min_key_ = entries_.front().key;
    max_key_ = entries_.back().key;
  }
  filter_.assign((entries_.size() * kFilterBitsPerKey + 63) / 64, 0);
  const uint64_t bits = filter_.size() * 64;
  for (const auto& e : entries_) {
    data_bytes_ += e.key.size() + (e.value ? e.value->size() : 0);
    const FilterProbe probe(e.key);
    for (int i = 0; i < kFilterProbes; ++i) {
      const uint64_t bit = probe.Bit(i, bits);
      filter_[bit / 64] |= uint64_t{1} << (bit % 64);
    }
  }
}

bool Table::FilterMatch(std::string_view key) const {
  const uint64_t bits = filter_.size() * 64;
  const FilterProbe probe(key);
  for (int i = 0; i < kFilterProbes; ++i) {
    const uint64_t bit = probe.Bit(i, bits);
    if ((filter_[bit / 64] & (uint64_t{1} << (bit % 64))) == 0) {
      return false;
    }
  }
  return true;
}

const Table::Entry* Table::Find(std::string_view key) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& e, std::string_view k) { return e.key < k; });
  if (it == entries_.end() || it->key != key) {
    return nullptr;
  }
  return &*it;
}

std::vector<const Table::Entry*> Table::PrefixRange(std::string_view prefix) const {
  std::vector<const Entry*> out;
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), prefix,
      [](const Entry& e, std::string_view k) { return e.key < k; });
  for (; it != entries_.end() && std::string_view(it->key).starts_with(prefix); ++it) {
    out.push_back(&*it);
  }
  return out;
}

namespace {

// Appends one crc32 | fixed64 len | body block built from [first, last).
void EncodeBlock(std::string* out, const Table::Entry* first, const Table::Entry* last) {
  std::string body;
  PutVarint64(&body, static_cast<uint64_t>(last - first));
  for (const Table::Entry* e = first; e != last; ++e) {
    body.push_back(e->value ? 'P' : 'D');
    PutLengthPrefixed(&body, e->key);
    if (e->value) {
      PutLengthPrefixed(&body, *e->value);
    }
  }
  PutFixed32(out, Crc32c(body));
  PutFixed64(out, body.size());
  *out += body;
}

// Parses one CRC-verified block body into `entries`. Returns false (leaving
// any partially-appended entries removed) if the body is malformed.
bool DecodeBlockBody(std::string_view body, std::vector<Table::Entry>* entries) {
  const size_t restore = entries->size();
  uint64_t count = 0;
  if (!GetVarint64(&body, &count)) {
    return false;
  }
  for (uint64_t i = 0; i < count; ++i) {
    if (body.empty()) {
      entries->resize(restore);
      return false;
    }
    const char tag = body.front();
    body.remove_prefix(1);
    std::string_view key;
    if (!GetLengthPrefixed(&body, &key)) {
      entries->resize(restore);
      return false;
    }
    Table::Entry e;
    e.key = std::string(key);
    if (tag == 'P') {
      std::string_view value;
      if (!GetLengthPrefixed(&body, &value)) {
        entries->resize(restore);
        return false;
      }
      e.value = std::string(value);
    } else if (tag != 'D') {
      entries->resize(restore);
      return false;
    }
    entries->push_back(std::move(e));
  }
  return true;
}

}  // namespace

std::string Table::Encode() const {
  std::string out;
  if (entries_.empty()) {
    EncodeBlock(&out, nullptr, nullptr);
    return out;
  }
  // Cut a new block whenever the accumulated entry payload passes
  // kBlockBytes; every block stays independently decodable.
  size_t begin = 0;
  size_t acc = 0;
  for (size_t i = 0; i < entries_.size(); ++i) {
    acc += entries_[i].key.size() + (entries_[i].value ? entries_[i].value->size() : 0) + 8;
    if (acc >= kBlockBytes) {
      EncodeBlock(&out, entries_.data() + begin, entries_.data() + i + 1);
      begin = i + 1;
      acc = 0;
    }
  }
  if (begin < entries_.size()) {
    EncodeBlock(&out, entries_.data() + begin, entries_.data() + entries_.size());
  }
  return out;
}

Table::DecodeResult Table::DecodeBlocks(std::string_view file) {
  DecodeResult out;
  std::string_view input = file;
  while (!input.empty()) {
    uint32_t crc = 0;
    uint64_t len = 0;
    if (!GetFixed32(&input, &crc) || !GetFixed64(&input, &len) || input.size() < len) {
      // Header too mangled to even skip past: the rest of the file is lost.
      ++out.blocks;
      ++out.bad_blocks;
      break;
    }
    std::string_view body = input.substr(0, len);
    input.remove_prefix(len);
    ++out.blocks;
    if (Crc32c(body) != crc || !DecodeBlockBody(body, &out.entries)) {
      ++out.bad_blocks;  // skip this block, keep salvaging the next ones
    }
  }
  return out;
}

Result<std::vector<Table::Entry>> Table::DecodeEntries(std::string_view file) {
  DecodeResult r = DecodeBlocks(file);
  if (r.bad_blocks > 0) {
    return Status::Corruption("sstable: " + std::to_string(r.bad_blocks) + "/" +
                              std::to_string(r.blocks) + " blocks corrupt");
  }
  return std::move(r.entries);
}

}  // namespace cheetah::kv
