#include "perfbench/src/layers.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <utility>

#include "perfbench/src/phase.h"
#include "src/alloc/bitmap_allocator.h"
#include "src/core/metax.h"
#include "src/crush/crush.h"
#include "src/kv/db.h"
#include "src/obs/metrics.h"
#include "src/sim/actor.h"
#include "src/sim/event_loop.h"
#include "src/sim/storage.h"

namespace perfbench {

using cheetah::Nanos;
using cheetah::obs::Span;
using cheetah::obs::SpanKind;
using cheetah::sim::Task;
namespace core = cheetah::core;
namespace kv = cheetah::kv;

namespace {

constexpr uint32_t kPgCount = 64;
constexpr uint32_t kBlockSize = 4096;

// Registry names as "<name>": <value> lines between the "counters" header
// and the closing brace of that section (Registry::ToJson's layout).
std::vector<std::pair<std::string, uint64_t>> CounterLines() {
  const std::string json = cheetah::obs::Registry::Global().ToJson();
  std::vector<std::pair<std::string, uint64_t>> out;
  const size_t begin = json.find("\"counters\": {");
  const size_t end = json.find("\n  }", begin);
  size_t pos = begin;
  while (true) {
    const size_t q0 = json.find('"', json.find('\n', pos) + 1);
    if (q0 == std::string::npos || q0 >= end) {
      break;
    }
    const size_t q1 = json.find('"', q0 + 1);
    const size_t colon = json.find(':', q1);
    out.emplace_back(json.substr(q0 + 1, q1 - q0 - 1),
                     std::strtoull(json.c_str() + colon + 1, nullptr, 10));
    pos = colon;
  }
  return out;
}

// Drops "@<digits>" and, if asked, "#<digits>" from a metric name.
std::string StripInstance(const std::string& name, bool keep_instance) {
  std::string out;
  out.reserve(name.size());
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool marker = c == '@' || (c == '#' && !keep_instance);
    if (marker && i + 1 < name.size() && std::isdigit(static_cast<unsigned char>(name[i + 1]))) {
      while (i + 1 < name.size() && std::isdigit(static_cast<unsigned char>(name[i + 1]))) {
        ++i;
      }
      continue;
    }
    out += c;
  }
  return out;
}

// Length of the part of [lo, hi] that `intervals` cover.
Nanos Covered(std::vector<std::pair<Nanos, Nanos>>& intervals, Nanos lo, Nanos hi) {
  std::sort(intervals.begin(), intervals.end());
  Nanos covered = 0;
  Nanos cursor = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b > a) {
      covered += b - a;
      cursor = b;
    }
  }
  return covered;
}

// Runs `body` as a coroutine on a private loop until it finishes.
void RunPrivate(cheetah::sim::EventLoop& loop, cheetah::sim::Actor& actor,
                Task<> body) {
  actor.Spawn(std::move(body));
  loop.Run();
}

}  // namespace

std::map<std::string, uint64_t> SumCounters() {
  std::map<std::string, uint64_t> sums;
  for (const auto& [name, value] : CounterLines()) {
    sums[StripInstance(name, /*keep_instance=*/false)] += value;
  }
  return sums;
}

std::vector<uint64_t> InstanceCounters(const std::string& prefix, const std::string& field) {
  std::vector<uint64_t> out;
  for (const auto& [name, value] : CounterLines()) {
    const std::string n = StripInstance(name, /*keep_instance=*/true);
    if (n.starts_with(prefix) && n.ends_with(field)) {
      out.push_back(value);
    }
  }
  return out;
}

double RpcP99Ms(const std::string& request_type) {
  return cheetah::obs::Registry::Global()
      .histogram("rpc." + request_type + ".latency")
      ->PercentileMillis(0.99);
}

TraceStats AnalyzeSpans(const std::vector<Span>& spans, Nanos stop) {
  TraceStats t;
  t.spans = spans.size();
  // Span ids are 1-based positions in the log.
  std::vector<uint8_t> complete_op(spans.size() + 1, 0);
  std::vector<std::vector<uint64_t>> children(spans.size() + 1);
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kOp) {
      ++t.roots;
      if (s.end != 0 && s.end <= stop) {
        complete_op[s.id] = 1;
        ++t.ops;
        t.puts += s.name == "put" ? 1 : 0;
      }
    } else if (s.parent != 0 && s.parent <= spans.size()) {
      children[s.parent].push_back(s.id);
    }
    if (s.kind == SpanKind::kDisk && s.name == "disk.fsync") {
      ++t.fsyncs;
    }
  }
  // Self time: the span's duration minus the part of it that any descendant
  // covers. Descendants, not just children: an rpc's reply travels on a wire
  // span that hangs under the remote handler but lies after the handler ends.
  std::vector<std::pair<Nanos, Nanos>> covered;
  std::vector<uint64_t> stack;
  auto self_time = [&](const Span& s) {
    covered.clear();
    stack.assign(children[s.id].begin(), children[s.id].end());
    while (!stack.empty()) {
      const Span& d = spans[stack.back() - 1];
      stack.pop_back();
      covered.emplace_back(d.start, d.end != 0 ? d.end : s.end);
      stack.insert(stack.end(), children[d.id].begin(), children[d.id].end());
    }
    return static_cast<double>(s.end - s.start - Covered(covered, s.start, s.end));
  };
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kOp || s.op == 0 || s.op > spans.size() || !complete_op[s.op] ||
        s.end == 0) {
      continue;
    }
    const auto duration = static_cast<double>(s.end - s.start);
    switch (s.kind) {
      case SpanKind::kNet:
        t.wire_ns += duration;
        break;
      case SpanKind::kDisk:
        t.disk_ns += duration;
        break;
      case SpanKind::kQueue:
        t.rpc_queue_ns += duration;
        break;
      case SpanKind::kRpc:
        t.rpc_queue_ns += self_time(s);
        break;
      case SpanKind::kHandler:
        t.handler_self_ns += self_time(s);
        break;
      case SpanKind::kKv:
        t.kv_write_ns += s.name == "kv.write" ? duration : 0.0;
        break;
      case SpanKind::kWait:
        t.persist_wait_ns += s.name == "put.persist_wait" ? duration : 0.0;
        break;
      case SpanKind::kOp:
        break;
    }
  }
  return t;
}

KvReplay ReplayKv(const WorkloadSpec& spec, const std::vector<Op>& puts,
                  const std::vector<std::string>& get_names) {
  cheetah::sim::EventLoop loop;
  cheetah::sim::Actor actor(loop, "kv-replay");
  cheetah::sim::Storage disk(loop, cheetah::sim::DiskParams{});
  kv::Options options;
  options.memtable_bytes = spec.memtable_bytes;
  options.sync_wal = true;
  options.name = "metax-replay";

  // The batches a meta server's PutAlloc writes, built before timing.
  std::vector<kv::WriteBatch> batches;
  batches.reserve(puts.size());
  uint64_t opseq = 0;
  uint64_t block = 0;
  for (const Op& op : puts) {
    const cheetah::cluster::PgId pg = cheetah::crush::Map::NameToPg(op.name, kPgCount);
    const uint64_t reqid = ++opseq;
    const uint64_t blocks = (op.size + kBlockSize - 1) / kBlockSize;
    core::ObMeta meta;
    meta.lvid = pg;
    meta.extents.emplace_back(block, blocks);
    block += blocks;
    meta.checksum = static_cast<uint32_t>(reqid * 2654435761u);
    meta.size = op.size;
    meta.proxy_id = 1;
    meta.reqid = reqid;
    core::PgLog pglog;
    pglog.name = op.name;
    pglog.pxlogkey = core::PxLogKey(1, reqid);
    core::PxLog pxlog;
    pxlog.name = op.name;
    pxlog.pglogkey = core::PgLogKey(pg, opseq);
    kv::WriteBatch batch;
    batch.Put(core::ObMetaKey(pg, op.name), meta.Encode());
    batch.Put(core::PgLogKey(pg, opseq), pglog.Encode());
    batch.Put(core::PxLogKey(1, reqid), pxlog.Encode());
    batches.push_back(std::move(batch));
  }
  std::vector<std::string> keys;
  keys.reserve(get_names.size());
  for (const std::string& name : get_names) {
    keys.push_back(core::ObMetaKey(cheetah::crush::Map::NameToPg(name, kPgCount), name));
  }

  KvReplay out;
  std::unique_ptr<kv::DB> db;
  RunPrivate(loop, actor, [](kv::Options options, cheetah::sim::Storage* disk,
                             std::unique_ptr<kv::DB>* db) -> Task<> {
    auto opened = co_await kv::DB::Open(std::move(options), disk);
    if (!opened.ok()) {
      std::fprintf(stderr, "fatal: kv replay open: %s\n", opened.status().ToString().c_str());
      std::exit(2);
    }
    *db = std::move(*opened);
  }(options, &disk, &db));

  const int64_t w0 = HostNowNs();
  RunPrivate(loop, actor, [](kv::DB* db, std::vector<kv::WriteBatch>* batches) -> Task<> {
    for (auto& batch : *batches) {
      if (!(co_await db->Write(std::move(batch))).ok()) {
        std::fprintf(stderr, "fatal: kv replay write failed\n");
        std::exit(2);
      }
    }
  }(db.get(), &batches));
  const int64_t w1 = HostNowNs();
  uint64_t found = 0;
  RunPrivate(loop, actor, [](kv::DB* db, const std::vector<std::string>* keys,
                             uint64_t* found) -> Task<> {
    for (const std::string& key : *keys) {
      *found += (co_await db->Get(key)).ok() ? 1 : 0;
    }
  }(db.get(), &keys, &found));
  const int64_t w2 = HostNowNs();
  if (found != keys.size()) {
    std::fprintf(stderr, "fatal: kv replay found %llu of %zu keys\n",
                 static_cast<unsigned long long>(found), keys.size());
    std::exit(2);
  }
  if (!batches.empty()) {
    out.write_ns = static_cast<double>(w1 - w0) / static_cast<double>(batches.size());
  }
  if (!keys.empty()) {
    out.get_ns = static_cast<double>(w2 - w1) / static_cast<double>(keys.size());
  }
  return out;
}

double ReplayAllocateNs(const std::vector<Op>& puts) {
  if (puts.empty()) {
    return 0;
  }
  // One 8 GiB logical volume; allocations are freed in batches so the
  // bitmap stays part-full, the way deletes and log cleaning keep it.
  cheetah::alloc::BitmapAllocator bitmap(cheetah::GiB(8) / kBlockSize, kBlockSize);
  constexpr size_t kBatch = 1024;
  std::deque<std::vector<cheetah::alloc::Extent>> held;
  int64_t timed = 0;
  for (size_t i = 0; i < puts.size(); i += kBatch) {
    const size_t n = std::min(kBatch, puts.size() - i);
    std::vector<std::vector<cheetah::alloc::Extent>> batch;
    batch.reserve(n);
    const int64_t t0 = HostNowNs();
    for (size_t j = 0; j < n; ++j) {
      auto extents = bitmap.Allocate(puts[i + j].size);
      if (!extents.ok()) {
        std::fprintf(stderr, "fatal: allocate replay ran out of space\n");
        std::exit(2);
      }
      batch.push_back(std::move(*extents));
    }
    timed += HostNowNs() - t0;
    for (auto& e : batch) {
      held.push_back(std::move(e));
    }
    while (held.size() > 4 * kBatch) {
      bitmap.Free(held.front());
      held.pop_front();
    }
  }
  return static_cast<double>(timed) / static_cast<double>(puts.size());
}

double ReplayPlaceNs(const std::vector<Op>& ops) {
  if (ops.empty()) {
    return 0;
  }
  cheetah::crush::Map map;
  for (cheetah::crush::ItemId id = 100; id < 103; ++id) {
    map.AddItem(id);
  }
  uint64_t sink = 0;
  const int64_t t0 = HostNowNs();
  for (const Op& op : ops) {
    const uint32_t pg = cheetah::crush::Map::NameToPg(op.name, kPgCount);
    for (cheetah::crush::ItemId id : map.Select(pg, 3)) {
      sink += id;
    }
  }
  const int64_t t1 = HostNowNs();
  if (sink == 0) {
    std::fprintf(stderr, "fatal: placement replay selected nothing\n");
    std::exit(2);
  }
  return static_cast<double>(t1 - t0) / static_cast<double>(ops.size());
}

}  // namespace perfbench
