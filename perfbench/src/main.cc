// The repository benchmark: one workload per process, against the
// paper-shaped Cheetah cluster, driven through the public Testbed / Runner /
// ObjectStore APIs.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics: virtual-time latencies at the
// workload's nominal rate, the highest rate that meets its p99 limit
// (slo_kops), space amplification, host throughput, set-up time and peak
// memory. --trace 1 measures the per-layer metrics: it runs the nominal phase
// twice on fresh clusters, the second time with a bounded window traced,
// requires the two runs' virtual-time results to be identical, and replays
// the workload's inputs through single layers for their host cost. Both
// modes audit what the cluster acknowledged. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/src/layers.h"
#include "perfbench/src/phase.h"
#include "perfbench/src/workloads.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace perfbench {
namespace {

using cheetah::Millis;
using cheetah::Seconds;

constexpr int kPreloadConcurrency = 64;
constexpr int kAuditConcurrency = 32;
constexpr uint64_t kProbePerType = 1500;  // ~1000 in the window: p99 has ten beyond it
constexpr double kProbeShare = 0.2;
constexpr uint64_t kCacheWarmupGets = 10000;
constexpr uint64_t kTracedOps = 3000;     // spans hold a std::string each
constexpr uint64_t kAuditLive = 2000;
constexpr uint64_t kAuditDeleted = 500;
constexpr int kSetups = 3;

struct Args {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

void Usage() {
  std::string names;
  for (const std::string& n : WorkloadNames()) {
    names += (names.empty() ? "" : "|") + n;
  }
  std::fprintf(stderr,
               "usage: perfbench --workload %s --seed <n> --seconds <s> --trace <0|1>\n",
               names.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.spec = FindWorkload(value);
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atoi(value);
    } else if (key == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else {
      Usage();
    }
  }
  if (args.spec == nullptr || args.seconds < 1 || argc % 2 == 0) {
    Usage();
  }
  return args;
}

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "fatal: %s\n", what.c_str());
  std::exit(2);
}

// What the cluster acknowledged: live objects with their sizes, and objects
// whose delete was acknowledged.
struct Acked {
  std::unordered_map<std::string, uint64_t> live;
  std::vector<std::string> deleted;
  uint64_t live_bytes = 0;

  // An op that failed may or may not have taken effect: its object leaves
  // both sets, so the audit never judges it.
  void Apply(const PhaseLog& log) {
    for (size_t i = 0; i < log.ops.size(); ++i) {
      const Op& op = log.ops[i];
      if (op.type == OpType::kGet) {
        continue;
      }
      if (auto it = live.find(op.name); it != live.end()) {
        live_bytes -= it->second;
        live.erase(it);
      }
      if (log.records[i].outcome != Outcome::kOk) {
        continue;
      }
      if (op.type == OpType::kPut) {
        live[op.name] = op.size;
        live_bytes += op.size;
      } else {
        deleted.push_back(op.name);
      }
    }
  }
};

uint64_t Failed(const PhaseLog& log) {
  uint64_t n = 0;
  for (const OpRecord& r : log.records) {
    n += r.outcome == Outcome::kOk ? 0 : 1;
  }
  return n;
}

// Boot, preload, cache warm-up and settle. The op vectors are copied: every
// set-up replays the same inputs.
std::unique_ptr<Cluster> SetUp(const Args& args, const std::vector<Op>& preload,
                               const std::vector<Op>& warmup, Acked* acked) {
  cheetah::obs::Registry::Global().ZeroAll();
  auto cluster = BootCluster(*args.spec);
  PhaseLog log = RunClosed(*cluster, preload, kPreloadConcurrency);
  if (Failed(log) != 0) {
    Fatal("preload failed " + std::to_string(Failed(log)) + " puts");
  }
  *acked = Acked{};
  acked->Apply(log);
  if (!warmup.empty()) {
    log = RunOpen(*cluster, warmup, args.spec->nominal_kops * 1e3, args.seed * 1000 + 7);
    if (Failed(log) != 0) {
      Fatal("cache warm-up failed " + std::to_string(Failed(log)) + " gets");
    }
  }
  // Let log cleaning, flushes and compactions that the preload started finish,
  // so the measured phase starts from a quiet cluster.
  cluster->bed->RunFor(Seconds(3));
  // The workload's data size relative to its memtable is part of its
  // definition: a 1 MiB memtable must have flushed and compacted on every
  // meta server, a 64 MiB one must still hold the whole preload.
  const bool small_memtable = args.spec->memtable_bytes < cheetah::MiB(64);
  for (const char* field : {".flushes", ".compactions"}) {
    const auto per_db = InstanceCounters("kv.metax#", field);
    const auto active =
        std::count_if(per_db.begin(), per_db.end(), [](uint64_t v) { return v > 0; });
    if (small_memtable ? active < cluster->bed->num_meta() : active > 0) {
      Fatal(std::string("preload ") + (small_memtable ? "left a meta server without " : "caused ") +
            (field + 1));
    }
  }
  return cluster;
}

// Data-plane bytes on every PV of the cluster (as bench/ec_tradeoffs does).
uint64_t DataPlaneBytes(cheetah::core::Testbed& bed) {
  const auto& topo = bed.meta(0).topology();
  uint64_t total = 0;
  for (const auto& [pv_id, pv] : topo.pvs) {
    for (int d = 0; d < bed.num_data(); ++d) {
      cheetah::sim::Machine& machine = bed.data_machine(d);
      if (machine.node_id() == pv.data_server) {
        total += machine.disk(pv.disk_index).VolumeBytesUsed(pv.DeviceName());
        break;
      }
    }
  }
  return total;
}

// Peak resident set size of the process so far (Linux reports KiB).
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Highest offered rate whose window meets the p99 limit with no growing
// backlog. The nominal phase is the first point; from there the rate grows
// geometrically until a probe fails, then is bisected (geometrically) to
// kResolution. Each probe draws fresh ops from the stream; the cluster
// drains and settles between probes.
double SearchSloKops(const Args& args, Cluster& cluster, OpStream& stream, bool nominal_meets,
                     Acked* acked, int* probes) {
  constexpr double kStep = 1.25;
  constexpr double kResolution = 1.03;
  constexpr int kMaxProbes = 12;
  const WorkloadSpec& spec = *args.spec;
  const double probe_s = spec.probe_virtual_s * args.seconds / 10.0;
  auto passes = [&](double rate) {
    auto ops = stream.Next(static_cast<uint64_t>(rate * probe_s));
    PhaseLog log = RunOpen(cluster, std::move(ops), rate, args.seed * 1000 + 100 + *probes);
    acked->Apply(log);
    const WindowStats w = Analyze(log, 0.2, 0.1, spec.slo_p99_ms);
    const bool ok = MeetsSlo(w);
    std::printf("  slo probe %7.2f kops: p99 %.3f ms, misses %llu/%llu, backlog %+.4f, "
                "host %.2f s -> %s\n",
                rate / 1e3, w.all.PercentileMillis(0.99),
                static_cast<unsigned long long>(w.slo_misses),
                static_cast<unsigned long long>(w.attempted), w.backlog_growth,
                log.host_s, ok ? "meets" : "misses");
    // Overload can cost leases and retries; give the cluster time to recover.
    cluster.bed->RunFor(ok ? Millis(200) : Seconds(2));
    ++*probes;
    return ok;
  };
  double lo = spec.nominal_kops * 1e3;
  double hi = lo * kStep;
  if (nominal_meets) {
    while (passes(hi) && *probes < kMaxProbes) {
      lo = hi;
      hi *= kStep;
    }
  } else {
    hi = lo;
    lo /= kStep;
    while (!passes(lo)) {
      hi = lo;
      lo /= kStep;
      if (*probes >= kMaxProbes) {
        return 0;
      }
    }
  }
  while (hi / lo > kResolution && *probes < kMaxProbes) {
    const double mid = std::sqrt(lo * hi);
    (passes(mid) ? lo : hi) = mid;
  }
  return lo / 1e3;
}

// Reads back a seeded sample of acknowledged puts (each must return its
// size) and of acknowledged deletes (each must be NotFound). Returns the
// number of reads made and adds the misses to *misses.
uint64_t Audit(const Args& args, Cluster& cluster, const Acked& acked, uint64_t* misses) {
  cheetah::Rng rng(args.seed * 31 + 5);
  std::vector<std::string> live_names;
  live_names.reserve(acked.live.size());
  for (const auto& [name, size] : acked.live) {
    live_names.push_back(name);
  }
  std::sort(live_names.begin(), live_names.end());  // map order is not seeded
  std::vector<Op> reads;
  auto sample = [&](const std::vector<std::string>& from, uint64_t n) {
    for (uint64_t i = 0; i < n && !from.empty(); ++i) {
      Op op;
      op.type = OpType::kGet;
      op.name = from[rng.Uniform(from.size())];
      reads.push_back(std::move(op));
    }
  };
  sample(live_names, std::min<uint64_t>(kAuditLive, live_names.size()));
  const size_t live_reads = reads.size();
  sample(acked.deleted, std::min<uint64_t>(kAuditDeleted, acked.deleted.size()));
  PhaseLog log = RunClosed(cluster, std::move(reads), kAuditConcurrency);
  for (size_t i = 0; i < log.ops.size(); ++i) {
    const OpRecord& r = log.records[i];
    const bool ok = i < live_reads ? r.outcome == Outcome::kOk &&
                                         r.got_bytes == acked.live.at(log.ops[i].name)
                                   : r.outcome == Outcome::kNotFound;
    if (!ok) {
      ++*misses;
      if (*misses <= 5) {
        std::printf("  audit miss: %s %s (outcome %d, %llu bytes)\n",
                    i < live_reads ? "live" : "deleted", log.ops[i].name.c_str(),
                    static_cast<int>(r.outcome), static_cast<unsigned long long>(r.got_bytes));
      }
    }
  }
  return log.ops.size();
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::vector<OpType> MissingTypes(const std::vector<Op>& ops) {
  bool seen[3] = {false, false, false};
  for (const Op& op : ops) {
    seen[static_cast<int>(op.type)] = true;
  }
  std::vector<OpType> out;
  for (OpType t : {OpType::kPut, OpType::kGet, OpType::kDelete}) {
    if (!seen[static_cast<int>(t)]) {
      out.push_back(t);
    }
  }
  return out;
}

// Latency of one op type: from the nominal window when the mix has it,
// otherwise from the probe phase.
const cheetah::workload::LatencyRecorder& Pick(
    const cheetah::workload::LatencyRecorder WindowStats::*field, const WindowStats& nominal,
    const WindowStats& probe) {
  return (nominal.*field).count() > 0 ? nominal.*field : probe.*field;
}

void PrintWindow(const char* label, const WindowStats& w, const PhaseLog& log) {
  std::printf("%s: %llu ops in a %.3f s window, offered %.0f/s, done %.0f/s, "
              "backlog %+.4f, failed %llu, host %.3f s, %.1f host kops\n",
              label, static_cast<unsigned long long>(w.attempted), w.window_s,
              w.offered_ops_s, w.done_ops_s, w.backlog_growth,
              static_cast<unsigned long long>(w.failed), log.host_s, w.host_kops);
  struct Row {
    const char* op;
    const cheetah::workload::LatencyRecorder& r;
  };
  for (const Row& row : {Row{"put", w.put}, Row{"get", w.get}, Row{"del", w.del}}) {
    if (row.r.count() > 0) {
      std::printf("  %s p50 %.4f ms  p99 %.4f ms  (n=%llu)\n", row.op,
                  row.r.PercentileMillis(0.5), row.r.PercentileMillis(0.99),
                  static_cast<unsigned long long>(row.r.count()));
    }
  }
}

struct Streams {
  OpStream stream;
  std::vector<Op> preload;
  std::vector<Op> warmup;
  std::vector<Op> nominal;
  std::vector<Op> probe;
  double gen_ns_per_op = 0;

  explicit Streams(const Args& args) : stream(*args.spec, args.seed) {
    const int64_t t0 = HostNowNs();
    preload = stream.Preload();
    warmup = stream.CacheWarmup(kCacheWarmupGets);
    nominal = stream.Next(static_cast<uint64_t>(args.spec->nominal_ops_per_s * args.seconds));
    const auto missing = MissingTypes(nominal);
    if (!missing.empty()) {
      probe = stream.Probe(kProbePerType, missing, kProbeShare);
    }
    const int64_t t1 = HostNowNs();
    const size_t n = preload.size() + warmup.size() + nominal.size() + probe.size();
    gen_ns_per_op = static_cast<double>(t1 - t0) / static_cast<double>(n);
  }
};

int RunEndToEnd(const Args& args) {
  const WorkloadSpec& spec = *args.spec;
  Streams in(args);

  std::vector<double> setup_s;
  std::unique_ptr<Cluster> cluster;
  Acked acked;
  for (int i = 0; i < kSetups; ++i) {
    cluster.reset();  // one cluster in memory at a time
    const int64_t t0 = HostNowNs();
    cluster = SetUp(args, in.preload, in.warmup, &acked);
    setup_s.push_back(static_cast<double>(HostNowNs() - t0) / 1e9);
  }
  std::sort(setup_s.begin(), setup_s.end());

  cheetah::obs::Registry::Global().ZeroAll();
  PhaseLog nominal = RunOpen(*cluster, in.nominal, spec.nominal_kops * 1e3, args.seed * 1000 + 1);
  acked.Apply(nominal);
  const WindowStats w = Analyze(nominal, 0.2, 0.1, spec.slo_p99_ms);
  PrintWindow("nominal", w, nominal);

  PhaseLog probe;
  WindowStats wp;
  if (!in.probe.empty()) {
    cluster->bed->RunFor(Millis(200));
    probe = RunOpen(*cluster, in.probe, spec.nominal_kops * 1e3, args.seed * 1000 + 2);
    acked.Apply(probe);
    wp = Analyze(probe, 0.2, 0.1, spec.slo_p99_ms);
    PrintWindow("probe", wp, probe);
  }
  cluster->bed->RunFor(Seconds(1));
  const double space_amp = static_cast<double>(DataPlaneBytes(*cluster->bed)) /
                           static_cast<double>(std::max<uint64_t>(1, acked.live_bytes));
  // Memory of set-up plus the nominal load; the overload probes below would
  // add compaction bursts that depend on the search's path.
  const double peak_rss_mb = PeakRssMb();

  int probes = 0;
  const double slo_kops =
      SearchSloKops(args, *cluster, in.stream, MeetsSlo(w), &acked, &probes);
  std::printf("slo_kops %.3f after %d probes (limit p99 %.1f ms)\n", slo_kops, probes,
              spec.slo_p99_ms);

  uint64_t audit_misses = 0;
  if (spec.memtable_bytes < cheetah::MiB(64)) {
    // Power-fail one meta machine: acknowledged puts must survive it.
    cluster->bed->CrashMetaMachine(0, /*power_loss=*/true);
    cluster->bed->RunFor(Seconds(1));
    cluster->bed->RestartMetaMachine(0);
    cluster->bed->RunFor(Seconds(5));
  }
  const uint64_t audited = Audit(args, *cluster, acked, &audit_misses);

  const uint64_t attempted = nominal.ops.size() + probe.ops.size() + audited;
  const uint64_t failed = Failed(nominal) + Failed(probe) + audit_misses;
  const bool correct = failed == 0 && slo_kops > 0;
  std::printf("audit: %llu reads, %llu misses; setup %.3f/%.3f/%.3f s\n",
              static_cast<unsigned long long>(audited),
              static_cast<unsigned long long>(audit_misses), setup_s[0], setup_s[1],
              setup_s[2]);

  const auto& put = Pick(&WindowStats::put, w, wp);
  const auto& get = Pick(&WindowStats::get, w, wp);
  const auto& del = Pick(&WindowStats::del, w, wp);
  PrintResult(correct, attempted, failed,
              {{"put_p50_ms", put.PercentileMillis(0.5), "ms"},
               {"put_p99_ms", put.PercentileMillis(0.99), "ms"},
               {"get_p50_ms", get.PercentileMillis(0.5), "ms"},
               {"get_p99_ms", get.PercentileMillis(0.99), "ms"},
               {"del_p50_ms", del.PercentileMillis(0.5), "ms"},
               {"del_p99_ms", del.PercentileMillis(0.99), "ms"},
               {"slo_kops", slo_kops, "kops/s"},
               {"space_amp", space_amp, "ratio"},
               {"host_kops", w.host_kops, "kops/s"},
               {"setup_s", setup_s[setup_s.size() / 2], "s"},
               {"peak_rss_mb", peak_rss_mb, "MiB"}});
  return correct ? 0 : 1;
}

bool SameVirtualResults(const PhaseLog& a, const PhaseLog& b) {
  if (a.records.size() != b.records.size() || a.events != b.events) {
    return false;
  }
  for (size_t i = 0; i < a.records.size(); ++i) {
    const OpRecord& x = a.records[i];
    const OpRecord& y = b.records[i];
    if (x.intended != y.intended || x.issued != y.issued || x.completed != y.completed ||
        x.outcome != y.outcome || x.got_bytes != y.got_bytes) {
      return false;
    }
  }
  return true;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int RunPerLayer(const Args& args) {
  const WorkloadSpec& spec = *args.spec;
  Streams in(args);
  const std::vector<Op>& ops = in.nominal;
  const double rate = spec.nominal_kops * 1e3;
  const uint64_t seed = args.seed * 1000 + 1;

  // Untraced pass: counters, histograms and host costs.
  Acked acked;
  auto cluster = SetUp(args, in.preload, in.warmup, &acked);
  cheetah::obs::Registry::Global().ZeroAll();
  PhaseLog plain = RunOpen(*cluster, ops, rate, seed);
  const auto c = SumCounters();
  auto counter = [&](const std::string& name) {
    auto it = c.find(name);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  double rpc_calls = 0;
  double rpc_timeouts = 0;
  for (const auto& [name, value] : c) {
    if (name.starts_with("rpc.")) {
      rpc_calls += name.ends_with(".calls") ? static_cast<double>(value) : 0.0;
      rpc_timeouts += name.ends_with(".timeouts") ? static_cast<double>(value) : 0.0;
    }
  }
  const double control_timeouts = counter("rpc.HeartbeatRequest.timeouts") +
                                  counter("rpc.VoteRequest.timeouts") +
                                  counter("rpc.AppendRequest.timeouts");
  const double rpc_p99[] = {RpcP99Ms("PutAllocRequest"), RpcP99Ms("ReplicateMetaXRequest"),
                            RpcP99Ms("DataWriteRequest"), RpcP99Ms("GetMetaRequest"),
                            RpcP99Ms("DataReadRequest"), RpcP99Ms("DeleteRequest")};
  const double n_ops = static_cast<double>(ops.size());
  double puts = 0;
  double gets = 0;
  double dels = 0;
  double user_bytes = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    switch (ops[i].type) {
      case OpType::kPut:
        ++puts;
        user_bytes += static_cast<double>(ops[i].size);
        break;
      case OpType::kGet:
        ++gets;
        user_bytes += static_cast<double>(plain.records[i].got_bytes);
        break;
      case OpType::kDelete:
        ++dels;
        break;
    }
  }
  const WindowStats wa = Analyze(plain, 0.2, 0.1, spec.slo_p99_ms);
  PrintWindow("untraced", wa, plain);
  cluster.reset();

  // Traced pass on a fresh cluster: same inputs, a bounded window traced.
  auto traced_cluster = SetUp(args, in.preload, in.warmup, &acked);
  auto& tracer = cheetah::obs::Tracer::Global();
  const size_t trace_from = ops.size() * 3 / 10;
  const size_t trace_to = trace_from + std::min<size_t>(kTracedOps, ops.size() / 2);
  Nanos trace_stop = 0;
  cheetah::sim::EventLoop& loop = traced_cluster->bed->loop();
  traced_cluster->recorder->set_draw_hook([&](size_t idx) {
    if (idx == trace_from) {
      tracer.Clear();
      tracer.set_enabled(true);
    } else if (idx == trace_to) {
      tracer.set_enabled(false);
      trace_stop = loop.Now();
    }
  });
  cheetah::obs::Registry::Global().ZeroAll();
  PhaseLog traced = RunOpen(*traced_cluster, ops, rate, seed);
  traced_cluster->recorder->set_draw_hook(nullptr);
  tracer.set_enabled(false);
  if (trace_stop == 0) {
    trace_stop = loop.Now();
  }
  const TraceStats t = AnalyzeSpans(tracer.spans(), trace_stop);
  tracer.Clear();
  const bool identical = SameVirtualResults(plain, traced);
  std::printf("traced window: %llu complete ops of %llu roots, %llu spans; virtual results %s\n",
              static_cast<unsigned long long>(t.ops), static_cast<unsigned long long>(t.roots),
              static_cast<unsigned long long>(t.spans),
              identical ? "identical to the untraced run" : "DIFFER from the untraced run");
  acked.Apply(traced);
  uint64_t audit_misses = 0;
  const uint64_t audited = Audit(args, *traced_cluster, acked, &audit_misses);

  // Single-layer replays of the workload's own inputs: every put it makes,
  // preload included, and its gets (reads of those puts when it has none).
  std::vector<Op> puts_made = in.preload;
  std::vector<std::string> get_names;
  for (const Op& op : ops) {
    if (op.type == OpType::kPut) {
      puts_made.push_back(op);
    } else if (op.type == OpType::kGet) {
      get_names.push_back(op.name);
    }
  }
  if (get_names.empty()) {
    for (const Op& op : puts_made) {
      get_names.push_back(op.name);
    }
  }
  const KvReplay kv = ReplayKv(spec, puts_made, get_names);
  const double allocate_ns = ReplayAllocateNs(puts_made);
  const double place_ns = ReplayPlaceNs(ops);

  const uint64_t attempted = plain.ops.size() + traced.ops.size() + audited;
  const uint64_t failed = Failed(plain) + Failed(traced) + audit_misses;
  const bool correct = failed == 0 && identical;
  const double tops = static_cast<double>(std::max<uint64_t>(1, t.ops));
  const double tputs = static_cast<double>(std::max<uint64_t>(1, t.puts));
  const double per_put = std::max(1.0, puts);
  PrintResult(
      correct, attempted, failed,
      {{"sim.loop.events_per_op", Ratio(static_cast<double>(plain.events), n_ops), "count"},
       {"sim.loop.host_ns_per_event", Ratio(plain.host_s * 1e9, static_cast<double>(plain.events)),
        "ns"},
       {"sim.loop.heap_callbacks_per_kop", Ratio(counter("sim.loop.callbacks_heap") * 1e3, n_ops),
        "count"},
       {"sim.net.msgs_per_op", Ratio(counter("sim.net.messages_sent"), n_ops), "count"},
       {"sim.net.bytes_per_user_byte", Ratio(counter("sim.net.bytes"), user_bytes), "ratio"},
       {"sim.net.wire_us_per_op", t.wire_ns / 1e3 / tops, "us"},
       {"sim.disk.ops_per_op", Ratio(counter("sim.disk.ops"), n_ops), "count"},
       {"sim.disk.bytes_per_user_byte", Ratio(counter("sim.disk.bytes"), user_bytes), "ratio"},
       {"sim.disk.fsyncs_per_put", t.puts > 0 ? static_cast<double>(t.fsyncs) / tputs : 0.0,
        "count"},
       {"sim.disk.us_per_op", t.disk_ns / 1e3 / tops, "us"},
       {"rpc.calls_per_op", Ratio(rpc_calls, n_ops), "count"},
       {"rpc.queue_us_per_op", t.rpc_queue_ns / 1e3 / tops, "us"},
       {"rpc.handler_us_per_op", t.handler_self_ns / 1e3 / tops, "us"},
       {"rpc.timeouts", rpc_timeouts, "count"},
       {"rpc.control_timeouts", control_timeouts, "count"},
       {"rpc.PutAlloc.p99_ms", rpc_p99[0], "ms"},
       {"rpc.ReplicateMetaX.p99_ms", rpc_p99[1], "ms"},
       {"rpc.DataWrite.p99_ms", rpc_p99[2], "ms"},
       {"rpc.GetMeta.p99_ms", rpc_p99[3], "ms"},
       {"rpc.DataRead.p99_ms", rpc_p99[4], "ms"},
       {"rpc.Delete.p99_ms", rpc_p99[5], "ms"},
       {"kv.writes_per_put", counter("kv.metax.writes") / per_put, "count"},
       {"kv.wal_bytes_per_put", counter("kv.metax.wal_bytes") / per_put, "B"},
       {"kv.flushes", counter("kv.metax.flushes"), "count"},
       {"kv.compactions", counter("kv.metax.compactions"), "count"},
       {"kv.us_per_put", t.puts > 0 ? t.kv_write_ns / 1e3 / tputs : 0.0, "us"},
       {"kv.write_host_ns", kv.write_ns, "ns"},
       {"kv.get_host_ns", kv.get_ns, "ns"},
       {"core.proxy.retries_per_kop", Ratio(counter("proxy.retries") * 1e3, n_ops), "count"},
       {"core.proxy.cache_hit_ratio", Ratio(counter("proxy.cache_hits"), counter("proxy.gets")),
        "ratio"},
       {"core.proxy.persist_wait_us_per_put", t.puts > 0 ? t.persist_wait_ns / 1e3 / tputs : 0.0,
        "us"},
       {"core.meta.replications_per_put", counter("meta.replications") / per_put, "count"},
       {"core.meta.revoked_puts", counter("meta.revoked_puts"), "count"},
       {"core.meta.logs_cleaned_per_del", counter("meta.logs_cleaned") / std::max(1.0, dels),
        "count"},
       {"core.data.writes_per_put", counter("data.writes") / per_put, "count"},
       {"core.data.reads_per_get", counter("data.reads") / std::max(1.0, gets), "count"},
       {"alloc.allocate_host_ns", allocate_ns, "ns"},
       {"crush.place_host_ns", place_ns, "ns"},
       {"host.allocs_per_op", Ratio(static_cast<double>(plain.allocs), n_ops), "count"},
       {"obs.trace_overhead", Ratio(traced.host_s, plain.host_s), "ratio"},
       {"obs.spans_per_op", Ratio(static_cast<double>(t.spans), static_cast<double>(t.roots)),
        "count"},
       {"workload.gen_host_ns_per_op", in.gen_ns_per_op, "ns"},
       {"workload.backlog_growth", wa.backlog_growth, "ratio"},
       {"fail_ratio", Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
        "ratio"}});
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  std::printf("workload %s, seed %llu, %d s, trace %d\n", args.spec->name,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  return args.trace ? perfbench::RunPerLayer(args) : perfbench::RunEndToEnd(args);
}
