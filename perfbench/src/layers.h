// Per-layer attribution from outside the program: obs::Registry counter
// sums, obs::Tracer span self times, and host-time replays of one layer's
// calls on a private event loop.
#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/common/units.h"
#include "src/obs/trace.h"

namespace perfbench {

// Every registry counter, summed across instances: "meta@101#7.replications"
// and "meta@102#9.replications" both add into "meta.replications".
std::map<std::string, uint64_t> SumCounters();

// Per-instance counter values whose name (with "@<node>" stripped but the
// "#<instance>" kept) starts with `prefix` and ends with `field`.
std::vector<uint64_t> InstanceCounters(const std::string& prefix, const std::string& field);

// Caller-side p99 of one rpc type from the registry histogram, in ms.
double RpcP99Ms(const std::string& request_type);

// Span-derived layer times of the operations a trace window captured. Only
// operations whose root span closed before tracing stopped are counted, so
// none is missing the tail of its span tree.
struct TraceStats {
  uint64_t ops = 0;            // complete root operations
  uint64_t puts = 0;           // ... of which puts
  uint64_t spans = 0;          // every span recorded in the window
  uint64_t roots = 0;          // every root span begun in the window
  uint64_t fsyncs = 0;         // disk.fsync spans, any operation or none
  double wire_ns = 0;          // net.wire span time
  double disk_ns = 0;          // disk span time
  double rpc_queue_ns = 0;     // qos queue spans + rpc self time
  double handler_self_ns = 0;  // handler span self time
  double kv_write_ns = 0;      // kv.write span time
  double persist_wait_ns = 0;  // put.persist_wait span time
};

TraceStats AnalyzeSpans(const std::vector<cheetah::obs::Span>& spans, cheetah::Nanos stop);

// Host ns per call of one layer, replaying the workload's own inputs.
// MetaX-shaped WriteBatches (ObMeta + PGLOG + PXLOG per put) through
// kv::DB::Write, then point lookups of `get_names` through kv::DB::Get.
struct KvReplay {
  double write_ns = 0;
  double get_ns = 0;
};
KvReplay ReplayKv(const WorkloadSpec& spec, const std::vector<Op>& puts,
                  const std::vector<std::string>& get_names);
// Extent allocation of every put's size on one logical volume's bitmap.
double ReplayAllocateNs(const std::vector<Op>& puts);
// Name -> PG -> 3 meta servers, for every op.
double ReplayPlaceNs(const std::vector<Op>& ops);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
