// Phases of a benchmark run, driven through workload::Runner and measured
// from outside the program.
//
// RecordingStore decorates each proxy's workload::ObjectStore and logs, for
// every op of a phase, its intended start (the Poisson arrival the runner
// scheduled it for), the virtual time it reached the store, and its
// completion time and outcome; every kHostSampleEvery completions it also
// samples the host clock. Latency, throughput and backlog are then computed
// over a steady-state window that trims the phase's warm-up and drain,
// instead of over the whole start-to-drain run.
//
// The host clock is the simulator thread's CPU time: the simulator is one
// thread that never blocks, so CPU time is its host time without the
// scheduling noise of a shared machine.
#ifndef PERFBENCH_SRC_PHASE_H_
#define PERFBENCH_SRC_PHASE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/common/units.h"
#include "src/core/testbed.h"
#include "src/workload/adapters.h"
#include "src/workload/object_store.h"
#include "src/workload/stats.h"

namespace perfbench {

using cheetah::Nanos;

enum class Outcome : uint8_t { kPending, kOk, kNotFound, kError };

struct OpRecord {
  Nanos intended = 0;
  Nanos issued = 0;
  Nanos completed = 0;
  uint64_t got_bytes = 0;  // gets: size of the returned object
  Outcome outcome = Outcome::kPending;
};

struct HostSample {
  uint64_t done = 0;  // completions so far in the phase
  Nanos at = 0;       // virtual time of the sample
  int64_t cpu_ns = 0;
};
constexpr uint64_t kHostSampleEvery = 64;

// Every op of one phase, in issue order, with what happened to it.
struct PhaseLog {
  std::vector<Op> ops;
  std::vector<OpRecord> records;
  std::vector<HostSample> host_samples;
  double host_s = 0;    // host seconds from the first issue to the drain
  uint64_t events = 0;  // event-loop events fired during the phase
  uint64_t allocs = 0;  // operator new calls during the phase
};

// Hands a phase's pregenerated ops to the runner and matches each store call
// back to its op. The runner calls the store in the order it drew the ops,
// so a FIFO of drawn-but-unclaimed indices is enough; Claim checks the name.
class Recorder {
 public:
  explicit Recorder(cheetah::sim::EventLoop& loop) : loop_(loop) {}

  void Begin(std::vector<Op> ops);
  Op Next();  // the runner's next_op: called at the op's intended start
  // Called from Next with the index of every op drawn (tracing windows).
  void set_draw_hook(std::function<void(size_t)> hook) { draw_hook_ = std::move(hook); }
  size_t Claim(const std::string& name);
  void Complete(size_t idx, Outcome outcome, uint64_t got_bytes = 0);
  PhaseLog Finish();

 private:
  cheetah::sim::EventLoop& loop_;
  PhaseLog log_;
  size_t next_ = 0;
  uint64_t done_ = 0;
  std::deque<size_t> unclaimed_;
  std::function<void(size_t)> draw_hook_;
};

class RecordingStore : public cheetah::workload::ObjectStore {
 public:
  RecordingStore(cheetah::workload::ObjectStore* inner, Recorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  cheetah::sim::Task<cheetah::Status> Put(std::string name, std::string data) override;
  cheetah::sim::Task<cheetah::Result<std::string>> Get(std::string name) override;
  cheetah::sim::Task<cheetah::Status> Delete(std::string name) override;

 private:
  cheetah::workload::ObjectStore* inner_;
  Recorder* recorder_;
};

// The paper-shaped cluster (3 meta / 9 data / 3 proxies, 64 PGs, 3-way
// replication, sync WAL, metadata-only volumes) with a recording store in
// front of every proxy.
struct Cluster {
  std::unique_ptr<cheetah::core::Testbed> bed;
  std::vector<std::unique_ptr<cheetah::workload::CheetahStore>> proxies;
  std::unique_ptr<Recorder> recorder;
  std::vector<std::unique_ptr<RecordingStore>> stores;
  std::vector<std::pair<cheetah::sim::Actor*, cheetah::workload::ObjectStore*>> clients;
};

// Boots the cluster with the workload's MetaX memtable size; exits the
// process with a message if boot fails.
std::unique_ptr<Cluster> BootCluster(const WorkloadSpec& spec);

// Open loop: Poisson arrivals at `ops_per_s` (virtual), then drains.
PhaseLog RunOpen(Cluster& cluster, std::vector<Op> ops, double ops_per_s, uint64_t seed);
// Closed loop with `concurrency` workers (preload and audit reads).
PhaseLog RunClosed(Cluster& cluster, std::vector<Op> ops, int concurrency);

// Steady-state view of one phase: ops whose intended start falls in the
// window [start + head * span, start + (1 - tail) * span] of the issue span.
struct WindowStats {
  cheetah::workload::LatencyRecorder put, get, del, all;  // from intended start
  uint64_t attempted = 0;
  uint64_t failed = 0;       // error or NotFound
  uint64_t slo_misses = 0;   // failed, or slower than the limit
  double window_s = 0;       // virtual seconds
  double offered_ops_s = 0;  // arrivals in the window per virtual second
  double done_ops_s = 0;     // completions in the window per virtual second
  // Growth of the in-flight count across the window (least-squares fit over
  // evenly spaced instants) over the ops that arrived in it: > 0 means
  // arrivals outran completions.
  double backlog_growth = 0;
  // Simulated ops completed per host second, between the first and the last
  // host sample inside the window. A whole-window ratio, not a median of
  // slices: flushes and compactions make some slices several times slower
  // than others, and they belong in the figure.
  double host_kops = 0;
};

WindowStats Analyze(const PhaseLog& log, double head, double tail, double slo_ms);

// All-op p99 within the limit (failures count as misses) and no backlog
// growth above kBacklogLimit.
constexpr double kBacklogLimit = 0.01;
bool MeetsSlo(const WindowStats& w);

// CPU time of the calling thread, in ns.
int64_t HostNowNs();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PHASE_H_
