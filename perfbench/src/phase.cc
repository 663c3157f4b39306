#include "perfbench/src/phase.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "perfbench/src/alloc_count.h"
#include "src/workload/runner.h"

namespace perfbench {

using cheetah::Result;
using cheetah::Status;
using cheetah::sim::Task;

int64_t HostNowNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void Recorder::Begin(std::vector<Op> ops) {
  log_ = PhaseLog{};
  log_.records.resize(ops.size());
  log_.ops = std::move(ops);
  next_ = 0;
  done_ = 0;
  unclaimed_.clear();
}

Op Recorder::Next() {
  if (next_ >= log_.ops.size()) {
    std::fprintf(stderr, "fatal: runner drew more ops than the phase holds\n");
    std::exit(2);
  }
  if (draw_hook_) {
    draw_hook_(next_);
  }
  log_.records[next_].intended = loop_.Now();
  unclaimed_.push_back(next_);
  return log_.ops[next_++];
}

size_t Recorder::Claim(const std::string& name) {
  if (unclaimed_.empty() || log_.ops[unclaimed_.front()].name != name) {
    std::fprintf(stderr, "fatal: store call for %s does not match the drawn op\n",
                 name.c_str());
    std::exit(2);
  }
  const size_t idx = unclaimed_.front();
  unclaimed_.pop_front();
  log_.records[idx].issued = loop_.Now();
  return idx;
}

void Recorder::Complete(size_t idx, Outcome outcome, uint64_t got_bytes) {
  OpRecord& r = log_.records[idx];
  r.completed = loop_.Now();
  r.outcome = outcome;
  r.got_bytes = got_bytes;
  if (++done_ % kHostSampleEvery == 0) {
    log_.host_samples.push_back(HostSample{done_, r.completed, HostNowNs()});
  }
}

PhaseLog Recorder::Finish() { return std::move(log_); }

namespace {

Outcome OutcomeOf(const Status& s) {
  if (s.ok()) {
    return Outcome::kOk;
  }
  return s.IsNotFound() ? Outcome::kNotFound : Outcome::kError;
}

}  // namespace

Task<Status> RecordingStore::Put(std::string name, std::string data) {
  const size_t idx = recorder_->Claim(name);
  Status s = co_await inner_->Put(std::move(name), std::move(data));
  recorder_->Complete(idx, OutcomeOf(s));
  co_return s;
}

Task<Result<std::string>> RecordingStore::Get(std::string name) {
  const size_t idx = recorder_->Claim(name);
  Result<std::string> r = co_await inner_->Get(std::move(name));
  recorder_->Complete(idx, r.ok() ? Outcome::kOk : OutcomeOf(r.status()),
                      r.ok() ? r->size() : 0);
  co_return r;
}

Task<Status> RecordingStore::Delete(std::string name) {
  const size_t idx = recorder_->Claim(name);
  Status s = co_await inner_->Delete(std::move(name));
  recorder_->Complete(idx, OutcomeOf(s));
  co_return s;
}

std::unique_ptr<Cluster> BootCluster(const WorkloadSpec& spec) {
  cheetah::core::TestbedConfig config;
  config.meta_machines = 3;
  config.data_machines = 9;
  config.proxies = 3;
  config.pg_count = 64;
  config.replication = 3;
  config.disks_per_data_machine = 4;
  config.pvs_per_disk = 6;
  config.lv_capacity_bytes = cheetah::GiB(8);
  config.store_volume_content = false;
  config.options.metax_kv.memtable_bytes = spec.memtable_bytes;
  config.options.metax_kv.sync_wal = true;

  auto cluster = std::make_unique<Cluster>();
  cluster->bed = std::make_unique<cheetah::core::Testbed>(std::move(config));
  if (Status s = cluster->bed->Boot(); !s.ok()) {
    std::fprintf(stderr, "fatal: cluster boot failed: %s\n", s.ToString().c_str());
    std::exit(2);
  }
  cluster->recorder = std::make_unique<Recorder>(cluster->bed->loop());
  for (int i = 0; i < cluster->bed->num_proxies(); ++i) {
    cluster->proxies.push_back(
        std::make_unique<cheetah::workload::CheetahStore>(&cluster->bed->proxy(i)));
    cluster->stores.push_back(std::make_unique<RecordingStore>(cluster->proxies.back().get(),
                                                               cluster->recorder.get()));
    cluster->clients.emplace_back(&cluster->bed->proxy_machine(i).actor(),
                                  cluster->stores.back().get());
  }
  return cluster;
}

namespace {

PhaseLog RunPhase(Cluster& cluster, std::vector<Op> ops,
                  cheetah::workload::RunnerConfig config) {
  Recorder* recorder = cluster.recorder.get();
  config.total_ops = ops.size();
  recorder->Begin(std::move(ops));
  cheetah::workload::Runner runner(cluster.bed->loop(), cluster.clients, config);
  const uint64_t events0 = cluster.bed->loop().events_fired();
  const uint64_t allocs0 = AllocCount();
  const int64_t host0 = HostNowNs();
  runner.Run([recorder](cheetah::Rng&) { return recorder->Next(); });
  const int64_t host1 = HostNowNs();
  const uint64_t allocs1 = AllocCount();
  PhaseLog log = recorder->Finish();
  log.host_s = static_cast<double>(host1 - host0) / 1e9;
  log.events = cluster.bed->loop().events_fired() - events0;
  log.allocs = allocs1 - allocs0;
  return log;
}

}  // namespace

PhaseLog RunOpen(Cluster& cluster, std::vector<Op> ops, double ops_per_s, uint64_t seed) {
  cheetah::workload::RunnerConfig config;
  config.arrival = cheetah::workload::ArrivalMode::kOpen;
  config.offered_ops_per_sec = ops_per_s;
  config.seed = seed;
  return RunPhase(cluster, std::move(ops), config);
}

PhaseLog RunClosed(Cluster& cluster, std::vector<Op> ops, int concurrency) {
  cheetah::workload::RunnerConfig config;
  config.arrival = cheetah::workload::ArrivalMode::kClosed;
  config.concurrency = concurrency;
  return RunPhase(cluster, std::move(ops), config);
}

WindowStats Analyze(const PhaseLog& log, double head, double tail, double slo_ms) {
  WindowStats w;
  if (log.records.empty()) {
    return w;
  }
  const Nanos first = log.records.front().intended;
  const Nanos last = log.records.back().intended;
  const auto span = static_cast<double>(last - first);
  const Nanos w0 = first + static_cast<Nanos>(head * span);
  const Nanos w1 = first + static_cast<Nanos>((1.0 - tail) * span);
  w.window_s = static_cast<double>(w1 - w0) / 1e9;
  const Nanos limit = static_cast<Nanos>(slo_ms * 1e6);

  // In-flight ops at kBacklogPoints evenly spaced instants of the window.
  constexpr int kBacklogPoints = 16;
  std::vector<double> inflight(kBacklogPoints, 0.0);
  auto point = [&](int k) { return w0 + (w1 - w0) * k / (kBacklogPoints - 1); };
  uint64_t done_in_window = 0;
  for (size_t i = 0; i < log.records.size(); ++i) {
    const OpRecord& r = log.records[i];
    const bool done = r.outcome != Outcome::kPending;
    for (int k = 0; k < kBacklogPoints; ++k) {
      const Nanos t = point(k);
      inflight[k] += r.intended <= t && (!done || r.completed > t) ? 1.0 : 0.0;
    }
    if (done && r.completed >= w0 && r.completed < w1) {
      ++done_in_window;
    }
    if (r.intended < w0 || r.intended >= w1) {
      continue;
    }
    ++w.attempted;
    if (r.outcome != Outcome::kOk) {
      ++w.failed;
      ++w.slo_misses;
      continue;
    }
    const Nanos latency = r.completed - r.intended;
    if (latency > limit) {
      ++w.slo_misses;
    }
    w.all.Record(latency);
    switch (log.ops[i].type) {
      case OpType::kPut:
        w.put.Record(latency);
        break;
      case OpType::kGet:
        w.get.Record(latency);
        break;
      case OpType::kDelete:
        w.del.Record(latency);
        break;
    }
  }
  if (w.window_s > 0) {
    w.offered_ops_s = static_cast<double>(w.attempted) / w.window_s;
    w.done_ops_s = static_cast<double>(done_in_window) / w.window_s;
  }
  if (w.attempted > 0) {
    // Least-squares slope of the in-flight count over the window, times the
    // window: the backlog added across it, robust to the count's jitter.
    double mean_x = 0;
    double mean_y = 0;
    for (int k = 0; k < kBacklogPoints; ++k) {
      mean_x += k;
      mean_y += inflight[k];
    }
    mean_x /= kBacklogPoints;
    mean_y /= kBacklogPoints;
    double sxy = 0;
    double sxx = 0;
    for (int k = 0; k < kBacklogPoints; ++k) {
      sxy += (k - mean_x) * (inflight[k] - mean_y);
      sxx += (k - mean_x) * (k - mean_x);
    }
    const double added = sxy / sxx * (kBacklogPoints - 1);
    w.backlog_growth = added / static_cast<double>(w.attempted);
  }
  const HostSample* h0 = nullptr;
  const HostSample* h1 = nullptr;
  for (const HostSample& h : log.host_samples) {
    if (h.at >= w0 && h.at < w1) {
      h0 = h0 == nullptr ? &h : h0;
      h1 = &h;
    }
  }
  if (h0 != nullptr && h1->cpu_ns > h0->cpu_ns) {
    w.host_kops = static_cast<double>(h1->done - h0->done) /
                  (static_cast<double>(h1->cpu_ns - h0->cpu_ns) / 1e9) / 1e3;
  }
  return w;
}

bool MeetsSlo(const WindowStats& w) {
  return w.attempted > 0 &&
         static_cast<double>(w.slo_misses) <= 0.01 * static_cast<double>(w.attempted) &&
         w.backlog_growth <= kBacklogLimit;
}

}  // namespace perfbench
