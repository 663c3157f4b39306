// Sweep: the shared harness behind the seeded fault sweeps in tests/chaos.
//
// Every sweep has the same skeleton: boot a Testbed, seed the network fault
// RNG, install a nemesis schedule, run recorded client workers until they
// finish, restore and settle the cluster, then read every key into the same
// history the linearizability checker judges. Sweep owns the testbed and the
// history and supplies the steps after the schedule install; a sweep test is
// a configuration of these steps plus its own assertions. Nothing here
// depends on gtest: each step returns what it saw and the tests assert on it.
//
// A run is a pure function of its seed, so a printed seed + schedule replays
// it byte for byte. The order of the workers' RNG draws (key, op dice, sleep)
// is part of that contract: changing it changes every pinned history.
#ifndef SRC_CHAOS_SWEEP_H_
#define SRC_CHAOS_SWEEP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/chaos/history.h"
#include "src/core/testbed.h"
#include "src/sim/event_loop.h"

namespace cheetah::chaos {

// The comma-separated seed list in env var `var` (e.g. CHEETAH_CHAOS_SEEDS),
// else `defaults`. Never empty: an empty list becomes {1}.
std::vector<uint64_t> SeedsFromEnv(const char* var, const char* defaults);

// Deterministic 1KB payload, unique per (worker, round).
std::string DefaultPayload(int worker, int round, const std::string& key);

// Every ClientMix runs kMixWorkers workers over kMixKeys keys.
constexpr int kMixWorkers = 3;
constexpr int kMixKeys = 8;

// Virtual time a sweep's client workers get to finish.
constexpr Nanos kClientBudget = Seconds(120);

// The recorded client workload. Worker w runs on proxy w with its own RNG
// (seed * 1000003 + w). Each round picks one of the kMixKeys keys uniformly,
// then puts (put_pct %), gets (get_pct %) or deletes (the rest), then sleeps
// 40-200 ms.
struct ClientMix {
  int rounds = 14;
  std::string key_prefix = "obj-";
  uint64_t put_pct = 50;
  uint64_t get_pct = 30;
  std::function<std::string(int worker, int round, const std::string& key)> payload =
      DefaultPayload;

  std::vector<std::string> Keys() const;
};

class Sweep {
 public:
  explicit Sweep(core::TestbedConfig config) : bed_(std::move(config)) {}

  core::Testbed& bed() { return bed_; }
  History& history() { return history_; }

  // Runs `mix` until every worker finishes or kClientBudget of virtual time
  // passes. True when every worker finished; a hung worker keeps recording
  // if the loop runs on.
  bool RunClients(const ClientMix& mix, uint64_t seed);

  // Heals partitions, clears link and gray faults, restarts every crashed
  // node, then lets recovery and the cleaner settle for 5 s.
  void RestoreAll();

  // Reads every key through proxy 0 (as client 99) into the history. False
  // when any read failed with an error other than NotFound.
  bool AuditKeys(const std::vector<std::string>& keys);

 private:
  History history_;  // outlives bed_, whose worker coroutines write into it
  core::Testbed bed_;
};

// Runs `run` with the reference heap engine as the default event loop and
// returns its result: the cross-engine guard replays a run this way and
// requires the timer wheel's output byte for byte.
template <typename Run>
auto OnHeapEngine(Run run) {
  sim::EventLoop::OverrideDefaultEngine(sim::EventLoop::Engine::kHeap);
  auto result = run();
  sim::EventLoop::OverrideDefaultEngine(std::nullopt);
  return result;
}

}  // namespace cheetah::chaos

#endif  // SRC_CHAOS_SWEEP_H_
