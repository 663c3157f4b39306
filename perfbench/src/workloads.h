// The benchmark's three workloads and their seeded op streams.
//
// Every op a measured phase issues is generated before that phase starts, so
// the generator's host cost never lands inside a timed interval. Gets and
// deletes only target objects whose put was generated at least kLiveLag ops
// earlier (so the put has long completed when they are issued), and a delete
// never takes an object that was read within the last kLiveLag ops, so no op
// of a stream races another one into NotFound.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/random.h"
#include "src/workload/generator.h"

namespace perfbench {

using cheetah::Rng;
using cheetah::workload::Op;
using cheetah::workload::OpType;

struct WorkloadSpec {
  const char* name;
  // Op mix of the nominal phase; the remainder of put+delete goes to gets.
  double put_ratio;
  double delete_ratio;
  bool zipf_gets;           // gets draw Zipf(0.99) over the preloaded set
  bool trace_sizes;         // Fig. 16b sizes instead of a fixed 8 KiB
  uint64_t memtable_bytes;  // MetaX memtable size
  uint64_t preload_objects;
  double nominal_kops;      // offered rate of the nominal phase (virtual)
  double slo_p99_ms;        // all-op p99 limit of the slo_kops search
  // Ops per measured second of --seconds: the nominal phase issues
  // nominal_ops_per_s * seconds ops; each slo_kops probe a fixed share.
  double nominal_ops_per_s;
  // Virtual time each slo_kops probe offers load for.
  double probe_virtual_s;
};

// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);
std::vector<std::string> WorkloadNames();

// YCSB's Zipfian generator (Gray et al., "Quickly generating billion-record
// synthetic databases"), with zeta(n) computed once: O(1) per draw.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double theta);
  uint64_t Next(Rng& rng) const;

 private:
  uint64_t n_;
  double zetan_;
  double alpha_;
  double eta_;
  double half_pow_theta_;
};

// Deterministic, stateful op stream of one workload: Preload() first, then
// any number of Next() batches, which continue the same stream.
class OpStream {
 public:
  static constexpr uint64_t kLiveLag = 4096;

  OpStream(const WorkloadSpec& spec, uint64_t seed);

  std::vector<Op> Preload();
  std::vector<Op> Next(uint64_t count);

  // The probe phase that times the op types a workload's nominal mix lacks:
  // `per_type` ops of each of `types`, making up `share` of a stream whose
  // other ops follow the nominal mix, so the probed ops meet the workload's
  // own load.
  std::vector<Op> Probe(uint64_t per_type, const std::vector<OpType>& types, double share);

  // Names a warm-up pass reads so every proxy caches the hot set (Zipf
  // workloads only; empty otherwise).
  std::vector<Op> CacheWarmup(uint64_t count);

 private:
  struct Live {
    std::string name;
    uint64_t last_get = 0;  // stream position of the latest get, 0 = never
  };

  Op MakePut();
  Op MakeOp();
  Op MakeTyped(OpType type);
  void Admit(uint64_t upto);

  const WorkloadSpec& spec_;
  Rng rng_;
  cheetah::workload::SizeDist sizes_;
  std::string prefix_;
  uint64_t next_name_ = 0;
  uint64_t position_ = 0;
  std::deque<std::pair<uint64_t, std::string>> maturing_;  // (put position, name)
  std::vector<Live> live_;
  // Zipf workloads: preloaded names in a seeded popularity order.
  std::vector<std::string> ranked_;
  ZipfSampler zipf_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
