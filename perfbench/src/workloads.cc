#include "perfbench/src/workloads.h"

#include <cmath>
#include <utility>

#include "src/common/units.h"

namespace perfbench {
namespace {

using cheetah::KiB;
using cheetah::MiB;

// Fixed from calibration runs when the benchmark was introduced: each
// nominal rate is about 60% of that workload's slo_kops then. The 8 KiB
// limits are about 4x the unloaded p50; trace-mix keeps a 20 ms limit, which
// leaves room for its 448-512 KiB transfers under load. BENCHMARK.json
// repeats rates, limits and data sizes in its "why" lines.
const WorkloadSpec kWorkloads[] = {
    {.name = "put8k-flush",
     .put_ratio = 1.0,
     .delete_ratio = 0.0,
     .zipf_gets = false,
     .trace_sizes = false,
     .memtable_bytes = MiB(1),
     .preload_objects = 24000,
     .nominal_kops = 82.0,
     .slo_p99_ms = 2.0,
     .nominal_ops_per_s = 2400,
     .probe_virtual_s = 0.04},
    {.name = "get8k-zipf",
     .put_ratio = 0.0,
     .delete_ratio = 0.0,
     .zipf_gets = true,
     .trace_sizes = false,
     .memtable_bytes = MiB(64),
     .preload_objects = 20000,
     .nominal_kops = 640.0,
     .slo_p99_ms = 1.0,
     .nominal_ops_per_s = 12000,
     .probe_virtual_s = 0.025},
    {.name = "trace-mix",
     .put_ratio = 0.55,
     .delete_ratio = 0.25,
     .zipf_gets = false,
     .trace_sizes = true,
     .memtable_bytes = MiB(64),
     .preload_objects = 2500,
     .nominal_kops = 8.0,
     .slo_p99_ms = 20.0,
     .nominal_ops_per_s = 3000,
     .probe_virtual_s = 0.5},
};

constexpr double kZipfTheta = 0.99;
constexpr uint64_t kMinNameBytes = 16;
constexpr uint64_t kMaxNameBytes = 112;
// Zipf workloads also preload this many objects outside the popularity
// ranking, so the probe phase has objects to delete that no Zipf get reads.
constexpr uint64_t kSpareObjects = 2000;

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> out;
  for (const WorkloadSpec& w : kWorkloads) {
    out.emplace_back(w.name);
  }
  return out;
}

ZipfSampler::ZipfSampler(uint64_t n, double theta) : n_(n) {
  double z = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    z += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  zetan_ = z;
  alpha_ = 1.0 / (1.0 - theta);
  half_pow_theta_ = std::pow(0.5, theta);
  const double zeta2 = 1.0 + half_pow_theta_;
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) / (1.0 - zeta2 / zetan_);
}

uint64_t ZipfSampler::Next(Rng& rng) const {
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < 1.0 + half_pow_theta_) {
    return 1;
  }
  const auto r = static_cast<uint64_t>(static_cast<double>(n_) *
                                       std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return r < n_ ? r : n_ - 1;
}

OpStream::OpStream(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec),
      rng_(seed * 0x9e3779b97f4a7c15ull + 17),
      sizes_(spec.trace_sizes ? cheetah::workload::TraceSize()
                              : cheetah::workload::FixedSize(KiB(8))),
      prefix_(std::to_string(seed)),
      zipf_(spec.zipf_gets ? spec.preload_objects : 2, kZipfTheta) {
  // "o<seed>-", built from chars: GCC 12 flags a literal assignment here
  // with a false -Wrestrict.
  prefix_.insert(prefix_.begin(), 'o');
  prefix_.push_back('-');
}

Op OpStream::MakePut() {
  Op op;
  op.type = OpType::kPut;
  // Path-like keys of seeded length: every name-carrying message and MetaX
  // record varies in size the way real keys make it vary.
  op.name = prefix_ + std::to_string(next_name_++) + "/";
  const uint64_t length = rng_.UniformRange(kMinNameBytes, kMaxNameBytes);
  while (op.name.size() < length) {
    op.name += static_cast<char>('a' + rng_.Uniform(26));
  }
  op.size = sizes_(rng_);
  maturing_.emplace_back(position_, op.name);
  return op;
}

void OpStream::Admit(uint64_t upto) {
  while (!maturing_.empty() && maturing_.front().first + kLiveLag <= upto) {
    live_.push_back(Live{std::move(maturing_.front().second)});
    maturing_.pop_front();
  }
}

std::vector<Op> OpStream::Preload() {
  const uint64_t spare = spec_.zipf_gets ? kSpareObjects : 0;
  std::vector<Op> ops;
  ops.reserve(spec_.preload_objects + spare);
  for (uint64_t i = 0; i < spec_.preload_objects + spare; ++i) {
    ops.push_back(MakePut());
  }
  // The preload completes before anything else is issued: all of it is live.
  for (auto& [pos, name] : maturing_) {
    if (spec_.zipf_gets && ranked_.size() < spec_.preload_objects) {
      ranked_.push_back(std::move(name));
    } else {
      live_.push_back(Live{std::move(name)});
    }
  }
  maturing_.clear();
  // Popularity rank -> object: a seeded shuffle, so the hot keys spread over
  // placement groups instead of following name order.
  for (size_t i = ranked_.size(); i > 1; --i) {
    std::swap(ranked_[i - 1], ranked_[rng_.Uniform(i)]);
  }
  return ops;
}

Op OpStream::MakeOp() {
  const double u = rng_.NextDouble();
  if (u < spec_.put_ratio) {
    return MakeTyped(OpType::kPut);
  }
  if (u < spec_.put_ratio + spec_.delete_ratio) {
    return MakeTyped(OpType::kDelete);
  }
  return MakeTyped(OpType::kGet);
}

Op OpStream::MakeTyped(OpType type) {
  ++position_;
  Admit(position_);
  Op op;
  if (type == OpType::kDelete) {
    // A delete never takes an object read within the last kLiveLag ops; if
    // none qualifies after a few draws the op becomes a get.
    for (int attempt = 0; attempt < 8 && !live_.empty(); ++attempt) {
      const size_t idx = rng_.Uniform(live_.size());
      if (live_[idx].last_get != 0 && live_[idx].last_get + kLiveLag > position_) {
        continue;
      }
      op.type = OpType::kDelete;
      op.name = std::move(live_[idx].name);
      live_[idx] = std::move(live_.back());
      live_.pop_back();
      return op;
    }
    type = OpType::kGet;
  }
  if (type == OpType::kGet && spec_.zipf_gets) {
    op.type = OpType::kGet;
    op.name = ranked_[zipf_.Next(rng_)];
    return op;
  }
  if (type == OpType::kPut || live_.empty()) {
    return MakePut();
  }
  Live& target = live_[rng_.Uniform(live_.size())];
  target.last_get = position_;
  op.type = OpType::kGet;
  op.name = target.name;
  return op;
}

std::vector<Op> OpStream::Next(uint64_t count) {
  std::vector<Op> ops;
  ops.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ops.push_back(MakeOp());
  }
  return ops;
}

std::vector<Op> OpStream::Probe(uint64_t per_type, const std::vector<OpType>& types,
                                double share) {
  std::vector<Op> ops;
  const uint64_t wanted = per_type * types.size();
  uint64_t probes = 0;
  while (probes < wanted) {
    if (rng_.NextDouble() < share) {
      ops.push_back(MakeTyped(types[probes++ % types.size()]));
    } else {
      ops.push_back(MakeOp());
    }
  }
  return ops;
}

std::vector<Op> OpStream::CacheWarmup(uint64_t count) {
  std::vector<Op> ops;
  if (!spec_.zipf_gets) {
    return ops;
  }
  ops.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Op op;
    op.type = OpType::kGet;
    op.name = ranked_[zipf_.Next(rng_)];
    ops.push_back(std::move(op));
  }
  return ops;
}

}  // namespace perfbench
