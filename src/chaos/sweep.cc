#include "src/chaos/sweep.h"

#include <cstdlib>
#include <memory>
#include <sstream>

#include "src/common/random.h"

namespace cheetah::chaos {

namespace {

sim::Task<> MixWorker(core::ClientProxy& proxy, sim::EventLoop& loop, ClientMix mix,
                      uint64_t seed, int w, History* history,
                      std::shared_ptr<int> done) {
  Rng rng(seed * 1000003 + static_cast<uint64_t>(w));
  for (int i = 0; i < mix.rounds; ++i) {
    const std::string key =
        mix.key_prefix + std::to_string(rng.Uniform(static_cast<uint64_t>(kMixKeys)));
    const uint64_t dice = rng.Uniform(100);
    if (dice < mix.put_pct) {
      const std::string value = mix.payload(w, i, key);
      const uint64_t id = history->Invoke(w, OpType::kPut, key, value, loop.Now());
      Status s = co_await proxy.Put(key, value);
      history->Return(id, Classify(OpType::kPut, s), "", loop.Now());
    } else if (dice < mix.put_pct + mix.get_pct) {
      const uint64_t id = history->Invoke(w, OpType::kGet, key, "", loop.Now());
      auto r = co_await proxy.Get(key);
      history->Return(id, Classify(OpType::kGet, r.status()), r.ok() ? *r : "",
                      loop.Now());
    } else {
      const uint64_t id = history->Invoke(w, OpType::kDelete, key, "", loop.Now());
      Status s = co_await proxy.Delete(key);
      history->Return(id, Classify(OpType::kDelete, s), "", loop.Now());
    }
    co_await sim::SleepFor(Millis(40) + rng.Uniform(Millis(160)));
  }
  ++*done;
}

}  // namespace

std::vector<uint64_t> SeedsFromEnv(const char* var, const char* defaults) {
  std::vector<uint64_t> seeds;
  const char* env = std::getenv(var);
  std::stringstream ss(env != nullptr ? env : defaults);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) {
      seeds.push_back(std::strtoull(tok.c_str(), nullptr, 10));
    }
  }
  if (seeds.empty()) {
    seeds.push_back(1);
  }
  return seeds;
}

std::string DefaultPayload(int worker, int round, const std::string& key) {
  std::string out =
      "v-w" + std::to_string(worker) + "-" + std::to_string(round) + "|" + key + "|";
  out.resize(1024, 'x');
  return out;
}

std::vector<std::string> ClientMix::Keys() const {
  std::vector<std::string> out;
  for (int k = 0; k < kMixKeys; ++k) {
    out.push_back(key_prefix + std::to_string(k));
  }
  return out;
}

bool Sweep::RunClients(const ClientMix& mix, uint64_t seed) {
  auto done = std::make_shared<int>(0);
  for (int w = 0; w < kMixWorkers; ++w) {
    bed_.SpawnOnProxy(w, [this, mix, seed, w, done](core::ClientProxy& proxy) {
      return MixWorker(proxy, bed_.loop(), mix, seed, w, &history_, done);
    });
  }
  return bed_.loop().RunUntilDone([&] { return *done == kMixWorkers; }, kClientBudget);
}

void Sweep::RestoreAll() {
  bed_.Heal();
  bed_.network().ClearLinkFaults();
  for (int i = 0; i < bed_.num_data(); ++i) {
    bed_.data_machine(i).ClearGrayFailure();
  }
  for (sim::NodeId node : bed_.AllNodes()) {
    bed_.Restart(node);  // no-op for alive nodes
  }
  bed_.RunFor(Seconds(5));
}

bool Sweep::AuditKeys(const std::vector<std::string>& keys) {
  bool healthy = true;
  for (const std::string& key : keys) {
    const uint64_t id = history_.Invoke(99, OpType::kGet, key, "", bed_.loop().Now());
    auto r = bed_.GetObject(0, key);
    const Outcome out = Classify(OpType::kGet, r.status());
    history_.Return(id, out, r.ok() ? *r : "", bed_.loop().Now());
    healthy = healthy && out != Outcome::kNoEffect;
  }
  return healthy;
}

}  // namespace cheetah::chaos
