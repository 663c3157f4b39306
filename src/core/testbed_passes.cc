// Testbed maintenance passes: one scrub or tiering pass on every meta server.
// They live in their own object file, so a program that never runs a pass,
// such as perfbench, links none of this code.
#include "src/core/testbed.h"

namespace cheetah::core {

std::shared_ptr<int> Testbed::SpawnOnEveryMeta(sim::Task<> (MetaServer::*pass)()) {
  auto pending = std::make_shared<int>(num_meta());
  for (int i = 0; i < num_meta(); ++i) {
    meta_machine(i).actor().Spawn(
        [](MetaServer* server, sim::Task<> (MetaServer::*pass)(),
           std::shared_ptr<int> pending) -> sim::Task<> {
          co_await (server->*pass)();
          --*pending;
        }(&meta(i), pass, pending));
  }
  return pending;
}

void Testbed::ScrubAll() {
  auto pending = SpawnOnEveryMeta(&MetaServer::ScrubNow);
  loop_.RunUntilDone([&] { return *pending == 0; });
}

void Testbed::TierAll() {
  auto pending = SpawnOnEveryMeta(&MetaServer::TierNow);
  loop_.RunUntilDone([&] { return *pending == 0; });
}

std::shared_ptr<const int> Testbed::BeginTierAll() {
  return SpawnOnEveryMeta(&MetaServer::TierNow);
}

}  // namespace cheetah::core
