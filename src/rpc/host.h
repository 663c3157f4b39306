// Host: one simulated process — a machine, its rpc node, an optional QoS
// scheduler and the server object — built, crashed and revived the same way
// for every role of every cluster (the Cheetah testbed and the three
// baselines).
//
// The server is constructed by the caller (each role's constructor takes
// different arguments) and re-created by the caller after Revive(), since a
// restarted process starts from its durable state only.
#ifndef SRC_RPC_HOST_H_
#define SRC_RPC_HOST_H_

#include <memory>
#include <string>

#include "src/qos/scheduler.h"
#include "src/rpc/node.h"
#include "src/sim/event_loop.h"
#include "src/sim/machine.h"
#include "src/sim/network.h"

namespace cheetah::rpc {

template <typename Server>
struct Host {
  // Builds the machine and its node, installs a scheduler when
  // `qos.enabled`, and attaches the node to the network.
  Host(sim::EventLoop& loop, sim::Network& net, sim::NodeId id, std::string name,
       const sim::MachineParams& params, const Node::HandlerCosts& costs = {},
       const qos::QosParams& qos = {})
      : machine(loop, id, std::move(name), params), rpc(machine, net), qos_(qos) {
    rpc.SetHandlerCosts(costs);
    InstallScheduler();
    rpc.Attach();
  }
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  // Kills the process (dropping unsynced disk data on `power_loss`) and
  // takes it off the network.
  void Crash(bool power_loss) {
    if (power_loss) {
      machine.PowerFailure();
    } else {
      machine.CrashProcess();
    }
    rpc.Detach();
  }

  // Restarts the machine with a fresh scheduler, if it had one, and puts it
  // back on the network. The caller then builds and starts a new server.
  void Revive() {
    machine.Restart();
    InstallScheduler();
    rpc.Attach();
  }

  sim::Machine machine;
  // Declared before `rpc`: ~Node calls Scheduler::Reset(), so the scheduler
  // must be destroyed after the node.
  std::unique_ptr<qos::Scheduler> sched;
  Node rpc;
  std::unique_ptr<Server> server;

 private:
  void InstallScheduler() {
    if (qos_.enabled) {
      sched = std::make_unique<qos::Scheduler>(machine.loop(), machine.node_id(), qos_);
      rpc.SetScheduler(sched.get());
    }
  }

  qos::QosParams qos_;
};

// The baselines' boot barrier: spawns every host's asynchronous
// server->Start(), runs `then` (synchronous starts of other roles, which keep
// their place in the event order), and drives `loop` until every spawned
// start has returned. False when any of them failed.
template <typename Hosts, typename Then = void (*)()>
bool StartAll(sim::EventLoop& loop, Hosts&& hosts, Then then = [] {}) {
  auto pending = std::make_shared<int>(0);
  auto failed = std::make_shared<bool>(false);
  for (auto& host : hosts) {
    ++*pending;
    host.machine.actor().Spawn(
        [](auto* server, std::shared_ptr<int> pending,
           std::shared_ptr<bool> failed) -> sim::Task<> {
          Status s = co_await server->Start();
          if (!s.ok()) {
            *failed = true;
          }
          --*pending;
        }(host.server.get(), pending, failed));
  }
  then();
  loop.RunUntilDone([&] { return *pending == 0; });
  return !*failed;
}

}  // namespace cheetah::rpc

#endif  // SRC_RPC_HOST_H_
