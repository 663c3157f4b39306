#include "src/core/testbed.h"

#include <cassert>
#include <type_traits>

#include "src/common/logging.h"

namespace cheetah::core {

namespace {
constexpr sim::NodeId kManagerBase = 1;
constexpr sim::NodeId kProxyBase = 300;
}  // namespace

Testbed::Testbed(TestbedConfig config) : config_(std::move(config)), net_(loop_, config_.net) {
  // Managers (the paper co-locates them with the clients; node identity is
  // what matters here).
  for (int i = 0; i < config_.managers; ++i) {
    manager_nodes_.push_back(kManagerBase + i);
  }
  raft::Config raft_config;
  raft_config.members = manager_nodes_;
  sim::MachineParams params;
  params.disk = config_.meta_disk;
  for (int i = 0; i < config_.managers; ++i) {
    auto& host = managers_.emplace_back(loop_, net_, manager_nodes_[i],
                                        "manager" + std::to_string(i), params,
                                        config_.handler_costs);
    host.server = std::make_unique<cluster::Manager>(host.rpc, host.machine.disk(), raft_config,
                                                     0xa11ce + i);
  }
  for (int i = 0; i < config_.meta_machines; ++i) {
    AddMetaHost(i);
  }
  for (int i = 0; i < config_.data_machines; ++i) {
    AddDataHost(config_.disks_per_data_machine);
  }
  for (int i = 0; i < config_.proxies; ++i) {
    auto& host = proxies_.emplace_back(loop_, net_, kProxyBase + i, "proxy" + std::to_string(i),
                                       params, config_.handler_costs);
    host.server = std::make_unique<ClientProxy>(host.rpc, config_.options, manager_nodes_,
                                                static_cast<uint32_t>(i + 1));
  }
}

Testbed::~Testbed() = default;

rpc::Host<MetaServer>& Testbed::AddMetaHost(int seed) {
  const sim::NodeId id = next_meta_id_++;
  sim::MachineParams params;
  params.num_disks = 1;
  params.disk = config_.meta_disk;
  if (config_.meta_cpu_cores > 0) {
    params.cpu_cores = config_.meta_cpu_cores;
  }
  auto& host = metas_.emplace_back(loop_, net_, id, "meta" + std::to_string(id), params,
                                   config_.handler_costs, config_.options.qos);
  host.server = std::make_unique<MetaServer>(host.rpc, config_.options, manager_nodes_,
                                             0x5eed + seed);
  return host;
}

rpc::Host<DataServer>& Testbed::AddDataHost(uint32_t disks) {
  const sim::NodeId id = next_data_id_++;
  sim::MachineParams params;
  params.num_disks = static_cast<int>(disks);
  params.disk = config_.data_disk;
  auto& host = datas_.emplace_back(loop_, net_, id, "data" + std::to_string(id), params,
                                   config_.handler_costs, config_.options.qos);
  for (size_t d = 0; d < host.machine.num_disks(); ++d) {
    host.machine.disk(d).set_store_volume_content(config_.store_volume_content);
  }
  host.server = std::make_unique<DataServer>(host.rpc, config_.options, manager_nodes_);
  return host;
}

void Testbed::StartManager(int i) {
  managers_.at(i).machine.actor().Spawn([](cluster::Manager* mgr) -> sim::Task<> {
    Status s = co_await mgr->Start();
    if (!s.ok()) {
      LOG_ERROR << "manager start failed: " << s.ToString();
    }
  }(&manager(i)));
}

int Testbed::LeaderManager() const {
  for (size_t i = 0; i < managers_.size(); ++i) {
    if (managers_[i].machine.alive() && managers_[i].server->is_raft_leader()) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Status Testbed::RunManagerAction(std::function<sim::Task<Status>(cluster::Manager&)> action) {
  for (int round = 0; round < 10; ++round) {
    int leader = LeaderManager();
    if (leader < 0) {
      loop_.RunFor(Millis(200));
      continue;
    }
    auto result = std::make_shared<Result<int>>(Status::Internal("unresolved"));
    managers_[leader].machine.actor().Spawn(
        [](cluster::Manager* m, std::function<sim::Task<Status>(cluster::Manager&)> action,
           std::shared_ptr<Result<int>> out) -> sim::Task<> {
          Status s = co_await action(*m);
          *out = s.ok() ? Result<int>(1) : Result<int>(s);
        }(&manager(leader), action, result));
    loop_.RunUntilDone(
        [&] { return result->ok() || result->status().code() != ErrorCode::kInternal; },
        Seconds(10));
    if (result->ok()) {
      return Status::Ok();
    }
    if (!result->status().IsUnavailable()) {
      return result->status();
    }
    loop_.RunFor(Millis(200));  // leader moved; retry
  }
  return Status::Unavailable("manager action failed across retries");
}

bool Testbed::SpawnManagerAction(std::function<sim::Task<Status>(cluster::Manager&)> action) {
  const int leader = LeaderManager();
  if (leader < 0) {
    return false;
  }
  managers_[leader].machine.actor().Spawn(
      [](cluster::Manager* m,
         std::function<sim::Task<Status>(cluster::Manager&)> action) -> sim::Task<> {
        Status s = co_await action(*m);
        if (!s.ok()) {
          LOG_DEBUG << "manager action: " << s.ToString();
        }
      }(&manager(leader), std::move(action)));
  return true;
}

Status Testbed::Boot() {
  for (int i = 0; i < num_managers(); ++i) {
    StartManager(i);
  }
  // Elect a leader.
  const Nanos deadline = loop_.Now() + Seconds(10);
  while (LeaderManager() < 0 && loop_.Now() < deadline) {
    loop_.RunFor(Millis(50));
  }
  if (LeaderManager() < 0) {
    return Status::Unavailable("no manager leader elected");
  }
  // Bootstrap topology.
  cluster::BootstrapSpec spec;
  spec.pg_count = config_.pg_count;
  spec.replication = config_.replication;
  for (auto& m : metas_) {
    spec.meta_servers.push_back(m.machine.node_id());
  }
  for (auto& d : datas_) {
    spec.data_servers.push_back(d.machine.node_id());
  }
  spec.disks_per_data_server = config_.disks_per_data_machine;
  spec.pvs_per_disk = config_.pvs_per_disk;
  spec.lv_capacity_bytes = config_.lv_capacity_bytes;
  spec.block_size = config_.block_size;
  spec.ec_k = config_.options.tier.ec_k;
  spec.ec_m = config_.options.tier.ec_m;
  RETURN_IF_ERROR(RunManagerAction(
      [spec](cluster::Manager& m) { return m.Bootstrap(spec); }));

  // Start the data plane.
  for (auto& m : metas_) {
    m.server->Start();
  }
  for (auto& d : datas_) {
    d.server->Start();
  }
  for (auto& p : proxies_) {
    p.server->Start();
  }
  loop_.RunFor(config_.boot_warmup);

  for (auto& m : metas_) {
    if (!m.server->HasLease() || m.server->view() == 0) {
      return Status::Unavailable("meta server failed to come up");
    }
  }
  return Status::Ok();
}

Status Testbed::PutObject(int proxy, std::string name, std::string data) {
  auto result = std::make_shared<Status>(Status::Internal("unresolved"));
  const bool done = RunOnProxy(proxy, [name = std::move(name), data = std::move(data),
                                       result](ClientProxy& p) -> sim::Task<> {
    *result = co_await p.Put(name, data);
  });
  return done ? *result : Status::Timeout("put did not resolve in budget");
}

Result<std::string> Testbed::GetObject(int proxy, std::string name) {
  auto result =
      std::make_shared<Result<std::string>>(Status::Internal("unresolved"));
  const bool done =
      RunOnProxy(proxy, [name = std::move(name), result](ClientProxy& p) -> sim::Task<> {
        *result = co_await p.Get(name);
      });
  if (!done) {
    return Status::Timeout("get did not resolve in budget");
  }
  return *result;
}

Status Testbed::DeleteObject(int proxy, std::string name) {
  auto result = std::make_shared<Status>(Status::Internal("unresolved"));
  const bool done =
      RunOnProxy(proxy, [name = std::move(name), result](ClientProxy& p) -> sim::Task<> {
        *result = co_await p.Delete(name);
      });
  return done ? *result : Status::Timeout("delete did not resolve in budget");
}

void Testbed::CrashMetaMachine(int i, bool power_loss) { metas_.at(i).Crash(power_loss); }

void Testbed::RestartMetaMachine(int i) {
  auto& host = metas_.at(i);
  host.Revive();
  host.server = std::make_unique<MetaServer>(host.rpc, config_.options, manager_nodes_,
                                             0xfeed + i);
  host.server->Start();
}

void Testbed::CrashDataMachine(int i, bool power_loss) { datas_.at(i).Crash(power_loss); }

void Testbed::RestartDataMachine(int i) {
  auto& host = datas_.at(i);
  host.Revive();
  host.server = std::make_unique<DataServer>(host.rpc, config_.options, manager_nodes_);
  host.server->Start();
}

void Testbed::CrashProxy(int i) { proxies_.at(i).Crash(/*power_loss=*/false); }

void Testbed::RestartProxy(int i) {
  auto& host = proxies_.at(i);
  host.Revive();
  host.server = std::make_unique<ClientProxy>(host.rpc, config_.options, manager_nodes_,
                                              static_cast<uint32_t>(i + 1));
  host.server->Start();
}

void Testbed::CrashManager(int i, bool power_loss) { managers_.at(i).Crash(power_loss); }

void Testbed::RestartManager(int i) {
  auto& host = managers_.at(i);
  host.Revive();
  raft::Config raft_config;
  raft_config.members = manager_nodes_;
  host.server = std::make_unique<cluster::Manager>(host.rpc, host.machine.disk(), raft_config,
                                                   0xbeef + i);
  StartManager(i);
}

std::vector<sim::NodeId> Testbed::AllNodes() const {
  std::vector<sim::NodeId> out;
  auto add = [&out](const auto& hosts) {
    for (const auto& host : hosts) {
      out.push_back(host.machine.node_id());
    }
  };
  add(managers_);
  add(metas_);
  add(datas_);
  add(proxies_);
  return out;
}

void Testbed::Isolate(sim::NodeId node) {
  for (sim::NodeId other : AllNodes()) {
    if (other != node) {
      net_.SetPartitioned(node, other, true);
    }
  }
}

template <typename Fn>
void Testbed::VisitHost(sim::NodeId node, Fn fn) {
  auto visit = [&](auto& hosts) {
    for (size_t i = 0; i < hosts.size(); ++i) {
      if (hosts[i].machine.node_id() == node) {
        fn(hosts[i], static_cast<int>(i));
        return true;
      }
    }
    return false;
  };
  (void)(visit(metas_) || visit(datas_) || visit(managers_) || visit(proxies_));
}

void Testbed::Crash(sim::NodeId node, bool power_loss) {
  VisitHost(node, [power_loss]<typename Server>(rpc::Host<Server>& host, int) {
    if (host.machine.alive()) {
      host.Crash(power_loss && !std::is_same_v<Server, ClientProxy>);
    }
  });
}

void Testbed::Restart(sim::NodeId node) {
  VisitHost(node, [this]<typename Server>(rpc::Host<Server>& host, int i) {
    if (host.machine.alive()) {
      return;
    }
    if constexpr (std::is_same_v<Server, MetaServer>) {
      RestartMetaMachine(i);
    } else if constexpr (std::is_same_v<Server, DataServer>) {
      RestartDataMachine(i);
    } else if constexpr (std::is_same_v<Server, cluster::Manager>) {
      RestartManager(i);
    } else {
      RestartProxy(i);
    }
  });
}

Result<int> Testbed::AddMetaMachine(bool settle) {
  auto& host = AddMetaHost(num_meta());
  const sim::NodeId id = host.machine.node_id();
  host.server->Start();
  Status s = RunManagerAction(
      [id](cluster::Manager& m) { return m.AddMetaServer(id); });
  if (!s.ok()) {
    return s;
  }
  if (settle) {
    loop_.RunFor(Seconds(1));  // let adoption/pulls settle
  }
  return static_cast<int>(metas_.size() - 1);
}

int Testbed::BeginAddMetaMachine() {
  auto& host = AddMetaHost(num_meta());
  const sim::NodeId id = host.machine.node_id();
  host.server->Start();
  (void)SpawnManagerAction(
      [id](cluster::Manager& m) { return m.AddMetaServer(id); });
  return static_cast<int>(metas_.size() - 1);
}

int Testbed::BeginAddDataMachine(uint32_t disks, uint32_t pvs_per_disk) {
  auto& host = AddDataHost(disks);
  const sim::NodeId id = host.machine.node_id();
  host.server->Start();
  (void)SpawnManagerAction([id, disks, pvs_per_disk](cluster::Manager& m) {
    return m.AddDataServer(id, disks, pvs_per_disk);
  });
  return static_cast<int>(datas_.size() - 1);
}

bool Testbed::BeginDrainMetaMachine(int i) {
  const sim::NodeId node = meta_node(i);
  return SpawnManagerAction(
      [node](cluster::Manager& m) { return m.DrainMetaServer(node); });
}

Status Testbed::DrainMetaMachine(int i, Nanos budget) {
  const sim::NodeId node = meta_node(i);
  if (!BeginDrainMetaMachine(i)) {
    return Status::Unavailable("no manager leader to start the drain");
  }
  const Nanos deadline = loop_.Now() + budget;
  while (loop_.Now() < deadline) {
    const int leader = LeaderManager();
    if (leader >= 0) {
      const cluster::TopologyMap& topo = manager(leader).topology();
      if (topo.IsRetired(node)) {
        return Status::Ok();
      }
      // Aborted: the drain target died mid-drain and was evicted instead.
      if (!topo.meta_crush.HasItem(node) && !topo.IsDraining(node)) {
        return Status::Unavailable("drain target evicted before retirement");
      }
    }
    loop_.RunFor(Millis(50));
  }
  return Status::Timeout("drain did not complete in budget");
}

Result<int> Testbed::AddDataMachine(uint32_t disks, uint32_t pvs_per_disk) {
  auto& host = AddDataHost(disks);
  const sim::NodeId id = host.machine.node_id();
  host.server->Start();
  Status s = RunManagerAction([id, disks, pvs_per_disk](cluster::Manager& m) {
    return m.AddDataServer(id, disks, pvs_per_disk);
  });
  if (!s.ok()) {
    return s;
  }
  loop_.RunFor(Seconds(1));
  return static_cast<int>(datas_.size() - 1);
}

}  // namespace cheetah::core
