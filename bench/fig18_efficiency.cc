// Fig. 18: storage efficiency — total live object bytes divided by the
// capacity actually occupied on the data servers — sampled at the end of
// each day of the trace replay. With raw-block allocation and immediate
// reclamation, Cheetah stays above ~85% (the loss is block-rounding
// fragmentation); the dips in the paper come from scheduled batch deletes,
// which we reproduce at the end of each week.
#include "bench/bench_util.h"

int main() {
  using namespace cheetah;
  using namespace cheetah::bench;

  auto bench = MakeCheetah();
  auto sizes = workload::TraceSize();
  workload::NamePool pool("eff-");
  auto days = workload::TraceOpRatios(21);
  auto live = std::make_shared<std::map<std::string, uint64_t>>();

  PrintTitle("Fig. 18: storage efficiency at end of day (%)");
  PrintTableHeader({"day", "live bytes", "occupied bytes", "efficiency"});
  const uint64_t ops_per_day = ScaledOps(700);
  for (size_t d = 0; d < days.size(); ++d) {
    workload::MixedWorkload mix(days[d].put_ratio, days[d].delete_ratio, sizes, &pool);
    workload::RunnerConfig config;
    config.concurrency = 40;
    config.total_ops = ops_per_day;
    workload::Runner runner(bench.loop(), bench.clients, config);
    auto pending_sizes = std::make_shared<std::map<std::string, uint64_t>>();
    (void)runner.Run(
        [&mix, live, pending_sizes](Rng& rng) {
          workload::Op op = mix.Next(rng);
          if (op.type == workload::OpType::kPut) {
            (*pending_sizes)[op.name] = op.size;
          } else if (op.type == workload::OpType::kDelete) {
            live->erase(op.name);
          }
          return op;
        },
        [&pool, live, pending_sizes](const std::string& name) {
          pool.Add(name);
          auto it = pending_sizes->find(name);
          if (it != pending_sizes->end()) {
            (*live)[name] = it->second;
            pending_sizes->erase(it);
          }
        });
    // Weekly scheduled batch delete (the paper's dips).
    if ((d + 1) % 7 == 0 && !live->empty()) {
      std::vector<std::string> victims;
      size_t count = live->size() / 3;
      for (const auto& [name, size] : *live) {
        if (victims.size() >= count) {
          break;
        }
        victims.push_back(name);
      }
      for (const auto& name : victims) {
        live->erase(name);
      }
      (void)RunDeletes(bench.loop(), bench.clients, victims, victims.size(), 40);
    }
    bench.cluster->RunFor(Seconds(1));  // cleaner/bitmap sync

    uint64_t live_bytes = 0;
    for (const auto& [name, size] : *live) {
      live_bytes += size;
    }
    // Occupied = block-rounded extents actually held on the devices, counted
    // once per logical volume (replicas store identical data).
    uint64_t occupied = 0;
    const auto& topo = bench.cluster->meta(0).topology();
    for (int i = 0; i < bench.cluster->num_data(); ++i) {
      auto& machine = bench.cluster->data_machine(i);
      for (const auto& [pv_id, pv] : topo.pvs) {
        if (pv.data_server != machine.node_id()) {
          continue;
        }
        for (const auto& info : machine.disk(pv.disk_index % machine.num_disks())
                                    .ListVolumeExtents(pv.DeviceName())) {
          occupied += ((info.length + 4095) / 4096) * 4096;
        }
      }
    }
    occupied /= topo.replication;
    const double eff = occupied > 0 ? 100.0 * static_cast<double>(live_bytes) /
                                          static_cast<double>(occupied)
                                    : 100.0;
    std::printf("%-18zu%-18llu%-18llu%-18.1f\n", d + 1,
                static_cast<unsigned long long>(live_bytes),
                static_cast<unsigned long long>(occupied), eff);
    std::fflush(stdout);
  }
  DumpObsJson("fig18_efficiency");
  return 0;
}
