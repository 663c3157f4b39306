// Consistency sweep: Lemma 1/2 of the paper's Appendix A, checked
// empirically. Traffic runs while a fault is injected; afterwards every
// acknowledged put must be fully readable with byte-correct content, every
// acknowledged delete must stay deleted, and unacknowledged puts must be
// all-or-nothing. Parameterized over Cheetah variants x fault kinds.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "src/core/testbed.h"
#include "tests/test_util.h"

namespace cheetah::core {
namespace {

enum class Fault {
  kNone,
  kMetaCrash,
  kMetaPowerLoss,
  kDataCrash,
  kProxyCrash,
  kManagerCrash,
};

enum class Variant { kBase, kOrderedWrites, kFsBacked };

struct Param {
  Variant variant;
  Fault fault;
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<Param>& info) {
  std::string out;
  switch (info.param.variant) {
    case Variant::kBase:
      out = "Base";
      break;
    case Variant::kOrderedWrites:
      out = "OW";
      break;
    case Variant::kFsBacked:
      out = "FS";
      break;
  }
  switch (info.param.fault) {
    case Fault::kNone:
      out += "NoFault";
      break;
    case Fault::kMetaCrash:
      out += "MetaCrash";
      break;
    case Fault::kMetaPowerLoss:
      out += "MetaPower";
      break;
    case Fault::kDataCrash:
      out += "DataCrash";
      break;
    case Fault::kProxyCrash:
      out += "ProxyCrash";
      break;
    case Fault::kManagerCrash:
      out += "ManagerCrash";
      break;
  }
  return out + "Seed" + std::to_string(info.param.seed);
}

class ConsistencySweep : public ::testing::TestWithParam<Param> {};

TEST_P(ConsistencySweep, AckedOperationsSurviveFaults) {
  const Param p = GetParam();
  TestbedConfig config;
  config.meta_machines = 4;  // PGs on 3 of 4: crashes force pulls
  config.data_machines = 4;
  config.proxies = 3;  // proxy 2 is the crash victim; 0/1 drive traffic
  config.pg_count = 8;
  config.disks_per_data_machine = 2;
  config.pvs_per_disk = 3;
  config.lv_capacity_bytes = MiB(128);
  switch (p.variant) {
    case Variant::kBase:
      break;
    case Variant::kOrderedWrites:
      config.options.ordered_writes = true;
      break;
    case Variant::kFsBacked:
      config.options.fs_backed_data = true;
      break;
  }
  Testbed bed(std::move(config));
  ASSERT_TRUE(bed.Boot().ok());

  // Traffic: two proxies putting and occasionally deleting; the ledger
  // records only ACKNOWLEDGED effects.
  auto committed = std::make_shared<std::map<std::string, char>>();
  auto deleted = std::make_shared<std::map<std::string, bool>>();
  auto done_workers = std::make_shared<int>(0);
  for (int w = 0; w < 2; ++w) {
    bed.SpawnOnProxy(w, [w, committed, deleted, seed = p.seed,
                       done_workers](ClientProxy& proxy) -> sim::Task<> {
      Rng rng(seed * 17 + w);
      for (int i = 0; i < 40; ++i) {
        const std::string name = "w" + std::to_string(w) + "-" + std::to_string(i);
        const char fill = static_cast<char>('a' + (i + w) % 26);
        Status s = co_await proxy.Put(name, std::string(4096, fill));
        if (s.ok()) {
          (*committed)[name] = fill;
          if (rng.Bernoulli(0.25)) {
            Status d = co_await proxy.Delete(name);
            if (d.ok()) {
              (*deleted)[name] = true;
            } else if (d.IsNotFound()) {
              // A timed-out first attempt may have landed server-side; the
              // retry then observes NotFound. Either outcome is consistent.
              (*deleted)[name] = false;  // false = "maybe deleted"
            }
          }
        }
      }
      ++*done_workers;
    });
  }
  // A doomed in-flight put on proxy 2 (interesting for the proxy-crash case).
  bed.SpawnOnProxy(2, [](ClientProxy& proxy) -> sim::Task<> {
    (void)co_await proxy.Put("doomed-object", std::string(262144, 'z'));
  });

  // Run some traffic, inject the fault, keep running.
  bed.RunFor(Millis(30));
  switch (p.fault) {
    case Fault::kNone:
      break;
    case Fault::kMetaCrash:
      bed.CrashMetaMachine(static_cast<int>(p.seed % 4), false);
      break;
    case Fault::kMetaPowerLoss:
      bed.CrashMetaMachine(static_cast<int>(p.seed % 4), true);
      break;
    case Fault::kDataCrash:
      bed.CrashDataMachine(static_cast<int>(p.seed % 4), false);
      break;
    case Fault::kProxyCrash:
      bed.CrashProxy(2);
      break;
    case Fault::kManagerCrash: {
      const int leader = bed.LeaderManager();
      if (leader >= 0) {
        bed.CrashManager(leader, false);
      }
      break;
    }
  }
  bed.loop().RunUntilDone([&] { return *done_workers == 2; }, Seconds(60));
  ASSERT_EQ(*done_workers, 2) << "traffic did not complete after the fault";
  bed.RunFor(Seconds(4));  // recovery + cleaner settle

  // Lemma 1: every committed (and not deleted) put is readable with the
  // exact bytes that were written; every acknowledged delete stays deleted.
  for (const auto& [name, fill] : *committed) {
    auto got = bed.GetObject(0, name);
    if (auto it = deleted->find(name); it != deleted->end()) {
      if (it->second) {
        EXPECT_TRUE(got.status().IsNotFound()) << name << " resurrected";
      } else if (!got.ok()) {
        EXPECT_TRUE(got.status().IsNotFound()) << name;  // maybe-deleted
      }
      continue;
    }
    ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
    ASSERT_EQ(got->size(), 4096u) << name;
    EXPECT_EQ((*got)[0], fill) << name;
    EXPECT_EQ((*got)[4095], fill) << name;
  }
  // The doomed object is all-or-nothing.
  auto doomed = bed.GetObject(1, "doomed-object");
  if (doomed.ok()) {
    EXPECT_EQ(doomed->size(), 262144u);
  } else {
    EXPECT_TRUE(doomed.status().IsNotFound()) << doomed.status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ConsistencySweep,
    ::testing::Values(
        Param{Variant::kBase, Fault::kNone, 1}, Param{Variant::kBase, Fault::kMetaCrash, 1},
        Param{Variant::kBase, Fault::kMetaCrash, 2},
        Param{Variant::kBase, Fault::kMetaPowerLoss, 3},
        Param{Variant::kBase, Fault::kDataCrash, 1},
        Param{Variant::kBase, Fault::kDataCrash, 2},
        Param{Variant::kBase, Fault::kProxyCrash, 1},
        Param{Variant::kBase, Fault::kManagerCrash, 1},
        Param{Variant::kOrderedWrites, Fault::kNone, 1},
        Param{Variant::kOrderedWrites, Fault::kMetaCrash, 1},
        Param{Variant::kOrderedWrites, Fault::kDataCrash, 1},
        Param{Variant::kFsBacked, Fault::kNone, 1},
        Param{Variant::kFsBacked, Fault::kMetaPowerLoss, 1},
        Param{Variant::kFsBacked, Fault::kProxyCrash, 2}),
    ParamName);

}  // namespace
}  // namespace cheetah::core
