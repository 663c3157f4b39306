#include <gtest/gtest.h>

#include "tests/test_util.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/units.h"
#include "src/kv/db.h"
#include "src/sim/actor.h"
#include "src/sim/event_loop.h"
#include "src/sim/storage.h"

namespace cheetah::kv {
namespace {

using sim::Actor;
using sim::EventLoop;
using sim::Storage;
using sim::Task;

class KvTest : public ::testing::Test {
 public:
  KvTest() : actor_(loop_), storage_(loop_, sim::DiskParams{}) {}

  // Runs a coroutine against a DB opened with `options` and drains the loop.
  void Run(Options options, std::function<Task<>(DB*)> body) {
    actor_.Spawn([](KvTest* self, Options opts, std::function<Task<>(DB*)> body) -> Task<> {
      auto db = co_await DB::Open(std::move(opts), &self->storage_);
      CO_ASSERT_OK(db);
      self->db_ = std::move(*db);
      co_await body(self->db_.get());
    }(this, std::move(options), std::move(body)));
    loop_.Run();
  }

  Options SmallOptions() {
    Options o;
    o.memtable_bytes = 4096;  // flush often
    o.l0_compaction_trigger = 3;
    return o;
  }

  EventLoop loop_;
  Actor actor_;
  Storage storage_;
  std::unique_ptr<DB> db_;
};

TEST_F(KvTest, PutGetRoundTrip) {
  Run(Options{}, [](DB* db) -> Task<> {
    EXPECT_TRUE((co_await db->Put("k1", "v1")).ok());
    auto v = co_await db->Get("k1");
    CO_ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "v1");
  });
}

TEST_F(KvTest, GetMissingIsNotFound) {
  Run(Options{}, [](DB* db) -> Task<> {
    auto v = co_await db->Get("nope");
    EXPECT_TRUE(v.status().IsNotFound());
  });
}

TEST_F(KvTest, DeleteHidesKey) {
  Run(Options{}, [](DB* db) -> Task<> {
    (void)co_await db->Put("k", "v");
    (void)co_await db->Delete("k");
    auto v = co_await db->Get("k");
    EXPECT_TRUE(v.status().IsNotFound());
  });
}

TEST_F(KvTest, OverwriteTakesLatest) {
  Run(Options{}, [](DB* db) -> Task<> {
    (void)co_await db->Put("k", "v1");
    (void)co_await db->Put("k", "v2");
    auto v = co_await db->Get("k");
    CO_ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "v2");
  });
}

TEST_F(KvTest, BatchIsAtomicInMemory) {
  Run(Options{}, [](DB* db) -> Task<> {
    WriteBatch batch;
    batch.Put("a", "1");
    batch.Put("b", "2");
    batch.Delete("c");
    (void)co_await db->Put("c", "preexisting");
    EXPECT_TRUE((co_await db->Write(std::move(batch))).ok());
    EXPECT_EQ((co_await db->Get("a")).value_or("X"), "1");
    EXPECT_EQ((co_await db->Get("b")).value_or("X"), "2");
    EXPECT_TRUE((co_await db->Get("c")).status().IsNotFound());
  });
}

TEST_F(KvTest, FlushAndReadFromTables) {
  Run(SmallOptions(), [](DB* db) -> Task<> {
    for (int i = 0; i < 100; ++i) {
      (void)co_await db->Put("key" + std::to_string(i), std::string(100, 'v'));
    }
    co_await db->WaitForMaintenance();
    EXPECT_GT(db->counters().flushes->value(), 0u);
    for (int i = 0; i < 100; ++i) {
      auto v = co_await db->Get("key" + std::to_string(i));
      CO_ASSERT_TRUE(v.ok());
      EXPECT_EQ(v->size(), 100u);
    }
  });
}

TEST_F(KvTest, CompactionPreservesData) {
  Run(SmallOptions(), [](DB* db) -> Task<> {
    for (int i = 0; i < 400; ++i) {
      (void)co_await db->Put("key" + std::to_string(i % 50), "gen" + std::to_string(i));
    }
    co_await db->WaitForMaintenance();
    EXPECT_GT(db->counters().compactions->value(), 0u);
    for (int i = 0; i < 50; ++i) {
      auto v = co_await db->Get("key" + std::to_string(i));
      CO_ASSERT_TRUE(v.ok());
      EXPECT_EQ(*v, "gen" + std::to_string(350 + i));
    }
  });
}

TEST_F(KvTest, CompactionDropsDeletedKeys) {
  Run(SmallOptions(), [](DB* db) -> Task<> {
    for (int i = 0; i < 100; ++i) {
      (void)co_await db->Put("key" + std::to_string(i), std::string(100, 'v'));
    }
    for (int i = 0; i < 100; ++i) {
      (void)co_await db->Delete("key" + std::to_string(i));
    }
    for (int i = 0; i < 200; ++i) {  // force flush+compaction cycles
      (void)co_await db->Put("other" + std::to_string(i), std::string(100, 'w'));
    }
    co_await db->WaitForMaintenance();
    EXPECT_EQ(db->CountLiveEntries(), 200u);
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE((co_await db->Get("key" + std::to_string(i))).status().IsNotFound());
    }
  });
}

TEST_F(KvTest, ScanByPrefix) {
  Run(Options{}, [](DB* db) -> Task<> {
    (void)co_await db->Put("OBMETA_obj1", "m1");
    (void)co_await db->Put("OBMETA_obj2", "m2");
    (void)co_await db->Put("PGLOG_1_1", "l1");
    (void)co_await db->Put("OBMETA_obj3", "m3");
    (void)co_await db->Delete("OBMETA_obj2");
    auto rows = co_await db->Scan("OBMETA_", 0);
    CO_ASSERT_TRUE(rows.ok());
    CO_ASSERT_EQ(rows->size(), 2u);
    EXPECT_EQ((*rows)[0].first, "OBMETA_obj1");
    EXPECT_EQ((*rows)[1].first, "OBMETA_obj3");
  });
}

TEST_F(KvTest, ScanSpansMemtableAndTables) {
  Run(SmallOptions(), [](DB* db) -> Task<> {
    for (int i = 0; i < 60; ++i) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "p_%03d", i);
      (void)co_await db->Put(buf, std::string(100, 'v'));
    }
    co_await db->WaitForMaintenance();
    for (int i = 60; i < 70; ++i) {  // these stay in the memtable
      char buf[16];
      std::snprintf(buf, sizeof(buf), "p_%03d", i);
      (void)co_await db->Put(buf, "fresh");
    }
    auto rows = co_await db->Scan("p_", 0);
    CO_ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 70u);
  });
}

TEST_F(KvTest, ScanLimit) {
  Run(Options{}, [](DB* db) -> Task<> {
    for (int i = 0; i < 20; ++i) {
      (void)co_await db->Put("k" + std::to_string(i), "v");
    }
    auto rows = co_await db->Scan("k", 5);
    CO_ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 5u);
  });
}

TEST_F(KvTest, ReopenRecoversFromWal) {
  Run(Options{}, [](DB* db) -> Task<> {
    (void)co_await db->Put("persist1", "v1");
    (void)co_await db->Put("persist2", "v2");
  });
  db_.reset();
  Run(Options{}, [](DB* db) -> Task<> {
    EXPECT_EQ((co_await db->Get("persist1")).value_or("X"), "v1");
    EXPECT_EQ((co_await db->Get("persist2")).value_or("X"), "v2");
  });
}

TEST_F(KvTest, ReopenRecoversFromTablesAndWal) {
  Run(SmallOptions(), [](DB* db) -> Task<> {
    for (int i = 0; i < 150; ++i) {
      (void)co_await db->Put("key" + std::to_string(i), "val" + std::to_string(i));
    }
    co_await db->WaitForMaintenance();
  });
  db_.reset();
  Run(SmallOptions(), [](DB* db) -> Task<> {
    for (int i = 0; i < 150; ++i) {
      EXPECT_EQ((co_await db->Get("key" + std::to_string(i))).value_or("X"),
                "val" + std::to_string(i));
    }
  });
}

TEST_F(KvTest, PowerLossKeepsSyncedWrites) {
  Run(Options{}, [](DB* db) -> Task<> {
    (void)co_await db->Put("durable", "yes");
  });
  db_.reset();
  storage_.PowerLoss();
  Run(Options{}, [](DB* db) -> Task<> {
    EXPECT_EQ((co_await db->Get("durable")).value_or("X"), "yes");
  });
}

TEST_F(KvTest, PowerLossDropsUnsyncedWrites) {
  Options nosync;
  nosync.sync_wal = false;
  Run(nosync, [](DB* db) -> Task<> {
    (void)co_await db->Put("volatile", "maybe");
  });
  db_.reset();
  storage_.PowerLoss();
  Run(Options{}, [](DB* db) -> Task<> {
    EXPECT_TRUE((co_await db->Get("volatile")).status().IsNotFound());
  });
}

TEST_F(KvTest, PowerLossPreservesBatchAtomicity) {
  // Write batches, kill power at a random instant mid-traffic, reopen, and
  // verify each batch is all-or-nothing.
  Options options;
  options.memtable_bytes = 8192;
  actor_.Spawn([](KvTest* self, Options opts) -> Task<> {
    auto db = co_await DB::Open(std::move(opts), &self->storage_);
    CO_ASSERT_OK(db);
    self->db_ = std::move(*db);
    for (int b = 0; b < 50; ++b) {
      WriteBatch batch;
      batch.Put("batch" + std::to_string(b) + "_a", std::to_string(b));
      batch.Put("batch" + std::to_string(b) + "_b", std::to_string(b));
      (void)co_await self->db_->Write(std::move(batch));
    }
  }(this, options));
  loop_.RunFor(Millis(2));  // cut power mid-stream
  db_.reset();
  actor_.Kill();
  storage_.PowerLoss();
  actor_.Revive();

  Run(Options{}, [](DB* db) -> Task<> {
    for (int b = 0; b < 50; ++b) {
      auto a = co_await db->Get("batch" + std::to_string(b) + "_a");
      auto bb = co_await db->Get("batch" + std::to_string(b) + "_b");
      EXPECT_EQ(a.ok(), bb.ok()) << "torn batch " << b;
      if (a.ok()) {
        EXPECT_EQ(*a, std::to_string(b));
        EXPECT_EQ(*bb, std::to_string(b));
      }
    }
  });
}

TEST_F(KvTest, CrashDuringFlushLosesNothing) {
  Options options = SmallOptions();
  actor_.Spawn([](KvTest* self, Options opts) -> Task<> {
    auto db = co_await DB::Open(std::move(opts), &self->storage_);
    CO_ASSERT_OK(db);
    self->db_ = std::move(*db);
    for (int i = 0; i < 300; ++i) {
      (void)co_await self->db_->Put("k" + std::to_string(i), std::string(80, 'x'));
    }
  }(this, options));
  // Stop at an arbitrary point where flushes/compactions are in flight.
  loop_.RunFor(Millis(5));
  const uint64_t live_before = db_ ? db_->CountLiveEntries() : 0;
  db_.reset();
  actor_.Kill();
  storage_.PowerLoss();
  actor_.Revive();

  Run(SmallOptions(), [live_before](DB* db) -> Task<> {
    EXPECT_GE(db->CountLiveEntries(), live_before);
    co_return;
  });
}

TEST_F(KvTest, ConcurrentWritersAllLand) {
  Run(SmallOptions(), [this](DB* db) -> Task<> {
    sim::Actor* actor = co_await sim::CurrentActor{};
    auto latch = std::make_shared<sim::Latch>(10);
    for (int w = 0; w < 10; ++w) {
      actor->Spawn([](DB* db, int w, std::shared_ptr<sim::Latch> l) -> Task<> {
        for (int i = 0; i < 30; ++i) {
          (void)co_await db->Put("w" + std::to_string(w) + "_" + std::to_string(i),
                                 std::string(64, 'd'));
        }
        l->CountDown();
      }(db, w, latch));
    }
    co_await latch->Wait();
    co_await db->WaitForMaintenance();
    EXPECT_EQ(db->CountLiveEntries(), 300u);
  });
}

TEST_F(KvTest, StatsTrackActivity) {
  Run(SmallOptions(), [](DB* db) -> Task<> {
    for (int i = 0; i < 200; ++i) {
      (void)co_await db->Put("k" + std::to_string(i), std::string(100, 'v'));
    }
    (void)co_await db->Get("k0");
    co_await db->WaitForMaintenance();
    EXPECT_EQ(db->counters().writes->value(), 200u);
    EXPECT_GE(db->counters().gets->value(), 1u);
    EXPECT_GT(db->counters().flushes->value(), 0u);
    EXPECT_GT(db->counters().wal_bytes->value(), 0u);
  });
}

TEST_F(KvTest, SmallerBufferFlushesMoreOften) {
  uint64_t flushes_small = 0;
  {
    Options o;
    o.memtable_bytes = 2048;
    Run(o, [&flushes_small](DB* db) -> Task<> {
      for (int i = 0; i < 100; ++i) {
        (void)co_await db->Put("k" + std::to_string(i), std::string(100, 'v'));
      }
      co_await db->WaitForMaintenance();
      flushes_small = db->counters().flushes->value();
    });
  }
  // Fresh storage for an independent run.
  EventLoop loop2;
  Actor actor2(loop2);
  Storage storage2(loop2, sim::DiskParams{});
  uint64_t flushes_large = 0;
  actor2.Spawn([](Storage* st, uint64_t* out) -> Task<> {
    Options o;
    o.memtable_bytes = MiB(64);
    auto db = co_await DB::Open(std::move(o), st);
    CO_ASSERT_OK(db);
    for (int i = 0; i < 100; ++i) {
      (void)co_await (*db)->Put("k" + std::to_string(i), std::string(100, 'v'));
    }
    co_await (*db)->WaitForMaintenance();
    *out = (*db)->counters().flushes->value();
  }(&storage2, &flushes_large));
  loop2.Run();
  EXPECT_GT(flushes_small, flushes_large);
}

// ---- group commit ----

// Spawns `n` writers that each put one key ("g<i>") and counts those acked.
Task<> PutConcurrently(DB* db, int n, std::shared_ptr<int> acked) {
  sim::Actor* actor = co_await sim::CurrentActor{};
  auto latch = std::make_shared<sim::Latch>(n);
  for (int i = 0; i < n; ++i) {
    actor->Spawn([](DB* db, int i, std::shared_ptr<int> acked,
                    std::shared_ptr<sim::Latch> l) -> Task<> {
      if ((co_await db->Put("g" + std::to_string(i), "v" + std::to_string(i))).ok()) {
        ++*acked;
      }
      l->CountDown();
    }(db, i, acked, latch));
  }
  co_await latch->Wait();
}

TEST_F(KvTest, LoneWriterPaysOneAppendAndOneFsync) {
  Run(Options{}, [this](DB* db) -> Task<> {
    const Nanos start = loop_.Now();
    EXPECT_TRUE((co_await db->Put("k", "v")).ok());
    const sim::DiskParams& p = storage_.params();
    const uint64_t bytes = db->counters().wal_bytes->value();
    const auto transfer = static_cast<Nanos>(static_cast<double>(bytes) /
                                             p.write_bw_bytes_per_sec * 1e9);
    EXPECT_EQ(loop_.Now() - start, p.write_base + transfer + p.fsync_base);
    EXPECT_EQ(db->counters().wal_syncs->value(), 1u);
  });
}

TEST_F(KvTest, ConcurrentWritersShareWalSyncs) {
  ASSERT_EQ(storage_.params().channels, 8);
  Run(Options{}, [](DB* db) -> Task<> {
    auto acked = std::make_shared<int>(0);
    co_await PutConcurrently(db, 64, acked);
    EXPECT_EQ(*acked, 64);
    EXPECT_EQ(db->CountLiveEntries(), 64u);
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ((co_await db->Get("g" + std::to_string(i))).value_or("X"),
                "v" + std::to_string(i));
    }
    EXPECT_EQ(db->counters().writes->value(), 64u);
    EXPECT_LT(db->counters().wal_syncs->value(), 64u);
  });
}

TEST_F(KvTest, PowerLossMidGroupKeepsEveryAckedBatch) {
  // 64 writers, each committing 4 two-key batches; power fails while groups
  // are in flight. Every acked batch must survive, and none may be torn.
  constexpr int kWriters = 64;
  constexpr int kBatches = 4;
  auto acked = std::make_shared<std::vector<int>>(kWriters, 0);
  actor_.Spawn([](KvTest* self, std::shared_ptr<std::vector<int>> acked) -> Task<> {
    auto db = co_await DB::Open(Options{}, &self->storage_);
    CO_ASSERT_OK(db);
    self->db_ = std::move(*db);
    sim::Actor* actor = co_await sim::CurrentActor{};
    for (int w = 0; w < kWriters; ++w) {
      actor->Spawn([](DB* db, int w, std::shared_ptr<std::vector<int>> acked) -> Task<> {
        for (int b = 0; b < kBatches; ++b) {
          const std::string id = std::to_string(w) + "_" + std::to_string(b);
          WriteBatch batch;
          batch.Put("pl" + id + "_a", id);
          batch.Put("pl" + id + "_b", id);
          if (!(co_await db->Write(std::move(batch))).ok()) {
            co_return;
          }
          (*acked)[w] = b + 1;
        }
      }(self->db_.get(), w, acked));
    }
  }(this, acked));
  loop_.RunFor(Micros(175));  // inside a group's append-to-fsync window
  int total_acked = 0;
  for (int n : *acked) {
    total_acked += n;
  }
  ASSERT_GT(total_acked, 0);
  ASSERT_LT(total_acked, kWriters * kBatches);
  // Some writers are still waiting on a group: the cut lands mid-traffic.
  ASSERT_LT(db_->counters().writes->value(), static_cast<uint64_t>(kWriters * kBatches));
  db_.reset();
  actor_.Kill();
  const std::string wal = storage_.ListFiles("db.wal_").front();
  const uint64_t appended = storage_.FileSize(wal);
  storage_.PowerLoss();
  // A group had appended its records but not yet synced them.
  ASSERT_LT(storage_.FileSize(wal), appended);
  actor_.Revive();

  Run(Options{}, [acked](DB* db) -> Task<> {
    for (int w = 0; w < kWriters; ++w) {
      for (int b = 0; b < kBatches; ++b) {
        const std::string id = std::to_string(w) + "_" + std::to_string(b);
        auto a = co_await db->Get("pl" + id + "_a");
        auto bb = co_await db->Get("pl" + id + "_b");
        EXPECT_EQ(a.ok(), bb.ok()) << "torn batch " << id;
        if (b < (*acked)[w]) {
          EXPECT_EQ(a.value_or("X"), id) << "acked batch lost " << id;
          EXPECT_EQ(bb.value_or("X"), id) << "acked batch lost " << id;
        }
      }
    }
  });
}

TEST_F(KvTest, TornTailInsideGroupKeepsEarlierRecords) {
  // 64 writers on 8 channels: writers 0-7 lead single-record groups and the
  // rest queue. The 8 finishing groups hand their slots to writers 8-15;
  // 9-15 run first and append alone, then writer 8 takes the 48 still
  // queued (16-63) into one 49-record group, the WAL's tail, ending in g63.
  Run(Options{}, [](DB* db) -> Task<> {
    auto acked = std::make_shared<int>(0);
    co_await PutConcurrently(db, 64, acked);
    EXPECT_EQ(*acked, 64);
    EXPECT_EQ(db->counters().wal_syncs->value(), 16u);
  });
  db_.reset();
  // Tear the group's final record, as a crash mid-append would.
  actor_.Spawn([](Storage* storage) -> Task<> {
    auto wals = storage->ListFiles("db.wal_");
    CO_ASSERT_EQ(wals.size(), 1u);
    auto data = co_await storage->ReadFile(wals.front());
    CO_ASSERT_OK(data);
    data->resize(data->size() - 3);
    (void)co_await storage->WriteFile(wals.front(), *data, /*sync=*/true);
  }(&storage_));
  loop_.Run();
  Run(Options{}, [](DB* db) -> Task<> {
    EXPECT_EQ(db->recovery_stats().wal_torn_tail, 1u);
    EXPECT_EQ(db->recovery_stats().wal_corrupt_records, 0u);
    EXPECT_EQ(db->recovery_stats().wal_records_replayed, 63u);
    EXPECT_TRUE((co_await db->Get("g63")).status().IsNotFound());
    for (int i = 0; i < 63; ++i) {
      EXPECT_EQ((co_await db->Get("g" + std::to_string(i))).value_or("X"),
                "v" + std::to_string(i));
    }
  });
}

// ---- Bloom filters ----

std::string FilterKey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

TEST_F(KvTest, TombstoneInNewerTableShadowsOlderValue) {
  Options options;
  options.memtable_bytes = 1024;
  options.l0_compaction_trigger = 100;  // keep put and delete in separate tables
  auto body = [](DB* db) -> Task<> {
    auto fill = [db](const std::string& tag) -> Task<> {
      for (int i = 0; i < 20; ++i) {
        (void)co_await db->Put(tag + std::to_string(i), std::string(64, 'f'));
      }
      co_await db->WaitForMaintenance();
    };
    CO_ASSERT_STATUS_OK(co_await db->Put("victim", "v"));
    co_await fill("a");
    CO_ASSERT_STATUS_OK(co_await db->Delete("victim"));
    co_await fill("b");
    EXPECT_TRUE((co_await db->Get("victim")).status().IsNotFound());
  };
  Run(options, body);
  ASSERT_GE(db_->counters().flushes->value(), 2u);
  ASSERT_EQ(db_->counters().compactions->value(), 0u);
  db_.reset();
  Run(options, [](DB* db) -> Task<> {
    EXPECT_TRUE((co_await db->Get("victim")).status().IsNotFound());
  });
}

TEST_F(KvTest, AbsentKeyGetAfterReopenTouchesNoDisk) {
  Options options;
  options.memtable_bytes = 2048;
  options.l0_compaction_trigger = 100;
  Run(options, [](DB* db) -> Task<> {
    for (int i = 0; i < 400; i += 2) {
      (void)co_await db->Put(FilterKey(i), std::string(32, 'v'));
    }
    co_await db->WaitForMaintenance();
  });
  ASSERT_GE(db_->counters().flushes->value(), 2u);
  db_.reset();
  Run(options, [this](DB* db) -> Task<> {
    // A Get suspends on the disk only when it charges a table read.
    const Nanos before = loop_.Now();
    EXPECT_TRUE((co_await db->Get(FilterKey(201))).status().IsNotFound());
    EXPECT_EQ(loop_.Now(), before);
    EXPECT_GT(db->counters().filter_skips->value(), 0u);
    EXPECT_EQ((co_await db->Get(FilterKey(200))).value_or("X"), std::string(32, 'v'));
    EXPECT_GT(loop_.Now(), before);
  });
}

class WriteBatchTest : public ::testing::Test {};

TEST_F(WriteBatchTest, EncodeDecodeRoundTrip) {
  WriteBatch batch;
  batch.Put("key1", "value1");
  batch.Delete("key2");
  batch.Put("key3", std::string(1000, 'z'));
  auto decoded = WriteBatch::Decode(batch.Encode());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_EQ(decoded->ops()[0].key, "key1");
  EXPECT_EQ(*decoded->ops()[0].value, "value1");
  EXPECT_EQ(decoded->ops()[1].key, "key2");
  EXPECT_FALSE(decoded->ops()[1].value.has_value());
  EXPECT_EQ(decoded->ops()[2].value->size(), 1000u);
}

TEST_F(WriteBatchTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(WriteBatch::Decode("\x05garbage").ok());
}

TEST_F(WriteBatchTest, DecodeRejectsTruncation) {
  WriteBatch batch;
  batch.Put("key", "value");
  std::string enc = batch.Encode();
  enc.resize(enc.size() - 3);
  EXPECT_FALSE(WriteBatch::Decode(enc).ok());
}

TEST_F(WriteBatchTest, ByteSizeGrowsWithContent) {
  WriteBatch a, b;
  a.Put("k", "v");
  b.Put("k", std::string(4096, 'v'));
  EXPECT_GT(b.ByteSize(), a.ByteSize());
}

class TableTest : public ::testing::Test {};

TEST_F(TableTest, EncodeDecodeRoundTrip) {
  std::vector<Table::Entry> entries;
  entries.push_back({"alpha", "1"});
  entries.push_back({"beta", std::nullopt});
  entries.push_back({"gamma", "3"});
  Table t("sst_test", entries);
  auto decoded = Table::DecodeEntries(t.Encode());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_EQ((*decoded)[1].key, "beta");
  EXPECT_FALSE((*decoded)[1].value.has_value());
}

TEST_F(TableTest, DecodeRejectsCorruption) {
  std::vector<Table::Entry> entries = {{"k", "v"}};
  Table t("sst", entries);
  std::string enc = t.Encode();
  enc[enc.size() / 2] ^= 0x40;
  EXPECT_FALSE(Table::DecodeEntries(enc).ok());
}

TEST_F(TableTest, FindAndRange) {
  std::vector<Table::Entry> entries = {
      {"a_1", "1"}, {"a_2", "2"}, {"b_1", "3"}, {"b_2", "4"}};
  Table t("sst", entries);
  EXPECT_NE(t.Find("a_2"), nullptr);
  EXPECT_EQ(t.Find("a_3"), nullptr);
  for (const auto& e : entries) {
    EXPECT_TRUE(t.MayContain(e.key)) << e.key;
  }
  EXPECT_FALSE(t.MayContain("zz"));
  EXPECT_EQ(t.PrefixRange("b_").size(), 2u);
  EXPECT_EQ(t.PrefixRange("c_").size(), 0u);
}

TEST_F(TableTest, FilterHasNoFalseNegatives) {
  std::vector<Table::Entry> entries;
  for (int i = 0; i < 10000; ++i) {
    entries.push_back({FilterKey(i), i % 7 == 0 ? std::nullopt : std::optional<std::string>("v")});
  }
  Table t("sst", entries);
  for (const auto& e : entries) {
    ASSERT_TRUE(t.MayContain(e.key)) << e.key;
  }
}

TEST_F(TableTest, FilterFalsePositivesStayUnderTwoPercent) {
  // Even keys stored, odd keys absent: every probe is inside the key range,
  // so only the filter can rule it out.
  std::vector<Table::Entry> entries;
  for (int i = 0; i <= 20000; i += 2) {
    entries.push_back({FilterKey(i), "v"});
  }
  Table t("sst", entries);
  int false_positives = 0;
  for (int i = 1; i < 20000; i += 2) {
    ASSERT_TRUE(t.InRange(FilterKey(i)));
    false_positives += t.MayContain(FilterKey(i));
  }
  EXPECT_LE(false_positives, 200);  // 2% of 10k
}

}  // namespace
}  // namespace cheetah::kv
