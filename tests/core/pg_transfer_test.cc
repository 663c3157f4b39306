// PG state transfer at its seam: the source-ordering rules as a table, and
// the paging/retry coroutine against stub PgPullRequest servers.
#include "src/core/pg_transfer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/messages.h"
#include "src/sim/actor.h"
#include "tests/test_util.h"

namespace cheetah::core {
namespace {

using sim::NodeId;

// ---- source ordering ----

cluster::TopologyMap MapOf(uint64_t view, std::vector<NodeId> metas, uint32_t replication = 3) {
  cluster::TopologyMap map;
  map.view = view;
  map.pg_count = 64;
  map.replication = replication;
  for (NodeId m : metas) {
    map.meta_crush.AddItem(m);
  }
  return map;
}

std::vector<NodeId> Without(std::vector<NodeId> nodes, NodeId drop) {
  std::erase(nodes, drop);
  return nodes;
}

// First PG of `map` whose owner at replica rank `rank` is `node`.
cluster::PgId PgWhere(const cluster::TopologyMap& map, NodeId node, size_t rank) {
  for (cluster::PgId pg = 0; pg < map.pg_count; ++pg) {
    if (map.MetaServersOf(pg).at(rank) == node) {
      return pg;
    }
  }
  ADD_FAILURE() << "no pg has node " << node << " at rank " << rank;
  return 0;
}

TEST(PullSources, BootPullsFromCurrentOwnersOtherThanSelf) {
  const cluster::TopologyMap next = MapOf(1, {1, 2, 3});
  for (cluster::PgId pg = 0; pg < next.pg_count; ++pg) {
    EXPECT_EQ(PullSources(cluster::TopologyMap{}, next, pg, false, 1),
              Without(next.MetaServersOf(pg), 1))
        << "pg " << pg;
  }
}

TEST(PullSources, PlannedMovePullsFromPreviousOwners) {
  const cluster::TopologyMap prev = MapOf(4, {1, 2, 3});
  const cluster::TopologyMap next = MapOf(5, {1, 2, 3, 4});
  for (cluster::PgId pg = 0; pg < next.pg_count; ++pg) {
    EXPECT_EQ(PullSources(prev, next, pg, false, 4), prev.MetaServersOf(pg)) << "pg " << pg;
  }
}

TEST(PullSources, ViewGapPutsCurrentOwnersFirst) {
  const cluster::TopologyMap prev = MapOf(2, {1, 2, 3, 4});
  const cluster::TopologyMap next = MapOf(6, {1, 2, 3, 4, 5});
  const cluster::PgId pg = PgWhere(next, 5, 0);
  std::vector<NodeId> want = Without(next.MetaServersOf(pg), 1);
  for (NodeId s : prev.MetaServersOf(pg)) {
    if (s != 1 && std::find(want.begin(), want.end(), s) == want.end()) {
      want.push_back(s);
    }
  }
  EXPECT_EQ(PullSources(prev, next, pg, true, 1), want);
  EXPECT_EQ(want.front(), 5u);  // a current owner the old map never named
}

TEST(PullSources, EvictedSourceGoesLast) {
  const cluster::TopologyMap prev = MapOf(7, {1, 2, 3});
  const cluster::TopologyMap next = MapOf(8, {2, 3, 4});
  const cluster::PgId pg = PgWhere(prev, 1, 0);  // the evicted node was primary
  std::vector<NodeId> want = Without(prev.MetaServersOf(pg), 1);
  want.push_back(1);
  EXPECT_EQ(PullSources(prev, next, pg, false, 4), want);
}

TEST(PullSources, SelfIsNeverListed) {
  const cluster::TopologyMap prev = MapOf(3, {1, 2, 3});
  const cluster::TopologyMap next = MapOf(5, {1, 2, 4});
  for (cluster::PgId pg = 0; pg < next.pg_count; ++pg) {
    for (bool gap : {false, true}) {
      for (NodeId self : {1u, 2u, 3u, 4u}) {
        const auto sources = PullSources(prev, next, pg, gap, self);
        EXPECT_EQ(std::count(sources.begin(), sources.end(), self), 0)
            << "pg " << pg << " self " << self;
      }
    }
  }
}

TEST(PullSources, SingleMetaHasNoSource) {
  const cluster::TopologyMap next = MapOf(1, {1}, /*replication=*/1);
  for (cluster::PgId pg = 0; pg < next.pg_count; ++pg) {
    EXPECT_TRUE(PullSources(cluster::TopologyMap{}, next, pg, false, 1).empty());
    EXPECT_TRUE(PullSources(next, MapOf(2, {1}, 1), pg, false, 1).empty());
  }
}

// ---- the transfer coroutine ----

// A meta server stand-in that serves one PG from an in-memory row map with
// the real paging contract, or fails every call with `fail`.
struct StubSource {
  StubSource(sim::EventLoop& loop, sim::Network& net, NodeId id)
      : machine(loop, id, "stub", sim::MachineParams{}), node(machine, net) {
    node.Attach();
    node.Serve<PgPullRequest>([this](NodeId, PgPullRequest req) -> sim::Task<Result<PgPullReply>> {
      requests.push_back(req);
      if (!fail.ok()) {
        co_return fail;
      }
      if (req.min_view > view) {
        co_return Status::StaleView("stub behind min_view");
      }
      PgPullReply reply;
      for (auto it = rows.upper_bound(req.start_after); it != rows.end(); ++it) {
        if (reply.kvs.size() == req.limit) {
          reply.next_start_after = reply.kvs.back().first;
          break;
        }
        reply.kvs.emplace_back(it->first, it->second);
      }
      co_return reply;
    });
  }

  sim::Machine machine;
  rpc::Node node;
  std::map<std::string, std::string> rows;
  uint64_t view = 1;
  Status fail;
  std::vector<PgPullRequest> requests;
};

class PgTransferTest : public ::testing::Test {
 protected:
  PgTransferTest()
      : net_(loop_, sim::NetParams{}),
        machine_(loop_, 1, "puller", sim::MachineParams{}),
        node_(machine_, net_) {
    node_.Attach();
  }

  StubSource& AddSource(NodeId id, int rows) {
    sources_.push_back(std::make_unique<StubSource>(loop_, net_, id));
    for (int i = 0; i < rows; ++i) {
      sources_.back()->rows[std::to_string(10000 + i)] = std::to_string(id);
    }
    return *sources_.back();
  }

  PgTransferSpec Spec(std::vector<NodeId> sources) {
    PgTransferSpec spec;
    spec.request.pg = 7;
    spec.request.view = 1;
    spec.sources = std::move(sources);
    spec.rpc_timeout = Millis(500);
    return spec;
  }

  // Records every page it is handed; fails its first `fail_pages` calls.
  PgPageSink Recorder(int fail_pages = 0) {
    auto failures_left = std::make_shared<int>(fail_pages);
    return [this, failures_left](PgPage kvs) -> sim::Task<Status> {
      ++sink_calls_;
      if (*failures_left > 0) {
        --*failures_left;
        co_return Status::IoError("disk full");
      }
      for (auto& [k, v] : kvs) {
        merged_[k] = v;
      }
      co_return Status::Ok();
    };
  }

  Status Run(PgTransferSpec spec, PgPageSink sink) {
    std::optional<Status> out;
    machine_.actor().Spawn([](PgTransferTest* self, PgTransferSpec spec, PgPageSink sink,
                              std::optional<Status>* out) -> sim::Task<> {
      *out = co_await PgTransfer(self->node_, std::move(spec), std::move(sink));
      self->finished_at_ = self->loop_.Now();
    }(this, std::move(spec), std::move(sink), &out));
    loop_.Run();
    EXPECT_TRUE(out.has_value()) << "transfer never finished";
    return out.value_or(Status::Internal("unfinished"));
  }

  sim::EventLoop loop_;
  sim::Network net_;
  sim::Machine machine_;
  rpc::Node node_;
  std::vector<std::unique_ptr<StubSource>> sources_;
  int sink_calls_ = 0;
  Nanos finished_at_ = 0;
  std::map<std::string, std::string> merged_;
};

TEST_F(PgTransferTest, PagesPastOneLimitByCursorIntoTheDb) {
  StubSource& src = AddSource(2, 1300);
  std::unique_ptr<kv::DB> db;
  machine_.actor().Spawn([](sim::Storage* disk, std::unique_ptr<kv::DB>* out) -> sim::Task<> {
    kv::Options options;
    auto opened = co_await kv::DB::Open(std::move(options), disk);
    CO_ASSERT_OK(opened);
    *out = std::move(*opened);
  }(&machine_.disk(0), &db));
  loop_.Run();
  ASSERT_NE(db, nullptr);
  obs::Counter merged;

  const Status pulled = Run(Spec({2}), MergeInto(*db, &merged));
  ASSERT_TRUE(pulled.ok()) << pulled.ToString();
  EXPECT_EQ(merged.value(), 1300u);
  ASSERT_EQ(src.requests.size(), 3u);  // 512 + 512 + 276
  for (const auto& req : src.requests) {
    EXPECT_EQ(req.limit, 512u);
    EXPECT_EQ(req.pg, 7u);
  }
  EXPECT_EQ(src.requests[0].start_after, "");
  EXPECT_EQ(src.requests[1].start_after, "10511");
  EXPECT_EQ(src.requests[2].start_after, "11023");

  PgPage scanned;
  machine_.actor().Spawn([](kv::DB* db, decltype(scanned)* out) -> sim::Task<> {
    auto all = co_await db->Scan("", 0);
    CO_ASSERT_OK(all);
    *out = std::move(*all);
  }(db.get(), &scanned));
  loop_.Run();
  ASSERT_EQ(scanned.size(), 1300u);
  const std::map<std::string, std::string> stored(scanned.begin(), scanned.end());
  EXPECT_EQ(stored, src.rows);
}

TEST_F(PgTransferTest, FailsOverToTheNextSourceOnError) {
  StubSource& down = AddSource(2, 10);
  down.fail = Status::Unavailable("initializing");
  StubSource& up = AddSource(3, 10);

  const Status pulled = Run(Spec({2, 3}), Recorder());
  ASSERT_TRUE(pulled.ok()) << pulled.ToString();
  EXPECT_EQ(down.requests.size(), 1u);
  EXPECT_EQ(up.requests.size(), 1u);
  EXPECT_EQ(merged_, up.rows);
}

TEST_F(PgTransferTest, MinViewStaleViewReachesTheOneRoundCaller) {
  StubSource& src = AddSource(2, 10);
  src.view = 4;
  PgTransferSpec spec = Spec({2});
  spec.request.min_view = 5;

  const Status pulled = Run(std::move(spec), Recorder());
  EXPECT_TRUE(pulled.IsStaleView()) << pulled.ToString();
  ASSERT_EQ(src.requests.size(), 1u);
  EXPECT_EQ(src.requests[0].min_view, 5u);
  EXPECT_TRUE(merged_.empty());
}

TEST_F(PgTransferTest, AbortStopsAMultiRoundPull) {
  StubSource& a = AddSource(2, 10);
  StubSource& b = AddSource(3, 10);
  a.fail = b.fail = Status::Unavailable("initializing");
  PgTransferSpec spec = Spec({2, 3});
  spec.rounds = 4;
  spec.backoff = Millis(100);
  // Fires once the second round has been tried.
  spec.abort = [&a] { return a.requests.size() >= 2; };

  const Status pulled = Run(std::move(spec), Recorder());
  EXPECT_EQ(pulled.code(), ErrorCode::kAborted) << pulled.ToString();
  EXPECT_EQ(a.requests.size(), 2u);
  EXPECT_EQ(b.requests.size(), 2u);
  EXPECT_GE(finished_at_, Millis(100));
  EXPECT_LT(finished_at_, Millis(200));  // one backoff slept, not three
}

TEST_F(PgTransferTest, RoundsRetryAfterBackoffUntilASourceServes) {
  StubSource& src = AddSource(2, 10);
  src.fail = Status::Unavailable("initializing");
  PgTransferSpec spec = Spec({2});
  spec.rounds = 4;
  spec.backoff = Millis(100);
  loop_.ScheduleAt(Millis(150), [&src] { src.fail = Status::Ok(); });

  const Status pulled = Run(std::move(spec), Recorder());
  ASSERT_TRUE(pulled.ok()) << pulled.ToString();
  EXPECT_EQ(src.requests.size(), 3u);  // rounds 0 and 1 fail, round 2 serves
  EXPECT_EQ(merged_, src.rows);
}

TEST_F(PgTransferTest, FailingLocalWriteFailsThatSource) {
  StubSource& first = AddSource(2, 10);
  StubSource& second = AddSource(3, 10);

  const Status pulled = Run(Spec({2, 3}), Recorder(/*fail_pages=*/1));
  ASSERT_TRUE(pulled.ok()) << pulled.ToString();
  EXPECT_EQ(first.requests.size(), 1u);
  EXPECT_EQ(second.requests.size(), 1u);
  EXPECT_EQ(merged_, second.rows);
}

TEST_F(PgTransferTest, FailingLocalWriteIsTheOneSourceResult) {
  AddSource(2, 10);
  const Status pulled = Run(Spec({2}), Recorder(/*fail_pages=*/1));
  EXPECT_EQ(pulled.code(), ErrorCode::kIoError) << pulled.ToString();
}

TEST_F(PgTransferTest, EmptySourceListReturnsAtOnce) {
  PgTransferSpec spec = Spec({});
  spec.rounds = 4;
  spec.backoff = Millis(100);

  const Status pulled = Run(std::move(spec), Recorder());
  EXPECT_FALSE(pulled.ok());
  EXPECT_EQ(finished_at_, 0u);
  EXPECT_EQ(sink_calls_, 0);
}

}  // namespace
}  // namespace cheetah::core
