#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/qos/qos.h"
#include "src/qos/scheduler.h"
#include "src/rpc/node.h"

namespace cheetah::rpc {
namespace {

using sim::EventLoop;
using sim::Machine;
using sim::MachineParams;
using sim::Network;
using sim::NodeId;
using sim::Task;

// All message types carry a user-declared constructor so they are not
// aggregates (see the RpcRequest concept / GCC 12 caution in src/sim/task.h).
struct EchoReply {
  EchoReply() = default;
  explicit EchoReply(std::string t) : text(std::move(t)) {}
  std::string text;
  size_t wire_size() const { return text.size() + 8; }
};
struct EchoRequest {
  using Response = EchoReply;
  EchoRequest() = default;
  explicit EchoRequest(std::string t) : text(std::move(t)) {}
  std::string text;
  size_t wire_size() const { return text.size() + 8; }
};

struct SlowReply {
  SlowReply() = default;
  size_t wire_size() const { return 8; }
};
struct SlowRequest {
  using Response = SlowReply;
  SlowRequest() = default;
  explicit SlowRequest(Nanos d) : delay(d) {}
  Nanos delay = 0;
  size_t wire_size() const { return 16; }
};

struct NoteReply {
  NoteReply() = default;
  size_t wire_size() const { return 8; }
};
struct NoteRequest {
  using Response = NoteReply;
  NoteRequest() = default;
  explicit NoteRequest(int v) : value(v) {}
  int value = 0;
  size_t wire_size() const { return 16; }
};

// Registered by one test only, so its first Serve<> grows the handler table.
struct LateRequest {
  using Response = NoteReply;
  LateRequest() = default;
  size_t wire_size() const { return 8; }
};

class RpcTest : public ::testing::Test {
 protected:
  RpcTest()
      : net_(loop_, sim::NetParams{}),
        server_machine_(loop_, 1, "server", MachineParams{}),
        client_machine_(loop_, 2, "client", MachineParams{}),
        server_(server_machine_, net_),
        client_(client_machine_, net_) {
    server_.Attach();
    client_.Attach();
  }

  // Puts a QoS scheduler on the server that runs one handler at a time and
  // queues at most one request per class.
  void InstallTightScheduler() {
    qos::QosParams params;
    params.max_concurrency = 1;
    params.queue_limit.fill(1);
    sched_ = std::make_unique<qos::Scheduler>(loop_, 1, params);
    server_.SetScheduler(sched_.get());
  }

  EventLoop loop_;
  Network net_;
  Machine server_machine_;
  Machine client_machine_;
  std::unique_ptr<qos::Scheduler> sched_;  // outlives server_, whose ~Node resets it
  Node server_;
  Node client_;
};

TEST_F(RpcTest, RoundTrip) {
  server_.Serve<EchoRequest>([](NodeId src, EchoRequest req) -> Task<Result<EchoReply>> {
    co_return EchoReply("echo:" + req.text);
  });
  std::string got;
  client_machine_.actor().Spawn([](Node* c, std::string* out) -> Task<> {
    auto r = co_await c->Call(1, EchoRequest("hi"), Millis(100));
    *out = r.ok() ? r->text : r.status().ToString();
  }(&client_, &got));
  loop_.Run();
  EXPECT_EQ(got, "echo:hi");
}

TEST_F(RpcTest, ErrorStatusPropagates) {
  server_.Serve<EchoRequest>([](NodeId, EchoRequest) -> Task<Result<EchoReply>> {
    co_return Status::NotFound("nope");
  });
  Status got = Status::Ok();
  client_machine_.actor().Spawn([](Node* c, Status* out) -> Task<> {
    auto r = co_await c->Call(1, EchoRequest("x"), Millis(100));
    *out = r.status();
  }(&client_, &got));
  loop_.Run();
  EXPECT_TRUE(got.IsNotFound());
}

TEST_F(RpcTest, TimeoutWhenServerDead) {
  server_.Serve<EchoRequest>([](NodeId, EchoRequest req) -> Task<Result<EchoReply>> {
    co_return EchoReply(req.text);
  });
  server_machine_.CrashProcess();
  server_.Detach();
  Status got = Status::Ok();
  Nanos when = 0;
  client_machine_.actor().Spawn([](Node* c, sim::Actor* a, Status* out, Nanos* w) -> Task<> {
    auto r = co_await c->Call(1, EchoRequest("x"), Millis(50));
    *out = r.status();
    *w = a->Now();
  }(&client_, &client_machine_.actor(), &got, &when));
  loop_.Run();
  EXPECT_TRUE(got.IsTimeout());
  EXPECT_EQ(when, Millis(50));
}

TEST_F(RpcTest, TimeoutWhenHandlerTooSlow) {
  server_.Serve<SlowRequest>([](NodeId, SlowRequest req) -> Task<Result<SlowReply>> {
    co_await sim::SleepFor(req.delay);
    co_return SlowReply{};
  });
  Status got = Status::Ok();
  client_machine_.actor().Spawn([](Node* c, Status* out) -> Task<> {
    auto r = co_await c->Call(1, SlowRequest(Millis(200)), Millis(20));
    *out = r.status();
  }(&client_, &got));
  loop_.Run();
  EXPECT_TRUE(got.IsTimeout());
}

TEST_F(RpcTest, ServerCrashMidHandlerTimesOutCaller) {
  server_.Serve<SlowRequest>([](NodeId, SlowRequest req) -> Task<Result<SlowReply>> {
    co_await sim::SleepFor(req.delay);
    co_return SlowReply{};
  });
  Status got = Status::Ok();
  client_machine_.actor().Spawn([](Node* c, Status* out) -> Task<> {
    auto r = co_await c->Call(1, SlowRequest(Millis(30)), Millis(100));
    *out = r.status();
  }(&client_, &got));
  loop_.RunUntil(Millis(10));  // handler is mid-sleep
  server_machine_.CrashProcess();
  server_.Detach();
  loop_.Run();
  EXPECT_TRUE(got.IsTimeout());
}

TEST_F(RpcTest, LateReplyAfterTimeoutIsDropped) {
  server_.Serve<SlowRequest>([](NodeId, SlowRequest req) -> Task<Result<SlowReply>> {
    co_await sim::SleepFor(req.delay);
    co_return SlowReply{};
  });
  obs::Counter* dropped = obs::Registry::Global().counter("rpc.late_replies_dropped");
  const uint64_t dropped_before = dropped->value();
  Status got = Status::Ok();
  client_machine_.actor().Spawn([](Node* c, Status* out) -> Task<> {
    auto r = co_await c->Call(1, SlowRequest(Millis(80)), Millis(20));
    *out = r.status();
  }(&client_, &got));
  loop_.RunUntil(Millis(40));  // past the timeout, before the reply exists
  EXPECT_TRUE(got.IsTimeout());
  EXPECT_EQ(client_.pending_calls(), 0u);  // the timeout erased the pending slot
  loop_.Run();  // the reply lands at ~80ms and must be dropped without crashing
  EXPECT_EQ(client_.pending_calls(), 0u);
  EXPECT_EQ(dropped->value(), dropped_before + 1);
}

TEST_F(RpcTest, NotifyIsFireAndForget) {
  int received = 0;
  server_.Serve<NoteRequest>([&](NodeId, NoteRequest req) -> Task<Result<NoteReply>> {
    received += req.value;
    co_return NoteReply{};
  });
  client_.Notify(1, NoteRequest(5));
  client_.Notify(1, NoteRequest(7));
  loop_.Run();
  EXPECT_EQ(received, 12);
}

TEST_F(RpcTest, ConcurrentCallsKeepIdentity) {
  server_.Serve<SlowRequest>([](NodeId, SlowRequest req) -> Task<Result<SlowReply>> {
    co_await sim::SleepFor(req.delay);
    co_return SlowReply{};
  });
  server_.Serve<EchoRequest>([](NodeId, EchoRequest req) -> Task<Result<EchoReply>> {
    co_return EchoReply(req.text);
  });
  std::string fast_result;
  Nanos fast_done = 0, slow_done = 0;
  client_machine_.actor().Spawn([](Node* c, sim::Actor* a, Nanos* out) -> Task<> {
    (void)co_await c->Call(1, SlowRequest(Millis(50)), Millis(500));
    *out = a->Now();
  }(&client_, &client_machine_.actor(), &slow_done));
  client_machine_.actor().Spawn(
      [](Node* c, sim::Actor* a, std::string* out, Nanos* t) -> Task<> {
        auto r = co_await c->Call(1, EchoRequest("fast"), Millis(500));
        *out = r.ok() ? r->text : "ERR";
        *t = a->Now();
      }(&client_, &client_machine_.actor(), &fast_result, &fast_done));
  loop_.Run();
  EXPECT_EQ(fast_result, "fast");
  EXPECT_LT(fast_done, slow_done);  // replies matched to the right callers
}

TEST_F(RpcTest, RestartedServerServesAgain) {
  server_.Serve<EchoRequest>([](NodeId, EchoRequest req) -> Task<Result<EchoReply>> {
    co_return EchoReply("v2:" + req.text);
  });
  server_machine_.CrashProcess();
  server_.Detach();
  server_machine_.Restart();
  server_.Attach();  // handlers persist across Detach/Attach
  std::string got;
  client_machine_.actor().Spawn([](Node* c, std::string* out) -> Task<> {
    auto r = co_await c->Call(1, EchoRequest("x"), Millis(100));
    *out = r.ok() ? r->text : "ERR";
  }(&client_, &got));
  loop_.Run();
  EXPECT_EQ(got, "v2:x");
}

TEST_F(RpcTest, QosQueueOverflowBouncesCallWithRetryAfter) {
  InstallTightScheduler();
  server_.Serve<SlowRequest>(
      [](NodeId, SlowRequest req) -> Task<Result<SlowReply>> {
        co_await sim::SleepFor(req.delay);
        co_return SlowReply{};
      },
      qos::TrafficClass::kForeground);
  // The first call runs, the second waits in the one-deep queue, the third
  // overflows it.
  std::vector<Status> got(3, Status::Internal("unresolved"));
  for (Status& result : got) {
    client_machine_.actor().Spawn([](Node* c, Status* out) -> Task<> {
      auto r = co_await c->Call(1, SlowRequest(Millis(10)), Millis(100));
      *out = r.status();
    }(&client_, &result));
  }
  loop_.Run();
  EXPECT_TRUE(got[0].ok());
  EXPECT_TRUE(got[1].ok());
  ASSERT_TRUE(got[2].IsOverloaded()) << got[2].ToString();
  EXPECT_EQ(qos::RetryAfterOf(got[2], /*fallback=*/-1), sched_->params().codel_interval);
  EXPECT_EQ(sched_->sheds(qos::TrafficClass::kForeground), 1u);
}

TEST_F(RpcTest, QosRejectedNotifyVanishesWithoutReply) {
  InstallTightScheduler();
  int received = 0;
  server_.Serve<NoteRequest>(
      [&received](NodeId, NoteRequest req) -> Task<Result<NoteReply>> {
        co_await sim::SleepFor(Millis(10));
        received += req.value;
        co_return NoteReply{};
      },
      qos::TrafficClass::kForeground);
  obs::Counter* late = obs::Registry::Global().counter("rpc.late_replies_dropped");
  const uint64_t late_before = late->value();
  const uint64_t sent_before = net_.messages_sent();
  client_.Notify(1, NoteRequest(1));
  client_.Notify(1, NoteRequest(2));
  client_.Notify(1, NoteRequest(4));  // overflows the queue: shed silently
  loop_.Run();
  EXPECT_EQ(received, 1 + 2);
  EXPECT_EQ(sched_->sheds(qos::TrafficClass::kForeground), 1u);
  EXPECT_EQ(net_.messages_sent() - sent_before, 3u);  // no reply, no bounce
  EXPECT_EQ(late->value(), late_before);
}

TEST_F(RpcTest, SuspendedLambdaHandlerSurvivesLaterServe) {
  // The handler's frame points at its closure; registering new request types
  // while it is suspended must not move or free that closure.
  std::string seen;
  server_.Serve<SlowRequest>(
      [tag = std::string("closure state read after the handler resumes"),
       &seen](NodeId, SlowRequest req) -> Task<Result<SlowReply>> {
        co_await sim::SleepFor(req.delay);
        seen = tag;
        co_return SlowReply{};
      });
  Status got = Status::Internal("unresolved");
  client_machine_.actor().Spawn([](Node* c, Status* out) -> Task<> {
    auto r = co_await c->Call(1, SlowRequest(Millis(30)), Millis(100));
    *out = r.status();
  }(&client_, &got));
  loop_.RunUntil(Millis(10));  // handler is mid-sleep
  ASSERT_TRUE(seen.empty());
  server_.Serve<EchoRequest>([](NodeId, EchoRequest req) -> Task<Result<EchoReply>> {
    co_return EchoReply(req.text);
  });
  server_.Serve<NoteRequest>([](NodeId, NoteRequest) -> Task<Result<NoteReply>> {
    co_return NoteReply{};
  });
  server_.Serve<LateRequest>([](NodeId, LateRequest) -> Task<Result<NoteReply>> {
    co_return NoteReply{};
  });
  loop_.Run();
  EXPECT_TRUE(got.ok()) << got.ToString();
  EXPECT_EQ(seen, "closure state read after the handler resumes");
}

}  // namespace
}  // namespace cheetah::rpc
