// Seed-deterministic unit tests for the QoS building blocks: token-bucket
// refill/burst arithmetic, weighted-fair queue ordering and starvation
// freedom, CoDel trip/escalate/reset, AIMD window growth/backoff, and the
// scheduler's admission checks + dispatch order. Everything here is a pure
// function of the submitted sequence and the (virtual) clock.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/qos/aimd.h"
#include "src/qos/codel.h"
#include "src/qos/qos.h"
#include "src/qos/scheduler.h"
#include "src/qos/token_bucket.h"
#include "src/qos/wfq.h"
#include "src/sim/actor.h"
#include "src/sim/event_loop.h"
#include "src/sim/sync.h"

namespace cheetah::qos {
namespace {

// ---- token bucket ----

TEST(TokenBucketTest, UnlimitedAlwaysAdmits) {
  TokenBucket b;  // default: rate 0 = unlimited
  EXPECT_TRUE(b.unlimited());
  EXPECT_TRUE(b.TryTake(1e12, 0));
  EXPECT_EQ(b.NextAvailable(1e12, Seconds(5)), Seconds(5));
}

TEST(TokenBucketTest, RefillIsExactInVirtualTime) {
  TokenBucket b(/*rate_per_sec=*/1000.0, /*burst=*/10.0);
  EXPECT_TRUE(b.TryTake(10.0, 0));   // drain the whole burst
  EXPECT_FALSE(b.TryTake(1.0, 0));   // empty at t=0
  // 1 token at 1000/s takes exactly 1ms to materialize.
  EXPECT_EQ(b.NextAvailable(1.0, 0), Millis(1) + 1);
  EXPECT_FALSE(b.TryTake(1.0, Millis(1) - 1));
  EXPECT_TRUE(b.TryTake(1.0, Millis(1)));
}

TEST(TokenBucketTest, BurstClampsAccumulationAndOversizedRequests) {
  TokenBucket b(/*rate_per_sec=*/100.0, /*burst=*/5.0);
  // A week of idle still refills to exactly `burst`.
  EXPECT_DOUBLE_EQ(b.tokens(Seconds(600)), 5.0);
  // A request larger than the burst can never be satisfied outright, but
  // NextAvailable stays finite (clamped to the burst) instead of stalling
  // the caller forever.
  const Nanos t = Seconds(600);
  EXPECT_TRUE(b.TryTake(5.0, t));
  const Nanos next = b.NextAvailable(100.0, t);
  EXPECT_GT(next, t);
  EXPECT_LE(next, t + Millis(50) + 1);  // 5 tokens at 100/s = 50ms
}

// ---- weighted-fair queue ----

TEST(WfqTest, BackloggedClassesShareByWeight) {
  // fg weight 4, bg weight 1: with both continuously backlogged, fg should
  // take ~4 of every 5 dispatches.
  std::array<double, kNumClasses> weights{0.0, 4.0, 1.0, 1.0, 1.0};
  WeightedFairQueue<int> q(weights);
  for (int i = 0; i < 20; ++i) {
    q.Push(TrafficClass::kForeground, 1.0, i);
    q.Push(TrafficClass::kReplication, 1.0, 100 + i);
  }
  int fg = 0;
  for (int i = 0; i < 10; ++i) {
    TrafficClass cls;
    (void)q.Pop(&cls);
    if (cls == TrafficClass::kForeground) {
      ++fg;
    }
  }
  EXPECT_GE(fg, 7);
  EXPECT_LE(fg, 9);  // not a strict-priority queue either
}

TEST(WfqTest, FifoWithinClassAndDeterministicAcrossRuns) {
  auto run = [] {
    std::array<double, kNumClasses> weights{0.0, 8.0, 4.0, 2.0, 1.0};
    WeightedFairQueue<int> q(weights);
    int tag = 0;
    std::vector<int> order;
    for (int round = 0; round < 6; ++round) {
      q.Push(TrafficClass::kForeground, 1.0, tag++);
      q.Push(TrafficClass::kBackground, 1.0, tag++);
      q.Push(TrafficClass::kMaintenance, 2.0, tag++);
    }
    std::array<int, kNumClasses> last_popped{-1, -1, -1, -1, -1};
    while (!q.empty()) {
      TrafficClass cls;
      int v = q.Pop(&cls);
      EXPECT_GT(v, last_popped[static_cast<int>(cls)]);  // FIFO per class
      last_popped[static_cast<int>(cls)] = v;
      order.push_back(v);
    }
    return order;
  };
  EXPECT_EQ(run(), run());  // identical input -> identical total order
}

TEST(WfqTest, LowWeightClassIsNotStarved) {
  // Foreground stays continuously backlogged; one maintenance item queued
  // behind the backlog must still pop within a bounded number of dispatches.
  std::array<double, kNumClasses> weights{0.0, 8.0, 4.0, 2.0, 1.0};
  WeightedFairQueue<int> q(weights);
  for (int i = 0; i < 4; ++i) {
    q.Push(TrafficClass::kForeground, 1.0, i);
  }
  q.Push(TrafficClass::kMaintenance, 1.0, 999);
  int pops_until_maint = -1;
  int fg_tag = 100;
  for (int i = 0; i < 100; ++i) {
    q.Push(TrafficClass::kForeground, 1.0, fg_tag++);  // keep fg backlogged
    TrafficClass cls;
    int v = q.Pop(&cls);
    if (v == 999) {
      pops_until_maint = i;
      break;
    }
  }
  ASSERT_GE(pops_until_maint, 0) << "maintenance item starved";
  // Its start tag was fixed at arrival; fg tags grow 1/8 per item, so the
  // maintenance item surfaces after at most ~weights ratio pops.
  EXPECT_LE(pops_until_maint, 20);
}

// ---- CoDel detector ----

TEST(CodelTest, OneSlowSampleDoesNotTrip) {
  CodelDetector d(Millis(5), Millis(100));
  d.Record(Millis(50), Millis(10));
  EXPECT_FALSE(d.overloaded());
  d.Record(Millis(1), Millis(20));  // back under target: clean reset
  d.Record(Millis(50), Millis(130));
  EXPECT_FALSE(d.overloaded());  // the above-target clock restarted
}

TEST(CodelTest, TripsAfterSustainedDelayAndEscalates) {
  CodelDetector d(Millis(5), Millis(100));
  d.Record(Millis(10), Millis(0));
  d.Record(Millis(12), Millis(50));
  EXPECT_FALSE(d.overloaded());
  d.Record(Millis(15), Millis(100));  // above target for a full interval
  EXPECT_TRUE(d.overloaded());
  EXPECT_EQ(d.shed_level(Millis(100)), 1);
  EXPECT_EQ(d.shed_level(Millis(199)), 1);
  EXPECT_EQ(d.shed_level(Millis(200)), 2);  // one more level per interval
  EXPECT_EQ(d.shed_level(Millis(350)), 3);
}

TEST(CodelTest, RecoveryAndIdleBothReset) {
  CodelDetector d(Millis(5), Millis(100));
  d.Record(Millis(10), Millis(0));
  d.Record(Millis(10), Millis(100));
  ASSERT_TRUE(d.overloaded());
  d.Record(Millis(1), Millis(150));  // a fast dispatch ends the episode
  EXPECT_FALSE(d.overloaded());
  EXPECT_EQ(d.shed_level(Millis(150)), 0);
  d.Record(Millis(10), Millis(200));
  d.Record(Millis(10), Millis(300));
  ASSERT_TRUE(d.overloaded());
  d.NoteIdle();  // queue drained: nothing left to be overloaded about
  EXPECT_FALSE(d.overloaded());
}

// ---- AIMD window ----

TEST(AimdTest, AdditiveGrowthMultiplicativeBackoff) {
  AimdParams params;
  params.initial_window = 8.0;
  AimdWindow win(params);
  auto aw = win.Acquire();
  ASSERT_TRUE(aw.await_ready());
  win.Release(AimdWindow::Signal::kSuccess);
  EXPECT_DOUBLE_EQ(win.window(), 8.0 + 1.0 / 8.0);  // +1 per window of successes
  auto aw2 = win.Acquire();
  ASSERT_TRUE(aw2.await_ready());
  win.Release(AimdWindow::Signal::kPushback);
  EXPECT_DOUBLE_EQ(win.window(), (8.0 + 1.0 / 8.0) * 0.5);
  auto aw3 = win.Acquire();
  ASSERT_TRUE(aw3.await_ready());
  win.Release(AimdWindow::Signal::kNeutral);  // app errors don't steer
  EXPECT_DOUBLE_EQ(win.window(), (8.0 + 1.0 / 8.0) * 0.5);
}

TEST(AimdTest, WindowNeverLeavesConfiguredBounds) {
  AimdParams params;
  params.initial_window = 2.0;
  params.min_window = 1.0;
  params.max_window = 4.0;
  AimdWindow win(params);
  for (int i = 0; i < 50; ++i) {
    auto aw = win.Acquire();
    ASSERT_TRUE(aw.await_ready());
    win.Release(AimdWindow::Signal::kPushback);
  }
  EXPECT_DOUBLE_EQ(win.window(), 1.0);
  EXPECT_EQ(win.limit(), 1);  // always admits at least one
  for (int i = 0; i < 500; ++i) {
    auto aw = win.Acquire();
    ASSERT_TRUE(aw.await_ready());
    win.Release(AimdWindow::Signal::kSuccess);
  }
  EXPECT_DOUBLE_EQ(win.window(), 4.0);
}

TEST(AimdTest, AcquireBlocksUntilASlotFrees) {
  sim::EventLoop loop;
  sim::Actor actor(loop);
  AimdParams params;
  params.initial_window = 1.0;
  AimdWindow win(params);
  Nanos second_started = -1;
  actor.Spawn([](AimdWindow* w) -> sim::Task<> {
    co_await w->Acquire();
    co_await sim::SleepFor(Millis(3));
    w->Release(AimdWindow::Signal::kSuccess);
  }(&win));
  actor.Spawn([](sim::Actor* a, AimdWindow* w, Nanos* started) -> sim::Task<> {
    co_await w->Acquire();
    *started = a->Now();
    w->Release(AimdWindow::Signal::kSuccess);
  }(&actor, &win, &second_started));
  loop.Run();
  EXPECT_EQ(second_started, Millis(3));
  EXPECT_EQ(win.in_flight(), 0);
}

// ---- scheduler ----

struct DispatchLog {
  std::vector<std::string> order;
  std::vector<Scheduler::Slot> slots;  // held => slot stays busy
};

Scheduler::RunFn Held(DispatchLog* log, const std::string& label) {
  return [log, label](Scheduler::Slot slot) {
    log->order.push_back(label);
    log->slots.push_back(slot);
  };
}

TEST(SchedulerTest, FairOrderUnderContentionIsDeterministic) {
  auto run = [] {
    sim::EventLoop loop;
    QosParams params;
    params.max_concurrency = 1;
    Scheduler sched(loop, 1, params);
    DispatchLog log;
    sched.Submit(TrafficClass::kForeground, 0, Held(&log, "blocker"), nullptr);
    for (int i = 0; i < 3; ++i) {
      sched.Submit(TrafficClass::kBackground, 0, Held(&log, "bg" + std::to_string(i)),
                   nullptr);
      sched.Submit(TrafficClass::kForeground, 0, Held(&log, "fg" + std::to_string(i)),
                   nullptr);
    }
    // Release slots one at a time; each completion dispatches the next item
    // in weighted-fair order.
    for (size_t i = 0; i < 7 && i < log.slots.size(); ++i) {
      log.slots[i].Release();
    }
    return log.order;
  };
  auto order = run();
  ASSERT_EQ(order.size(), 7u);
  EXPECT_EQ(order[0], "blocker");
  // Foreground (weight 8) gets through well before the last background item
  // (weight 2) despite arriving after it each round.
  int fg_done_by = -1;
  for (int i = 0; i < 7; ++i) {
    if (order[i] == "fg2") {
      fg_done_by = i;
    }
  }
  ASSERT_GE(fg_done_by, 0);
  EXPECT_LE(fg_done_by, 4);
  EXPECT_EQ(order.back(), "bg2");
  EXPECT_EQ(order, run());  // byte-identical replay
}

TEST(SchedulerTest, QueueLimitRejectsWithRetryAfter) {
  sim::EventLoop loop;
  QosParams params;
  params.max_concurrency = 1;
  params.queue_limit[static_cast<int>(TrafficClass::kBackground)] = 2;
  Scheduler sched(loop, 2, params);
  DispatchLog log;
  sched.Submit(TrafficClass::kBackground, 0, Held(&log, "running"), nullptr);
  sched.Submit(TrafficClass::kBackground, 0, Held(&log, "q1"), nullptr);
  sched.Submit(TrafficClass::kBackground, 0, Held(&log, "q2"), nullptr);
  Nanos retry_after = -1;
  sched.Submit(TrafficClass::kBackground, 0, Held(&log, "overflow"),
               [&retry_after](Nanos ra) { retry_after = ra; });
  EXPECT_GT(retry_after, 0);
  EXPECT_EQ(sched.sheds(TrafficClass::kBackground), 1u);
  EXPECT_EQ(sched.depth(TrafficClass::kBackground), 2u);
  // Foreground has its own (default, large) bound and is unaffected.
  sched.Submit(TrafficClass::kForeground, 0, Held(&log, "fg"), nullptr);
  EXPECT_EQ(sched.sheds(TrafficClass::kForeground), 0u);
}

TEST(SchedulerTest, RateLimitedClassBouncesWhenBucketEmpty) {
  sim::EventLoop loop;
  QosParams params;
  params.rate_per_sec[static_cast<int>(TrafficClass::kMaintenance)] = 1.0;
  params.burst_cost = 1.0;
  Scheduler sched(loop, 3, params);
  DispatchLog log;
  sched.Submit(TrafficClass::kMaintenance, 0, Held(&log, "first"), nullptr);
  EXPECT_EQ(sched.dispatched(TrafficClass::kMaintenance), 1u);
  Nanos retry_after = -1;
  sched.Submit(TrafficClass::kMaintenance, 0, Held(&log, "second"),
               [&retry_after](Nanos ra) { retry_after = ra; });
  EXPECT_EQ(sched.sheds(TrafficClass::kMaintenance), 1u);
  // 1 cost unit at 1/s: retry roughly a second out.
  EXPECT_GE(retry_after, Millis(900));
  EXPECT_LE(retry_after, Seconds(2));
}

TEST(SchedulerTest, CodelShedsLowClassesFirstAndRecoversWhenIdle) {
  sim::EventLoop loop;
  QosParams params;
  params.max_concurrency = 1;
  params.codel_target = Micros(1);
  params.codel_interval = Millis(10);
  Scheduler sched(loop, 4, params);
  DispatchLog log;
  sched.Submit(TrafficClass::kForeground, 0, Held(&log, "blocker"), nullptr);
  sched.Submit(TrafficClass::kForeground, 0, Held(&log, "fg1"), nullptr);
  sched.Submit(TrafficClass::kForeground, 0, Held(&log, "fg2"), nullptr);

  loop.RunFor(Millis(5));
  log.slots[0].Release();  // fg1 dispatched with 5ms sojourn: above target, not tripped
  EXPECT_EQ(sched.shed_level(), 0);

  loop.RunFor(Millis(15));
  log.slots[1].Release();  // fg2 at 20ms sojourn, above target for 15ms >= interval
  EXPECT_EQ(sched.shed_level(), 1);

  // Level 1 sheds maintenance only; background and foreground still admit.
  Nanos ra = -1;
  sched.Submit(TrafficClass::kMaintenance, 0, Held(&log, "maint"),
               [&ra](Nanos r) { ra = r; });
  EXPECT_EQ(sched.sheds(TrafficClass::kMaintenance), 1u);
  EXPECT_EQ(ra, params.codel_interval);
  sched.Submit(TrafficClass::kBackground, 0, Held(&log, "bg"), nullptr);
  EXPECT_EQ(sched.sheds(TrafficClass::kBackground), 0u);

  // Another interval overdue escalates to level 2: background shed too,
  // foreground still never (max_shed_level caps at 2).
  loop.RunFor(Millis(12));
  EXPECT_EQ(sched.shed_level(), 2);
  sched.Submit(TrafficClass::kBackground, 0, Held(&log, "bg2"), nullptr);
  EXPECT_EQ(sched.sheds(TrafficClass::kBackground), 1u);
  sched.Submit(TrafficClass::kForeground, 0, Held(&log, "fg3"), nullptr);
  EXPECT_EQ(sched.sheds(TrafficClass::kForeground), 0u);
  loop.RunFor(Seconds(1));
  EXPECT_EQ(sched.shed_level(), sched.params().max_shed_level);  // clamped

  // Drain everything: the idle reset clears the verdict.
  for (size_t i = 2; i < log.slots.size(); ++i) {
    log.slots[i].Release();
  }
  EXPECT_EQ(sched.active(), 0);
  EXPECT_EQ(sched.shed_level(), 0);
  sched.Submit(TrafficClass::kMaintenance, 0, Held(&log, "maint2"), nullptr);
  EXPECT_EQ(sched.sheds(TrafficClass::kMaintenance), 1u);  // unchanged
}

TEST(SchedulerTest, ResetMakesStaleCompletionsHarmless) {
  sim::EventLoop loop;
  QosParams params;
  params.max_concurrency = 1;
  Scheduler sched(loop, 5, params);
  DispatchLog log;
  sched.Submit(TrafficClass::kForeground, 0, Held(&log, "a"), nullptr);
  sched.Submit(TrafficClass::kForeground, 0, Held(&log, "queued"), nullptr);
  sched.Reset();  // node crashed: queued work dropped, handler killed
  EXPECT_EQ(sched.active(), 0);
  log.slots[0].Release();  // the killed handler's slot is released late: must be a no-op
  EXPECT_EQ(sched.active(), 0);
  EXPECT_EQ(sched.dispatched(TrafficClass::kForeground), 1u);  // "queued" gone
  sched.Submit(TrafficClass::kForeground, 0, Held(&log, "fresh"), nullptr);
  EXPECT_EQ(log.order.back(), "fresh");
  EXPECT_EQ(sched.active(), 1);
}

// ---- wire encoding ----

TEST(QosTest, RetryAfterRoundTripsThroughStatus) {
  Status s = OverloadedStatus(Millis(37));
  EXPECT_TRUE(s.IsOverloaded());
  EXPECT_EQ(RetryAfterOf(s, Millis(1)), Millis(37));
  EXPECT_EQ(RetryAfterOf(Status::Overloaded("no hint"), Millis(1)), Millis(1));
  EXPECT_EQ(RetryAfterOf(Status::Ok(), Millis(2)), Millis(2));
}

}  // namespace
}  // namespace cheetah::qos
