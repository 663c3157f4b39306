// Per-node request scheduler: admission control + weighted-fair dispatch.
//
// rpc::Node hands every class-tagged inbound request to Submit() instead of
// spawning its handler directly. The scheduler either rejects it immediately
// (token bucket empty, per-class queue full, or the CoDel detector says this
// node is overloaded and the class is shed at the current level) with a
// retry-after hint, or queues it in the weighted-fair queue and dispatches up
// to `max_concurrency` handlers at a time in virtual-time fair order.
//
// Determinism: dispatch order is a pure function of arrival order, costs, and
// the event-loop clock; ties break by sequence number. Reset() (on node
// detach/crash) bumps an epoch so a Slot held by a killed handler can't
// double-free a concurrency slot.
#ifndef SRC_QOS_SCHEDULER_H_
#define SRC_QOS_SCHEDULER_H_

#include <array>
#include <cstdint>
#include <utility>

#include "src/common/inline_fn.h"
#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/qos/codel.h"
#include "src/qos/qos.h"
#include "src/qos/token_bucket.h"
#include "src/qos/wfq.h"
#include "src/sim/event_loop.h"

namespace cheetah::qos {

class Scheduler {
 public:
  // A dispatched request's claim on one of the `max_concurrency` slots: the
  // scheduler and the epoch it was issued in. Release() frees the slot and
  // empties this Slot; an empty Slot, or one issued before a Reset(),
  // releases nothing. The handler releases its Slot exactly once.
  class Slot {
   public:
    Slot() = default;
    void Release() {
      Scheduler* sched = std::exchange(sched_, nullptr);
      if (sched != nullptr && epoch_ == sched->epoch_) {
        sched->OnComplete();
      }
    }

   private:
    friend class Scheduler;
    Slot(Scheduler* sched, uint64_t epoch) : sched_(sched), epoch_(epoch) {}
    Scheduler* sched_ = nullptr;
    uint64_t epoch_ = 0;
  };

  // `run(slot)` starts the handler; the handler must Release() the slot when
  // it finishes (a killed handler never does; Reset() covers that).
  using RunFn = InlineFn<void(Slot slot)>;
  // Called instead of `run` on rejection; null means drop silently
  // (fire-and-forget traffic has nobody to tell).
  using RejectFn = InlineFn<void(Nanos retry_after)>;

  Scheduler(sim::EventLoop& loop, uint32_t node, const QosParams& params);

  void Submit(TrafficClass cls, size_t bytes, RunFn run, RejectFn reject);

  // Drops all queued work and forgets in-flight handlers (they were killed
  // with the node's actor); releasing a stale Slot becomes a no-op.
  void Reset();

  const QosParams& params() const { return params_; }
  int active() const { return active_; }
  size_t depth(TrafficClass cls) const { return queue_.depth(cls); }
  uint64_t submitted(TrafficClass cls) const { return submitted_[Ord(cls)]; }
  uint64_t dispatched(TrafficClass cls) const { return dispatched_[Ord(cls)]; }
  uint64_t sheds(TrafficClass cls) const { return sheds_[Ord(cls)]; }
  int shed_level() const;

 private:
  static int Ord(TrafficClass cls) { return static_cast<int>(cls); }
  // Cost unit: KiB of wire bytes, min 1 — shared by the WFQ (finish tags) and
  // the token buckets (rate caps).
  static double CostOf(size_t bytes) {
    const double kib = static_cast<double>(bytes) / 1024.0;
    return kib > 1.0 ? kib : 1.0;
  }

  void RejectWith(TrafficClass cls, const char* reason, Nanos retry_after,
                  RejectFn& reject);
  void TryDispatch();
  void OnComplete();

  struct Pending {
    TrafficClass cls;
    double cost;
    Nanos enqueued;
    RunFn run;
  };

  sim::EventLoop& loop_;
  QosParams params_;
  WeightedFairQueue<Pending> queue_;
  std::array<TokenBucket, kNumClasses> buckets_;
  CodelDetector codel_;
  int active_ = 0;
  uint64_t epoch_ = 0;

  std::array<uint64_t, kNumClasses> submitted_{};
  std::array<uint64_t, kNumClasses> dispatched_{};
  std::array<uint64_t, kNumClasses> sheds_{};

  obs::Scope scope_;
  std::array<obs::Counter*, kNumClasses> submitted_ctr_;
  std::array<obs::Counter*, kNumClasses> dispatched_ctr_;
  std::array<obs::Counter*, kNumClasses> shed_ctr_;
  std::array<obs::Gauge*, kNumClasses> depth_gauge_;
  std::array<obs::Histogram*, kNumClasses> sojourn_hist_;
  obs::Gauge* active_gauge_;
  obs::Gauge* shed_level_gauge_;
};

}  // namespace cheetah::qos

#endif  // SRC_QOS_SCHEDULER_H_
