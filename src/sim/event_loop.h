// Deterministic discrete-event loop with a virtual clock.
//
// All simulated activity — network delivery, disk completion, timers — is a
// callback scheduled at a virtual timestamp. Ties are broken by insertion
// order (a global sequence number), so a given seed always produces the
// identical execution.
//
// Two interchangeable engines produce the exact same (time, seq) firing
// order:
//
//  * kWheel (default): a hierarchical timer wheel. Near-future events land in
//    one of 4096 slots of 4.096us each (~16.8ms horizon) with O(1) insertion;
//    far-future events (RPC timeouts, heartbeats, scrub intervals) go to an
//    overflow heap and are promoted when their slot comes up. Only the slot
//    currently being drained is kept heap-ordered, so the common
//    schedule-then-fire pair costs O(1) + O(log k) for tiny k instead of the
//    global O(log n) of a single priority queue.
//  * kHeap: the reference single binary heap, kept as the determinism oracle
//    — tests and the sim_engine_speed bench run both engines and require
//    byte-identical schedules.
//
// Callbacks are InlineFn (48-byte small-buffer captures, no malloc on the
// common path) and the loop owns a bump-pointer Arena that network/RPC layers
// use for envelopes and delivery records; the arena resets at quiescent
// points (queue drained, nothing live).
#ifndef SRC_SIM_EVENT_LOOP_H_
#define SRC_SIM_EVENT_LOOP_H_

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/arena.h"
#include "src/common/inline_fn.h"
#include "src/common/units.h"
#include "src/obs/metrics.h"

namespace cheetah::sim {

class EventLoop {
 public:
  using Callback = InlineFn<void()>;

  enum class Engine { kWheel, kHeap };

  EventLoop() : EventLoop(DefaultEngine()) {}
  explicit EventLoop(Engine engine);
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Process-wide default-engine override (tests and the determinism guard);
  // falls back to the CHEETAH_SIM_ENGINE env var ("heap" selects the
  // reference engine), then to the wheel.
  static void OverrideDefaultEngine(std::optional<Engine> engine);
  static Engine DefaultEngine();

  Engine engine() const { return engine_; }
  Nanos Now() const { return now_; }

  // Transient-object arena for events in flight (RPC envelopes, delivery
  // records). Reset automatically when the loop quiesces.
  Arena& arena() { return arena_; }

  void ScheduleAt(Nanos time, Callback fn);
  void ScheduleAfter(Nanos delay, Callback fn) { ScheduleAt(now_ + delay, std::move(fn)); }

  // Runs a single event; returns false if the queue is empty.
  bool RunOne();

  // Runs until no events remain.
  void Run();

  // Runs events with timestamp <= deadline; advances the clock to `deadline`
  // even if the queue drains earlier (so periodic loads can be layered).
  void RunUntil(Nanos deadline);
  void RunFor(Nanos duration) { RunUntil(now_ + duration); }

  // Runs events one at a time until `done()` holds, `budget` of virtual time
  // has passed, or the queue drains; returns done(). Unlike RunFor, the
  // clock stops at the last event fired.
  template <typename Done>
  bool RunUntilDone(Done&& done, Nanos budget) {
    const Nanos deadline = now_ + budget;
    while (!done() && now_ < deadline && RunOne()) {
    }
    return done();
  }
  // As above with no time limit: stops only on done() or an empty queue.
  template <typename Done>
  bool RunUntilDone(Done&& done) {
    while (!done() && RunOne()) {
    }
    return done();
  }

  size_t pending_events() const {
    return active_.size() + wheel_count_ + overflow_.size() + heap_.size();
  }

  uint64_t events_fired() const { return events_fired_->value(); }

 private:
  // Wheel geometry: 4096 slots of 2^12 ns. An event `time` maps to tick
  // `time >> kSlotBits`; ticks within (active_tick_, active_tick_ + kSlots)
  // live in slot `tick & kSlotMask`, which is collision-free because the
  // window is narrower than one full rotation.
  static constexpr int kSlotBits = 12;
  static constexpr int kWheelBits = 12;
  static constexpr size_t kSlots = size_t{1} << kWheelBits;
  static constexpr uint64_t kSlotMask = kSlots - 1;
  static constexpr uint64_t kNoTick = ~uint64_t{0};

  struct Event {
    Nanos time;
    uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  static uint64_t TickOf(Nanos time) { return static_cast<uint64_t>(time) >> kSlotBits; }

  // Stages the next non-empty tick into active_; returns false if drained.
  bool Advance();
  // Next occupied wheel tick strictly after active_tick_, or kNoTick.
  uint64_t NextOccupiedTick() const;
  Event PopStaged();
  void FireEvent(Event& ev);
  void MaybeQuiesce();
  void PublishArenaStats();

  Engine engine_;
  Nanos now_ = 0;
  uint64_t next_seq_ = 0;

  // Declared before all event storage so arena-backed captures (network
  // deliveries, RPC envelopes) are destroyed before the arena itself when a
  // loop is torn down with events still queued.
  Arena arena_;

  // kWheel state. active_ is a binary heap (Later) holding every pending
  // event with tick == active_tick_; slots hold later in-horizon ticks
  // unsorted; overflow_ is a binary heap of beyond-horizon events.
  uint64_t active_tick_ = 0;
  std::vector<Event> active_;
  std::vector<std::vector<Event>> slots_;
  std::array<uint64_t, kSlots / 64> occupied_{};
  size_t wheel_count_ = 0;
  std::vector<Event> overflow_;

  // kHeap state: one global binary heap (no priority_queue, so events are
  // legally movable out of the top slot).
  std::vector<Event> heap_;

  obs::Scope scope_;
  obs::Counter* events_fired_;
  obs::Counter* callbacks_inline_;
  obs::Counter* callbacks_heap_;
  obs::Counter* overflow_promotions_;
  obs::Gauge* arena_bytes_;
  obs::Gauge* arena_live_;
  obs::Counter* arena_resets_;
};

}  // namespace cheetah::sim

#endif  // SRC_SIM_EVENT_LOOP_H_
