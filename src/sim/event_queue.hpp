// Discrete-event simulation core.
//
// A future-event set with a monotone simulation clock: one binary heap in a
// `std::vector`, ordered by (time, schedule sequence number). Events
// scheduled at equal times run in schedule order, which keeps scenarios
// deterministic. There is no cancellation: a scheduled event runs.
//
// The payload is a template parameter. `event_queue` stores callbacks and
// runs each one when it is due; an engine with a closed set of events
// (`core::shard_engine`) stores a small trivially-copyable event instead and
// passes its dispatcher to `step`/`run_until`/`run_all`, so scheduling
// allocates nothing once the heap has grown to its live depth.
//
// For sharded simulations each shard owns one queue and advances it in
// conservative time windows: `run_until(t)` is the windowed-run primitive
// (repeated calls with increasing `t` execute exactly the events a single
// call would).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/contracts.hpp"

namespace vtm::sim {

template <class Event = std::function<void()>>
class basic_event_queue {
 public:
  /// Current simulation time (seconds). Starts at 0.
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Number of pending events.
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  /// Schedule `event` at absolute time `at` (>= now()).
  void schedule(double at, Event event) {
    VTM_EXPECTS(at >= now_);
    if constexpr (std::is_constructible_v<bool, const Event&>)
      VTM_EXPECTS(static_cast<bool>(event));
    heap_.push_back(entry{at, next_seq_++, std::move(event)});
    std::push_heap(heap_.begin(), heap_.end(), later);
  }

  /// Schedule `event` `delay` seconds from now (delay >= 0).
  void schedule_in(double delay, Event event) {
    VTM_EXPECTS(delay >= 0.0);
    schedule(now_ + delay, std::move(event));
  }

  /// Remove the earliest event, advance the clock to its timestamp, and hand
  /// it to `dispatch` (which may schedule more). Returns false when empty.
  template <class Dispatch>
  bool step(Dispatch&& dispatch) {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), later);
    entry top = std::move(heap_.back());
    heap_.pop_back();
    now_ = top.time;
    dispatch(top.event);
    return true;
  }
  bool step() { return step(invoke); }

  /// Run all events with time <= t, then advance the clock to t (if t > now).
  /// Returns the number of events executed.
  template <class Dispatch>
  std::size_t run_until(double t, Dispatch&& dispatch) {
    VTM_EXPECTS(t >= now_);
    std::size_t executed = 0;
    while (!heap_.empty() && heap_.front().time <= t) {
      step(dispatch);
      ++executed;
    }
    now_ = t;
    return executed;
  }
  std::size_t run_until(double t) { return run_until(t, invoke); }

  /// Run until the queue drains or `max_events` have executed.
  /// Returns the number of events executed.
  template <class Dispatch>
  std::size_t run_all(std::size_t max_events, Dispatch&& dispatch) {
    std::size_t executed = 0;
    while (executed < max_events && step(dispatch)) ++executed;
    return executed;
  }
  std::size_t run_all(std::size_t max_events = 1'000'000) {
    return run_all(max_events, invoke);
  }

 private:
  struct entry {
    double time;
    std::uint64_t seq;
    Event event;
  };
  /// Heap order: `a` runs after `b` (the heap's front is the earliest).
  static bool later(const entry& a, const entry& b) noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
  static void invoke(Event& event) { event(); }

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::vector<entry> heap_;
};

/// The callback queue: each event is a `std::function<void()>`.
using event_queue = basic_event_queue<>;

}  // namespace vtm::sim
