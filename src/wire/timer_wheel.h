// Hashed timer wheel for connection deadlines (slowloris defense).
//
// The wire front-end arms one deadline per connection at a time — header
// deadline while a request head trickles in, idle deadline between
// keep-alive requests, write deadline while a response drains. All three
// are coarse (hundreds of ms to tens of seconds), so a classic hashed
// wheel fits: O(1) schedule/cancel, and the epoll loop advances it once
// per tick. Precision is one tick (default 50 ms) — deadlines fire at most
// one tick late, never early.
//
// Single-threaded by design: owned and driven only by the event loop.
// Cancellation is generation-based — every schedule() draws a fresh
// generation from one wheel-wide counter that never resets, and a filed
// entry is live only while its id's current generation is the one it was
// filed with. cancel() and firing forget the id; stale wheel entries are
// dropped lazily when their slot comes around, so neither operation
// touches the slot vectors. Because generations are never reused, an
// entry left over from before a cancel or a fire can never match a later
// re-arm of the same id.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

namespace oak::wire {

class TimerWheel {
 public:
  explicit TimerWheel(double tick_s = 0.05, std::size_t slots = 256)
      : tick_s_(tick_s > 0 ? tick_s : 0.05),
        slots_(slots > 0 ? slots : 1) {
    wheel_.resize(slots_);
  }

  // Arm (or re-arm) the deadline for `id`. A previously scheduled entry
  // for the same id is invalidated.
  void schedule(std::uint64_t id, double deadline) {
    auto& st = state_[id];
    st.gen = ++last_gen_;
    st.deadline = deadline;
    // File at the first tick whose visit time is >= the deadline (ceil,
    // not floor): the cursor reaches tick T once now >= T*tick_s_, so a
    // floor-filed interior deadline would be visited before it is due and
    // re-filed a whole revolution out — up to slots-1 ticks late instead
    // of the promised one.
    std::int64_t tick = static_cast<std::int64_t>(
        std::ceil(deadline / tick_s_));
    // A deadline already in the past (loop lag) files into the next tick
    // to be visited, not a slot the cursor has moved beyond — otherwise it
    // would silently wait out a full wheel revolution.
    if (last_tick_ != std::numeric_limits<std::int64_t>::min() &&
        tick <= last_tick_) {
      tick = last_tick_ + 1;
    }
    wheel_[slot_index(tick)].push_back(Entry{id, st.gen, deadline});
  }

  void cancel(std::uint64_t id) { state_.erase(id); }

  bool armed(std::uint64_t id) const { return state_.count(id) != 0; }
  std::size_t armed_count() const { return state_.size(); }

  // Total entries filed across all slots, live or stale. Lazy cancellation
  // means this can exceed armed_count() between advances; after a full
  // revolution every stale entry has been visited and dropped, so tests use
  // this to assert re-arm churn doesn't accrete slot garbage.
  std::size_t slot_entries() const {
    std::size_t n = 0;
    for (const auto& slot : wheel_) n += slot.size();
    return n;
  }

  // Fire fn(id) for every live entry whose deadline is <= now. Entries that
  // were re-armed or cancelled are dropped; entries hashed into a visited
  // slot but not yet due (wheel wrap-around) are re-filed one revolution
  // out. `now` must be monotone across calls.
  template <typename Fn>
  std::size_t advance(double now, Fn&& fn) {
    std::size_t fired = 0;
    const std::int64_t now_tick = tick_of(now);
    if (last_tick_ == std::numeric_limits<std::int64_t>::min()) {
      last_tick_ = now_tick - 1;
    }
    // Visit at most one full revolution — beyond that every slot has been
    // examined once and re-filed entries must wait for their tick.
    const std::int64_t from = last_tick_ + 1;
    const std::int64_t to =
        std::min(now_tick, from + static_cast<std::int64_t>(slots_) - 1);
    for (std::int64_t t = from; t <= to; ++t) {
      auto& slot = wheel_[slot_index(t)];
      std::size_t keep = 0;
      for (std::size_t i = 0; i < slot.size(); ++i) {
        Entry e = slot[i];
        auto it = state_.find(e.id);
        if (it == state_.end() || it->second.gen != e.gen) {
          continue;  // cancelled or re-armed: drop lazily
        }
        if (e.deadline <= now) {
          state_.erase(it);
          ++fired;
          fn(e.id);
        } else {
          slot[keep++] = e;  // wrapped: due on a later revolution
        }
      }
      slot.resize(keep);
    }
    last_tick_ = now_tick;
    return fired;
  }

  double tick_seconds() const { return tick_s_; }

 private:
  struct Entry {
    std::uint64_t id = 0;
    std::uint64_t gen = 0;
    double deadline = 0.0;
  };
  struct IdState {
    std::uint64_t gen = 0;
    double deadline = 0.0;
  };

  std::int64_t tick_of(double t) const {
    return static_cast<std::int64_t>(t / tick_s_);
  }
  std::size_t slot_index(std::int64_t tick) const {
    const std::int64_t s = static_cast<std::int64_t>(slots_);
    return static_cast<std::size_t>(((tick % s) + s) % s);
  }

  double tick_s_;
  std::size_t slots_;
  std::vector<std::vector<Entry>> wheel_;
  std::unordered_map<std::uint64_t, IdState> state_;
  std::uint64_t last_gen_ = 0;
  std::int64_t last_tick_ = std::numeric_limits<std::int64_t>::min();
};

}  // namespace oak::wire
