// TimerWheel: the slowloris-deadline primitive. Single-threaded, driven
// with synthetic time — correctness here is what keeps a stalled peer from
// outliving its budget (or a healthy one from being cut off early).
#include <gtest/gtest.h>

#include <vector>

#include "wire/timer_wheel.h"

namespace oak::wire {
namespace {

std::vector<std::uint64_t> fire(TimerWheel& w, double now) {
  std::vector<std::uint64_t> out;
  w.advance(now, [&](std::uint64_t id) { out.push_back(id); });
  return out;
}

TEST(TimerWheel, FiresAtDeadlineNotBefore) {
  TimerWheel w(0.05);
  w.schedule(1, 1.0);
  EXPECT_TRUE(fire(w, 0.9).empty());
  EXPECT_TRUE(w.armed(1));
  const auto fired = fire(w, 1.1);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 1u);
  EXPECT_FALSE(w.armed(1));
}

TEST(TimerWheel, CancelSuppresses) {
  TimerWheel w(0.05);
  w.schedule(7, 0.5);
  w.cancel(7);
  EXPECT_TRUE(fire(w, 1.0).empty());
}

TEST(TimerWheel, RearmSupersedesOldDeadline) {
  TimerWheel w(0.05);
  w.schedule(3, 0.5);
  w.schedule(3, 2.0);  // pushed out: the 0.5 entry is stale
  EXPECT_TRUE(fire(w, 1.0).empty());
  EXPECT_EQ(fire(w, 2.1).size(), 1u);
}

TEST(TimerWheel, WrapAroundBeyondOneRevolution) {
  // 0.05 * 256 slots = 12.8 s per revolution; a 30 s deadline wraps.
  TimerWheel w(0.05, 256);
  w.schedule(9, 30.0);
  double t = 0.0;
  while (t < 29.9) {
    ASSERT_TRUE(fire(w, t).empty()) << "early fire at " << t;
    t += 0.5;
  }
  EXPECT_EQ(fire(w, 30.1).size(), 1u);
}

TEST(TimerWheel, PastDeadlineFiresOnNextAdvance) {
  TimerWheel w(0.05);
  fire(w, 10.0);        // establish the cursor
  w.schedule(4, 9.0);   // already in the past (loop lag)
  EXPECT_EQ(fire(w, 10.1).size(), 1u);  // not a revolution later
}

TEST(TimerWheel, ManyIdsShareSlots) {
  TimerWheel w(0.05, 8);  // tiny wheel: heavy slot sharing
  for (std::uint64_t id = 0; id < 100; ++id) {
    w.schedule(id, 0.1 + 0.01 * double(id));
  }
  std::size_t total = 0;
  for (double t = 0.0; t <= 1.3; t += 0.05) total += fire(w, t).size();
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(w.armed_count(), 0u);
}

TEST(TimerWheel, MultiRevolutionDeadlineFiresOnCorrectRevolution) {
  // 0.05 * 64 slots = 3.2 s per revolution; 10 s is three revolutions out.
  // The entry's slot is visited on every revolution and must be re-filed —
  // not fired — until its deadline actually arrives.
  TimerWheel w(0.05, 64);
  w.schedule(11, 10.0);
  double t = 0.0;
  while (t < 9.95) {
    ASSERT_TRUE(fire(w, t).empty()) << "early fire at " << t;
    ASSERT_TRUE(w.armed(11)) << "dropped at " << t;
    t += 0.1;
  }
  const auto fired = fire(w, 10.05);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 11u);
  EXPECT_EQ(w.armed_count(), 0u);
}

TEST(TimerWheel, WrappedEntrySurvivesSparseAdvances) {
  // Advance in jumps bigger than a tick (a laggy loop): the wrapped entry
  // must still fire exactly once, on its own revolution, never early.
  TimerWheel w(0.05, 32);  // 1.6 s per revolution
  w.schedule(21, 5.0);     // three revolutions out
  std::size_t fired = 0;
  double fired_at = 0.0;
  for (double t = 0.0; t < 6.0; t += 0.73) {
    const auto out = fire(w, t);
    if (!out.empty()) {
      fired += out.size();
      fired_at = t;
    }
  }
  EXPECT_EQ(fired, 1u);
  EXPECT_GE(fired_at, 5.0);
}

TEST(TimerWheel, CancelThenRearmIgnoresTheCancelledEntry) {
  // A cancel forgets the id; the 5 s entry it left in the wheel must not
  // match the id's next schedule(). Driven at the loop's tick cadence.
  TimerWheel w(0.05);
  w.schedule(7, 5.0);
  w.cancel(7);
  w.schedule(7, 35.0);
  std::vector<double> fired_at;
  for (int i = 0; i <= 702; ++i) {
    const double t = i * 0.05;
    for (std::uint64_t id : fire(w, t)) {
      EXPECT_EQ(id, 7u);
      fired_at.push_back(t);
    }
  }
  ASSERT_EQ(fired_at.size(), 1u);
  EXPECT_GE(fired_at[0], 35.0);
  EXPECT_EQ(w.armed_count(), 0u);
}

TEST(TimerWheel, RearmFromCallbackIgnoresSupersededEntry) {
  // 6 s is superseded by 5 s; when 5 s fires, its callback re-arms the
  // same id to 60 s. Firing forgets the id, and the superseded 6 s entry
  // is still filed: it must not match the re-arm.
  TimerWheel w(0.05);
  w.schedule(7, 6.0);
  w.schedule(7, 5.0);
  std::vector<double> fired_at;
  for (int i = 0; i <= 1202; ++i) {
    const double t = i * 0.05;
    w.advance(t, [&](std::uint64_t id) {
      EXPECT_EQ(id, 7u);
      fired_at.push_back(t);
      if (fired_at.size() == 1) w.schedule(7, 60.0);
    });
  }
  ASSERT_EQ(fired_at.size(), 2u);
  EXPECT_GE(fired_at[0], 5.0);
  EXPECT_LT(fired_at[0], 6.0);
  EXPECT_GE(fired_at[1], 60.0);
  EXPECT_EQ(w.armed_count(), 0u);
}

TEST(TimerWheel, RearmChurnLeavesNoStaleSlotEntries) {
  // The wire front-end's idle↔header dance: every keep-alive request
  // cancels one deadline and arms another. Stale entries are dropped
  // lazily, so churn briefly accretes slot garbage — but one full
  // revolution later every stale entry must have been visited and
  // dropped. A wheel that leaks slot entries here grows without bound
  // under steady keep-alive traffic.
  TimerWheel w(0.05, 16);  // 0.8 s per revolution
  double t = 0.0;
  fire(w, t);  // establish the cursor
  for (int req = 0; req < 200; ++req) {
    // header deadline while the head arrives...
    w.schedule(1, t + 0.3);
    t += 0.01;
    fire(w, t);
    // ...then the idle deadline between requests.
    w.schedule(1, t + 0.5);
    t += 0.01;
    fire(w, t);
  }
  EXPECT_EQ(w.armed_count(), 1u);  // only the live idle deadline
  // Cancel it (conn closed) and sweep one full revolution: every stale
  // entry the churn filed must be gone.
  w.cancel(1);
  for (double sweep = t; sweep <= t + 0.85; sweep += 0.05) fire(w, sweep);
  EXPECT_EQ(w.armed_count(), 0u);
  EXPECT_EQ(w.slot_entries(), 0u);
}

TEST(TimerWheel, ChurnAcrossManyConnsBoundsSlotGarbage) {
  // Same churn, many ids: after the sweep the wheel is empty even though
  // thousands of schedule() calls were filed into only 16 slots.
  TimerWheel w(0.05, 16);
  double t = 0.0;
  fire(w, t);
  for (int round = 0; round < 50; ++round) {
    for (std::uint64_t id = 1; id <= 20; ++id) {
      w.schedule(id, t + 0.4);
    }
    t += 0.02;
    fire(w, t);
  }
  EXPECT_EQ(w.armed_count(), 20u);
  for (std::uint64_t id = 1; id <= 20; ++id) w.cancel(id);
  for (double sweep = t; sweep <= t + 0.85; sweep += 0.05) fire(w, sweep);
  EXPECT_EQ(w.armed_count(), 0u);
  EXPECT_EQ(w.slot_entries(), 0u);
}

}  // namespace
}  // namespace oak::wire
