// Contention stress for util::thread_pool's barrier protocol (DESIGN.md
// §13). These tests deliberately share NON-atomic state across the phase
// boundary: lanes read values rival lanes wrote in the previous phase, and
// the main thread's barrier callback mutates state every lane reads next
// phase. That is only defined behaviour if run_phased establishes a
// happens-before edge lane-write → barrier → lane-read — exactly the
// contract the shard coordinator's mailbox exchange leans on — so under
// TSan (VTM_SANITIZE=thread) these tests verify the synchronization itself,
// not merely the observable ordering.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/thread_pool.hpp"

namespace {

/// Data-dependent spin so lanes finish phases in scrambled order; returns
/// the hash so the work cannot be optimized away.
std::uint64_t churn(std::uint64_t seed, std::uint64_t rounds) {
  std::uint64_t h = seed | 1;
  for (std::uint64_t i = 0; i < rounds; ++i) {
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
  }
  return h;
}

}  // namespace

// More lanes than workers, uneven per-lane work, and cross-lane reads of
// plain (non-atomic) values published in the previous phase. Any lane that
// outruns the barrier — or a barrier that runs before every lane drains —
// shows up both as a value mismatch and as a TSan race.
TEST(concurrency_stress, run_phased_orders_nonatomic_cross_lane_state) {
  constexpr std::size_t phases = 40;
  std::uint64_t sink = 0;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    vtm::util::thread_pool pool(threads);
    const std::size_t lanes = 2 * threads + 3;  // always oversubscribed
    // One churn accumulator per lane: lanes of one phase run concurrently,
    // so a shared one would be a same-phase race the barrier does not order.
    std::vector<std::uint64_t> lane_sinks(lanes, 0);

    // All plain values: the pool's barrier is the only synchronization.
    // Publications are double-buffered by phase parity so a lane's read of
    // its rival's *previous-phase* value never overlaps the rival's
    // same-phase write — the cross-phase edge is the one under test.
    std::vector<std::vector<std::size_t>> published(
        2, std::vector<std::size_t>(lanes, 0));
    std::size_t epoch = 0;  // written by the barrier, read by every lane
    std::atomic<int> violations{0};

    pool.run_phased(
        lanes,
        [&](std::size_t lane, std::size_t phase) {
          // The barrier's write to `epoch` must be visible here.
          if (epoch != phase) ++violations;
          // The *rival* lane's previous-phase publication must be visible:
          // this read is cross-thread and non-atomic on purpose.
          const std::size_t rival = (lane + 1) % lanes;
          if (phase > 0 &&
              published[(phase - 1) % 2][rival] != (phase - 1) * lanes + rival)
            ++violations;
          lane_sinks[lane] +=
              churn(lane * 977 + phase, (lane * 31 + phase * 7) % 997);
          published[phase % 2][lane] = phase * lanes + lane;
        },
        [&](std::size_t phase) {
          // Serial section: every lane's write of this phase is visible.
          for (std::size_t lane = 0; lane < lanes; ++lane)
            if (published[phase % 2][lane] != phase * lanes + lane)
              ++violations;
          ++epoch;
          return phase + 1 < phases;
        });

    EXPECT_EQ(violations.load(), 0) << "threads=" << threads;
    EXPECT_EQ(epoch, phases);
    for (const std::uint64_t lane_sink : lane_sinks) sink += lane_sink;
  }
  // Keep the spin loops alive past the optimizer.
  EXPECT_NE(sink, 0u);
}

// Generation churn: back-to-back parallel_for jobs reusing the same pool,
// each writing plain per-index slots the main thread reads immediately
// after the call returns. Verifies the per-job join edge (worker write →
// parallel_for return) across many generations, including empty jobs.
TEST(concurrency_stress, parallel_for_generations_publish_results) {
  vtm::util::thread_pool pool(3);
  constexpr std::size_t rounds = 200;
  constexpr std::size_t n = 17;  // odd, > workers, exercises work stealing
  std::vector<std::uint64_t> out(n, 0);
  for (std::size_t round = 0; round < rounds; ++round) {
    if (round % 16 == 15) {
      pool.parallel_for(0, [&](std::size_t) { FAIL() << "empty job ran"; });
      continue;
    }
    pool.parallel_for(n, [&](std::size_t i) {
      out[i] = churn(round * n + i, 1 + (i * 13 + round) % 61);
    });
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(out[i], churn(round * n + i, 1 + (i * 13 + round) % 61))
          << "round " << round << " index " << i;
  }
}

// A lane exception mid-run must drain cleanly (no worker left touching
// shared state after run_phased returns) and leave the pool reusable.
TEST(concurrency_stress, run_phased_survives_lane_exception_under_load) {
  vtm::util::thread_pool pool(4);
  constexpr std::size_t lanes = 11;
  std::vector<std::size_t> scratch(lanes, 0);
  EXPECT_THROW(pool.run_phased(
                   lanes,
                   [&](std::size_t lane, std::size_t phase) {
                     scratch[lane] = churn(lane, 50 + lane) % 1000;
                     if (phase == 2 && lane == 7) throw std::runtime_error("x");
                   },
                   [](std::size_t) { return true; }),
               std::runtime_error);
  // The pool survives and the barrier protocol still orders a fresh run.
  std::size_t epoch = 0;
  std::atomic<int> violations{0};
  pool.run_phased(
      lanes,
      [&](std::size_t, std::size_t phase) {
        if (epoch != phase) ++violations;
      },
      [&](std::size_t phase) {
        ++epoch;
        return phase + 1 < 3;
      });
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(epoch, 3u);
}
