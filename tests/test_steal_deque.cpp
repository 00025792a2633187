// StealDeque unit + stress tests. The stress cases are the repo's tsan
// canary for the exec module: every CI sanitizer leg runs them, and the
// deque's seq_cst formulation exists precisely so ThreadSanitizer models
// it exactly (no fences).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <optional>
#include <thread>
#include <vector>

#include "exec/steal_deque.hpp"

namespace {

using eclat::exec::StealDeque;

TEST(StealDeque, OwnerPopsLifo) {
  StealDeque deque(8);
  deque.push(1);
  deque.push(2);
  deque.push(3);
  EXPECT_EQ(deque.size_hint(), 3u);
  EXPECT_EQ(deque.pop(), std::optional<std::size_t>(3));
  EXPECT_EQ(deque.pop(), std::optional<std::size_t>(2));
  EXPECT_EQ(deque.pop(), std::optional<std::size_t>(1));
  EXPECT_EQ(deque.pop(), std::nullopt);
  EXPECT_EQ(deque.size_hint(), 0u);
}

TEST(StealDeque, ThievesStealFifo) {
  StealDeque deque(8);
  deque.push(1);
  deque.push(2);
  deque.push(3);
  EXPECT_EQ(deque.steal(), std::optional<std::size_t>(1));
  EXPECT_EQ(deque.pop(), std::optional<std::size_t>(3));
  EXPECT_EQ(deque.steal(), std::optional<std::size_t>(2));
  EXPECT_EQ(deque.steal(), std::nullopt);
  EXPECT_EQ(deque.pop(), std::nullopt);
}

TEST(StealDeque, PushAfterDrainReusesRing) {
  StealDeque deque(2);  // rounds up to capacity 2
  for (int round = 0; round < 10; ++round) {
    deque.push(static_cast<std::size_t>(round));
    deque.push(static_cast<std::size_t>(round) + 100);
    EXPECT_EQ(deque.steal(), std::optional<std::size_t>(round));
    EXPECT_EQ(deque.pop(),
              std::optional<std::size_t>(static_cast<std::size_t>(round) +
                                         100));
  }
  EXPECT_EQ(deque.pop(), std::nullopt);
}

/// Exactly-once delivery under owner-vs-thief contention: every pushed
/// task must be acquired by exactly one party, none lost, none duplicated.
void exactly_once_stress(std::size_t tasks, std::size_t thieves,
                         bool interleave_pushes) {
  StealDeque deque(tasks);
  std::atomic<std::size_t> remaining{tasks};
  std::vector<std::vector<std::size_t>> acquired(thieves + 1);

  std::vector<std::thread> pool;
  for (std::size_t thief = 0; thief < thieves; ++thief) {
    pool.emplace_back([&, thief] {
      while (remaining.load(std::memory_order_relaxed) > 0) {
        if (const std::optional<std::size_t> task = deque.steal()) {
          acquired[1 + thief].push_back(*task);
          remaining.fetch_sub(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }

  // Owner: push everything (optionally popping along the way), then drain.
  for (std::size_t task = 0; task < tasks; ++task) {
    deque.push(task);
    if (interleave_pushes && task % 3 == 0) {
      if (const std::optional<std::size_t> got = deque.pop()) {
        acquired[0].push_back(*got);
        remaining.fetch_sub(1, std::memory_order_relaxed);
      }
    }
  }
  while (remaining.load(std::memory_order_relaxed) > 0) {
    if (const std::optional<std::size_t> got = deque.pop()) {
      acquired[0].push_back(*got);
      remaining.fetch_sub(1, std::memory_order_relaxed);
    } else {
      std::this_thread::yield();
    }
  }
  for (std::thread& t : pool) t.join();

  std::vector<std::size_t> all;
  for (const std::vector<std::size_t>& part : acquired) {
    all.insert(all.end(), part.begin(), part.end());
  }
  ASSERT_EQ(all.size(), tasks);
  std::sort(all.begin(), all.end());
  for (std::size_t task = 0; task < tasks; ++task) {
    ASSERT_EQ(all[task], task) << "task lost or duplicated";
  }
}

TEST(StealDeque, ExactlyOnceUnderContention) {
  exactly_once_stress(20'000, 3, /*interleave_pushes=*/false);
}

TEST(StealDeque, ExactlyOnceWithInterleavedPushes) {
  exactly_once_stress(20'000, 3, /*interleave_pushes=*/true);
}

TEST(StealDeque, ExactlyOnceManyThieves) {
  exactly_once_stress(5'000, 7, /*interleave_pushes=*/true);
}

}  // namespace
