// The thread backend's worker crew (src/exec/crew.hpp): the calling
// thread is worker 0 and W - 1 helper threads start once per crew; every
// step runs exactly once on every worker and ends at a barrier; an
// exception is rethrown only after the whole step finished, the crew
// stays usable, and destroying it joins the helpers.
#include "exec/crew.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <iterator>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

namespace eclat::exec {
namespace {

constexpr std::size_t kWidths[] = {1, 2, 3, 4, 8};

TEST(Crew, EveryStepRunsOnceOnEveryWorkerAndWorkerZeroIsTheCaller) {
  constexpr std::size_t kSteps = 50;
  for (const std::size_t workers : kWidths) {
    SCOPED_TRACE(workers);
    Crew crew(workers);
    std::vector<std::size_t> runs(workers, 0);
    std::vector<std::thread::id> first(workers);
    std::vector<std::size_t> moved(workers, 0);  // steps on another thread
    for (std::size_t step = 0; step < kSteps; ++step) {
      crew.run([&](std::size_t w) {
        if (runs[w]++ == 0) first[w] = std::this_thread::get_id();
        moved[w] += first[w] != std::this_thread::get_id();
      });
    }
    EXPECT_EQ(runs, std::vector<std::size_t>(workers, kSteps));
    EXPECT_EQ(moved, std::vector<std::size_t>(workers, 0));
    EXPECT_EQ(first[0], std::this_thread::get_id());
    EXPECT_EQ(std::set(first.begin(), first.end()).size(), workers);
  }
}

// The threads of this process, as listed in /proc/self/task.
std::optional<std::size_t> process_threads() {
  std::error_code error;
  const std::filesystem::directory_iterator tasks("/proc/self/task", error);
  if (error) return std::nullopt;
  return static_cast<std::size_t>(
      std::distance(tasks, std::filesystem::directory_iterator()));
}

// The thread count once it has held for 10 ms: a joined thread can stay
// listed for a moment after its join returns.
std::optional<std::size_t> settled_threads() {
  std::optional<std::size_t> now = process_threads();
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::optional<std::size_t> next = process_threads();
    if (next == now) break;
    now = next;
  }
  return now;
}

TEST(Crew, StartsOneThreadPerHelperAndNoneForOneWorker) {
  // A sanitizer runtime may start a thread of its own along with the
  // process's first one; start and join one so the base counts it.
  std::thread([] {}).join();
  const std::optional<std::size_t> base = settled_threads();
  if (!base) GTEST_SKIP() << "/proc/self/task cannot be listed";
  for (const std::size_t workers : kWidths) {
    SCOPED_TRACE(workers);
    {
      Crew crew(workers);
      crew.run([](std::size_t) {});
      EXPECT_EQ(process_threads(), *base + workers - 1);
    }
    ASSERT_EQ(settled_threads(), base);
  }
}

TEST(Crew, WritesOfOneStepAreVisibleInTheNext) {
  for (const std::size_t workers : kWidths) {
    SCOPED_TRACE(workers);
    Crew crew(workers);
    std::vector<std::size_t> written(workers, 0);
    std::vector<std::size_t> seen(workers, 0);
    std::size_t base = 0;  // written by the caller between steps
    for (std::size_t round = 1; round <= 20; ++round) {
      base = round;
      crew.run([&](std::size_t w) { written[w] = base * (w + 1); });
      crew.run([&](std::size_t w) {
        std::size_t sum = 0;
        for (const std::size_t value : written) sum += value;
        seen[w] = sum;
      });
      const std::size_t expected = round * workers * (workers + 1) / 2;
      ASSERT_EQ(seen, std::vector<std::size_t>(workers, expected))
          << "round " << round;
    }
  }
}

// Worker `thrower` throws at once while every other worker is still busy
// in the step; run must rethrow only after they all finished it, and the
// next step must still run on every worker.
void expect_throw_after_the_whole_step(std::size_t workers,
                                       std::size_t thrower) {
  SCOPED_TRACE("workers " + std::to_string(workers) + ", thrower " +
               std::to_string(thrower));
  Crew crew(workers);
  std::vector<int> finished(workers, 0);
  try {
    crew.run([&](std::size_t w) {
      if (w == thrower) throw std::runtime_error("worker " + std::to_string(w));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished[w] = 1;
    });
    ADD_FAILURE() << "run did not rethrow";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()), "worker " + std::to_string(thrower));
  }
  for (std::size_t w = 0; w < workers; ++w) {
    if (w != thrower) {
      EXPECT_EQ(finished[w], 1) << "worker " << w;
    }
  }
  std::vector<int> later(workers, 0);
  crew.run([&](std::size_t w) { later[w] = 1; });
  EXPECT_EQ(later, std::vector<int>(workers, 1));
}

TEST(Crew, AnExceptionLeavesRunOnlyAfterTheWholeStepAndLaterStepsStillRun) {
  for (const std::size_t workers : kWidths) {
    expect_throw_after_the_whole_step(workers, 0);
    expect_throw_after_the_whole_step(workers, workers - 1);
  }
}

TEST(Crew, RethrowsTheLowestWorkersExceptionOnce) {
  for (const std::size_t workers : kWidths) {
    SCOPED_TRACE(workers);
    Crew crew(workers);
    for (const std::size_t lowest : {std::size_t{0}, workers / 2}) {
      try {
        crew.run([&](std::size_t w) {
          if (w >= lowest) throw std::runtime_error(std::to_string(w));
        });
        ADD_FAILURE() << "run did not rethrow";
      } catch (const std::runtime_error& error) {
        EXPECT_EQ(std::string(error.what()), std::to_string(lowest));
      }
      // The held exceptions went with the rethrow: a clean step is clean.
      EXPECT_NO_THROW(crew.run([](std::size_t) {}));
    }
  }
}

// Counts the helper threads that have exited: a thread's thread_local
// objects are destroyed before a join on it returns.
std::atomic<std::size_t> helper_exits{0};

struct ExitCounter {
  ~ExitCounter() { helper_exits.fetch_add(1); }
};

TEST(Crew, DestroyingTheCrewJoinsTheHelpersAlsoAfterAThrow) {
  for (const bool throws : {false, true}) {
    for (const std::size_t workers : kWidths) {
      SCOPED_TRACE("workers " + std::to_string(workers) +
                   (throws ? ", throws" : ""));
      helper_exits = 0;
      try {
        Crew crew(workers);
        crew.run([&](std::size_t w) {
          if (w != 0) {
            thread_local ExitCounter counter;
            static_cast<void>(counter);
          }
          if (throws && w + 1 == workers) throw std::runtime_error("last");
        });
        EXPECT_FALSE(throws) << "run did not rethrow";
      } catch (const std::runtime_error&) {
        EXPECT_TRUE(throws);
      }
      EXPECT_EQ(helper_exits.load(), workers - 1);
    }
  }
}

}  // namespace
}  // namespace eclat::exec
