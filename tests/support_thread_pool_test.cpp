// ThreadPool: every task runs exactly once, idle workers steal from loaded
// siblings, parallel_for covers its range with stable worker ids, task
// exceptions surface on wait_idle and the pool keeps serving, and
// destruction runs whatever is still queued.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/thread_pool.hpp"

namespace rustbrain::support {
namespace {

TEST(ThreadPoolTest, HardwareThreadsAtLeastOne) {
    EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

TEST(ThreadPoolTest, HardwareThreadsHonorsWorkerEnvOverride) {
    // Sweeps on shared machines are tuned via RUSTBRAIN_WORKERS; garbage
    // and non-positive values fall back to the detected count.
    const std::size_t detected = ThreadPool::hardware_threads();
    ASSERT_EQ(setenv("RUSTBRAIN_WORKERS", "3", 1), 0);
    EXPECT_EQ(ThreadPool::hardware_threads(), 3u);
    ASSERT_EQ(setenv("RUSTBRAIN_WORKERS", "0", 1), 0);
    EXPECT_EQ(ThreadPool::hardware_threads(), detected);
    ASSERT_EQ(setenv("RUSTBRAIN_WORKERS", "lots", 1), 0);
    EXPECT_EQ(ThreadPool::hardware_threads(), detected);
    ASSERT_EQ(setenv("RUSTBRAIN_WORKERS", "2x", 1), 0);
    EXPECT_EQ(ThreadPool::hardware_threads(), detected);
    ASSERT_EQ(unsetenv("RUSTBRAIN_WORKERS"), 0);
    EXPECT_EQ(ThreadPool::hardware_threads(), detected);
}

TEST(ThreadPoolTest, ZeroRequestsHardwareThreads) {
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), ThreadPool::hardware_threads());
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
    ThreadPool pool(4);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    pool.parallel_for(kCount, [&](std::size_t index, std::size_t) {
        hits[index].fetch_add(1);
    });
    for (std::size_t i = 0; i < kCount; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPoolTest, WorkerIdsStayInRange) {
    ThreadPool pool(3);
    std::mutex mutex;
    std::set<std::size_t> seen;
    pool.parallel_for(64, [&](std::size_t, std::size_t worker) {
        const std::lock_guard<std::mutex> lock(mutex);
        seen.insert(worker);
    });
    ASSERT_FALSE(seen.empty());
    EXPECT_LT(*seen.rbegin(), pool.size());
}

TEST(ThreadPoolTest, SubmitWorkerIdsStayInRange) {
    ThreadPool pool(3);
    std::mutex mutex;
    std::set<std::size_t> seen;
    for (int i = 0; i < 64; ++i) {
        pool.submit([&](std::size_t worker) {
            const std::lock_guard<std::mutex> lock(mutex);
            seen.insert(worker);
        });
    }
    pool.wait_idle();
    ASSERT_FALSE(seen.empty());
    EXPECT_LT(*seen.rbegin(), pool.size());
}

TEST(ThreadPoolTest, ParallelForZeroCountIsNoop) {
    ThreadPool pool(2);
    pool.parallel_for(0, [&](std::size_t, std::size_t) { FAIL(); });
}

TEST(ThreadPoolTest, SubmitRunsJobsBeforeWaitIdleReturns) {
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    for (int i = 0; i < 32; ++i) {
        pool.submit([&counter](std::size_t) { counter.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPoolTest, EveryTaskRunsExactlyOnce) {
    ThreadPool pool(4);
    constexpr int kTasks = 500;
    std::atomic<int> runs{0};
    std::vector<std::atomic<int>> per_task(kTasks);
    for (auto& counter : per_task) counter = 0;
    for (int i = 0; i < kTasks; ++i) {
        pool.submit([&, i](std::size_t) {
            ++per_task[i];
            ++runs;
        });
    }
    pool.wait_idle();
    EXPECT_EQ(runs.load(), kTasks);
    for (int i = 0; i < kTasks; ++i) {
        EXPECT_EQ(per_task[i].load(), 1) << "task " << i;
    }
    const ThreadPool::Stats stats = pool.stats();
    EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kTasks));
    ASSERT_EQ(stats.executed.size(), pool.size());
    EXPECT_EQ(std::accumulate(stats.executed.begin(), stats.executed.end(),
                              std::uint64_t{0}),
              static_cast<std::uint64_t>(kTasks));
}

TEST(ThreadPoolTest, IdleWorkerStealsFromALoadedSibling) {
    ThreadPool pool(2);

    // Occupy one worker with a gate; only once it is demonstrably running
    // (not merely queued) pile tasks onto both deques: round-robin puts
    // half the backlog on the blocked worker's deque, which the free
    // worker can only reach by stealing.
    std::mutex gate_mutex;
    std::condition_variable gate_cv;
    bool gate_open = false;
    std::atomic<bool> gate_entered{false};
    std::atomic<int> done{0};
    pool.submit([&](std::size_t) {
        gate_entered = true;
        std::unique_lock<std::mutex> lock(gate_mutex);
        gate_cv.wait(lock, [&] { return gate_open; });
        ++done;
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!gate_entered.load() &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(gate_entered.load());
    for (int i = 0; i < 16; ++i) {
        pool.submit([&](std::size_t) { ++done; });
    }
    // The 16 follow-up tasks can only run on the one unblocked worker, and
    // half of them landed on the blocked worker's deque.
    while (done.load() < 16 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(done.load(), 16);
    {
        const std::lock_guard<std::mutex> lock(gate_mutex);
        gate_open = true;
    }
    gate_cv.notify_all();
    pool.wait_idle();
    EXPECT_EQ(done.load(), 17);
    EXPECT_GT(pool.stats().steals, 0u);
}

TEST(ThreadPoolTest, TaskExceptionSurfacesOnWaitIdle) {
    ThreadPool pool(2);
    std::atomic<int> survivors{0};
    pool.submit([](std::size_t) { throw std::runtime_error("task failed"); });
    for (int i = 0; i < 8; ++i) {
        pool.submit([&](std::size_t) { ++survivors; });
    }
    EXPECT_THROW(pool.wait_idle(), std::runtime_error);
    // The failure neither killed the workers nor wedged the queue.
    EXPECT_EQ(survivors.load(), 8);
    pool.submit([&](std::size_t) { ++survivors; });
    pool.wait_idle();  // error already consumed: no rethrow
    EXPECT_EQ(survivors.load(), 9);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturnsImmediately) {
    ThreadPool pool(2);
    pool.wait_idle();
    EXPECT_EQ(pool.stats().submitted, 0u);
}

TEST(ThreadPoolTest, DestructionRunsEveryQueuedTask) {
    // The one worker sleeps in the first task while the backlog queues
    // behind it; the pool is then destroyed without a wait_idle.
    constexpr int kTasks = 64;
    std::atomic<int> runs{0};
    {
        ThreadPool pool(1);
        pool.submit([&](std::size_t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            ++runs;
        });
        for (int i = 1; i < kTasks; ++i) {
            pool.submit([&](std::size_t) { ++runs; });
        }
    }
    EXPECT_EQ(runs.load(), kTasks);
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolStaysUsable) {
    ThreadPool pool(2);
    EXPECT_THROW(
        pool.parallel_for(100,
                          [&](std::size_t index, std::size_t) {
                              if (index == 13) {
                                  throw std::runtime_error("boom");
                              }
                          }),
        std::runtime_error);
    // The pool must still work after a failed batch.
    std::atomic<int> counter{0};
    pool.parallel_for(10, [&](std::size_t, std::size_t) { counter.fetch_add(1); });
    EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, ParallelForStartsNoIndexAfterAThrow) {
    // One worker takes the indices in order, so exactly 0..13 start.
    ThreadPool pool(1);
    std::atomic<int> started{0};
    EXPECT_THROW(pool.parallel_for(100,
                                   [&](std::size_t index, std::size_t) {
                                       ++started;
                                       if (index == 13) {
                                           throw std::runtime_error("boom");
                                       }
                                   }),
                 std::runtime_error);
    EXPECT_EQ(started.load(), 14);
}

TEST(ThreadPoolTest, SameWorkerIdNeverRunsConcurrently) {
    // An engine per worker is only safe if jobs with the same worker id are
    // serialized; assert no overlap per id.
    ThreadPool pool(4);
    std::vector<std::atomic<int>> active(pool.size());
    std::atomic<bool> overlapped{false};
    pool.parallel_for(256, [&](std::size_t, std::size_t worker) {
        if (active[worker].fetch_add(1) != 0) overlapped.store(true);
        active[worker].fetch_sub(1);
    });
    EXPECT_FALSE(overlapped.load());
}

}  // namespace
}  // namespace rustbrain::support
