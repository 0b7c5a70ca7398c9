// Fixed-size work-stealing worker pool, for corpus sweeps and the
// long-lived repair service alike.
//
// Each worker owns a deque. submit() places tasks round-robin over the
// deques; an owner pops its newest task first (LIFO keeps its working set
// warm), and a worker whose deque is empty steals a sibling's oldest task
// (FIFO takes the work the owner would reach last). Steal counts and
// per-worker execution tallies are exposed so imbalance is measurable.
//
// parallel_for(n, body) runs body(index, worker) for every index in
// [0, n) through one cursor-draining task per worker, so indices are
// load-balanced whatever each one costs. A worker runs one task at a time,
// so callers can keep one expensive engine (e.g. a RustBrain instance) per
// worker id.
//
// Exceptions thrown by tasks are captured and rethrown on the next
// wait_idle() (first one wins); the worker that caught one keeps serving.
// Inside parallel_for, indices not yet started when a body throws never
// run.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rustbrain::support {

class ThreadPool {
  public:
    /// Runs on the worker that executed it; `worker` is in [0, size()).
    using Task = std::function<void(std::size_t worker)>;

    struct Stats {
        std::uint64_t submitted = 0;
        std::uint64_t steals = 0;  // tasks executed off another worker's deque
        std::vector<std::uint64_t> executed;  // per worker
    };

    /// `threads == 0` means hardware_threads().
    explicit ThreadPool(std::size_t threads = 0);
    /// Runs every task still queued, then joins the workers.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] std::size_t size() const { return threads_.size(); }

    /// Enqueue one task (thread-safe; round-robin over the worker deques).
    void submit(Task task);

    /// Block until every submitted task has finished, then rethrow the
    /// first captured task exception (if any).
    void wait_idle();

    /// Run body(index, worker) for every index in [0, count). Blocks until
    /// done; rethrows the first body exception.
    void parallel_for(std::size_t count,
                      const std::function<void(std::size_t index,
                                               std::size_t worker)>& body);

    [[nodiscard]] Stats stats() const;

    /// A positive RUSTBRAIN_WORKERS env value if set, else
    /// max(1, std::thread::hardware_concurrency()).
    static std::size_t hardware_threads();

  private:
    void worker_loop(std::size_t worker);
    /// Pop from our own deque (back = newest), else steal from a sibling
    /// (front = oldest). Requires mutex_ held and queued_ > 0.
    Task take(std::size_t worker);

    mutable std::mutex mutex_;  // guards everything below but threads_
    std::condition_variable work_ready_;
    std::condition_variable all_done_;
    std::vector<std::deque<Task>> deques_;
    std::vector<std::uint64_t> executed_;
    std::uint64_t queued_ = 0;       // submitted, not yet taken
    std::uint64_t outstanding_ = 0;  // submitted, not yet finished
    std::uint64_t submitted_ = 0;
    std::uint64_t steals_ = 0;
    std::size_t next_target_ = 0;  // round-robin submission cursor
    bool stopping_ = false;
    std::exception_ptr first_error_;
    /// Declared last: the workers start once the state above exists.
    std::vector<std::thread> threads_;
};

}  // namespace rustbrain::support
