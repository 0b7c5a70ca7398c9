#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <utility>

namespace rustbrain::support {

std::size_t ThreadPool::hardware_threads() {
    // Shared machines (CI, build boxes) tune sweep width without touching
    // code: a positive RUSTBRAIN_WORKERS wins over the detected core count.
    // BatchReport.workers_used reflects whatever this returns.
    if (const char* env = std::getenv("RUSTBRAIN_WORKERS")) {
        char* end = nullptr;
        const long value = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && value > 0) {
            return static_cast<std::size_t>(value);
        }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(std::size_t threads) {
    const std::size_t count = threads == 0 ? hardware_threads() : threads;
    deques_.resize(count);
    executed_.resize(count);
    threads_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        threads_.emplace_back([this, i] { worker_loop(i); });
    }
}

ThreadPool::~ThreadPool() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_ready_.notify_all();
    // Workers drain every deque before they exit.
    for (std::thread& thread : threads_) {
        thread.join();
    }
}

void ThreadPool::submit(Task task) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        deques_[next_target_++ % deques_.size()].push_back(std::move(task));
        ++queued_;
        ++outstanding_;
        ++submitted_;
    }
    work_ready_.notify_one();
}

ThreadPool::Task ThreadPool::take(std::size_t worker) {
    --queued_;
    std::deque<Task>& own = deques_[worker];
    if (!own.empty()) {
        Task task = std::move(own.back());
        own.pop_back();  // LIFO on our own deque
        return task;
    }
    ++steals_;
    for (std::size_t offset = 1;; ++offset) {
        std::deque<Task>& victim = deques_[(worker + offset) % deques_.size()];
        if (!victim.empty()) {
            Task task = std::move(victim.front());
            victim.pop_front();  // FIFO steal: take the oldest work
            return task;
        }
    }
}

void ThreadPool::worker_loop(std::size_t worker) {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        work_ready_.wait(lock, [this] { return stopping_ || queued_ > 0; });
        if (queued_ == 0) return;  // stopping_, and nothing left to run
        Task task = take(worker);
        lock.unlock();
        std::exception_ptr error;
        try {
            task(worker);
        } catch (...) {
            error = std::current_exception();
        }
        task = nullptr;  // captures die before wait_idle() can return
        lock.lock();
        if (error && !first_error_) first_error_ = error;
        ++executed_[worker];
        if (--outstanding_ == 0) all_done_.notify_all();
    }
}

void ThreadPool::wait_idle() {
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        all_done_.wait(lock, [this] { return outstanding_ == 0; });
        error = std::exchange(first_error_, nullptr);
    }
    if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for(
    std::size_t count,
    const std::function<void(std::size_t index, std::size_t worker)>& body) {
    if (count == 0) return;
    // wait_idle() returns only once every task below has finished, so the
    // tasks may share these locals by reference.
    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> failed{false};
    const std::size_t tasks = std::min(size(), count);
    for (std::size_t t = 0; t < tasks; ++t) {
        submit([&](std::size_t worker) {
            while (!failed.load(std::memory_order_relaxed)) {
                const std::size_t index =
                    cursor.fetch_add(1, std::memory_order_relaxed);
                if (index >= count) return;
                try {
                    body(index, worker);
                } catch (...) {
                    failed.store(true, std::memory_order_relaxed);
                    throw;
                }
            }
        });
    }
    wait_idle();
}

ThreadPool::Stats ThreadPool::stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return Stats{submitted_, steals_, executed_};
}

}  // namespace rustbrain::support
