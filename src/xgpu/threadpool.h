// A small persistent thread pool used to execute simulated GPU work-groups
// and the host evaluator's limb loops on host cores.  parallel_for blocks
// until all indices are processed; work is handed out in chunks through an
// atomic counter.  Depends only on util/, so every layer may run on it.
#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/common.h"
#include "util/mutex.h"

namespace xehe::xgpu {

class ThreadPool {
public:
    explicit ThreadPool(unsigned worker_count = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned worker_count() const noexcept {
        return static_cast<unsigned>(workers_.size()) + 1;
    }

    /// Runs fn(i) for i in [0, count), distributing across workers.
    /// The calling thread participates.  Blocks until complete.  If any
    /// fn(i) throws, no further chunks are handed out, the call still
    /// waits for every running chunk, and then rethrows the first
    /// exception on the caller; the pool stays usable.
    void parallel_for(std::size_t count,
                      const std::function<void(std::size_t)> &fn);

    /// Process-wide shared pool.
    static ThreadPool &global();

private:
    struct Job {
        std::size_t count = 0;
        const std::function<void(std::size_t)> *fn = nullptr;
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
        /// Set once by the first throwing task, which alone then writes
        /// `error`; read by the caller after `done` reaches `count`.
        std::atomic<bool> failed{false};
        std::exception_ptr error;
    };

    void worker_loop();
    static void run_chunks(Job &job);

    std::vector<std::thread> workers_;
    util::Mutex mutex_;
    util::CondVar cv_work_;
    util::CondVar cv_done_;
    std::shared_ptr<Job> job_ GUARDED_BY(mutex_);
    bool stop_ GUARDED_BY(mutex_) = false;
    uint64_t generation_ GUARDED_BY(mutex_) = 0;
};

}  // namespace xehe::xgpu
