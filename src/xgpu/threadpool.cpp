#include "xgpu/threadpool.h"

#include <algorithm>

namespace xehe::xgpu {

ThreadPool::ThreadPool(unsigned worker_count) {
    if (worker_count == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        worker_count = hw > 1 ? hw - 1 : 0;
        worker_count = std::min(worker_count, 15u);
    }
    workers_.reserve(worker_count);
    for (unsigned i = 0; i < worker_count; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        util::MutexLock lock(mutex_);
        stop_ = true;
    }
    cv_work_.notify_all();
    for (auto &t : workers_) {
        t.join();
    }
}

void ThreadPool::run_chunks(Job &job) {
    // Chunk size balances scheduling overhead against load imbalance.
    const std::size_t chunk = std::max<std::size_t>(1, job.count / 256);
    for (;;) {
        const std::size_t begin = job.next.fetch_add(chunk);
        if (begin >= job.count) {
            break;
        }
        const std::size_t end = std::min(begin + chunk, job.count);
        try {
            for (std::size_t i = begin; i < end; ++i) {
                (*job.fn)(i);
            }
        } catch (...) {
            if (!job.failed.exchange(true)) {
                job.error = std::current_exception();
            }
            // Hand out nothing more: claim the unclaimed tail as done.
            const std::size_t claimed = job.next.exchange(job.count);
            if (claimed < job.count) {
                job.done.fetch_add(job.count - claimed);
            }
        }
        job.done.fetch_add(end - begin);
    }
}

void ThreadPool::worker_loop() {
    uint64_t seen_generation = 0;
    for (;;) {
        std::shared_ptr<Job> job;
        {
            util::MutexLock lock(mutex_);
            while (!stop_ &&
                   !(job_ != nullptr && generation_ != seen_generation)) {
                cv_work_.wait(mutex_);
            }
            if (stop_) {
                return;
            }
            job = job_;
            seen_generation = generation_;
        }
        run_chunks(*job);
        // Empty critical section orders the `done` increments before the
        // caller's predicate re-check, avoiding a lost wakeup.
        { util::MutexLock lock(mutex_); }
        cv_done_.notify_one();
    }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)> &fn) {
    if (count == 0) {
        return;
    }
    if (workers_.empty() || count == 1) {
        for (std::size_t i = 0; i < count; ++i) {
            fn(i);
        }
        return;
    }
    auto job = std::make_shared<Job>();
    job->count = count;
    job->fn = &fn;
    {
        util::MutexLock lock(mutex_);
        job_ = job;
        ++generation_;
    }
    cv_work_.notify_all();
    run_chunks(*job);
    {
        util::MutexLock lock(mutex_);
        while (job->done.load() < job->count) {
            cv_done_.wait(mutex_);
        }
        job_.reset();
    }
    if (job->failed.load()) {
        std::rethrow_exception(job->error);
    }
}

ThreadPool &ThreadPool::global() {
    static ThreadPool pool;
    return pool;
}

}  // namespace xehe::xgpu
