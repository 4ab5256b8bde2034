// Device memory buffers and the paper's memory-cache mechanism (Fig. 11).
//
// A request for a device buffer is routed through the MemoryCache: any free
// buffer whose capacity covers the request is recycled (cheap); otherwise a
// fresh allocation is made, charging the runtime's allocation overhead to
// the simulated timeline.  Freed buffers return to the free pool.
// Disabling the cache reproduces the paper's baseline where every request
// pays the `sycl::malloc` cost (Fig. 19 ablation).
//
// A cost-only queue puts its cache in size-only mode: buffers are then
// capacities without storage (no fill), because no kernel ever reads
// them.  Capacity is tracked as a word count either way, so the Stats —
// and with them the simulated allocation charges — do not depend on
// whether a payload exists.
#pragma once

#include <map>
#include <span>
#include <vector>

#include "util/mutex.h"
#include "xgpu/device.h"

namespace xehe::xgpu {

class MemoryCache;

/// Movable owning handle to device memory (64-bit words).  Returns its
/// storage to the owning MemoryCache's free pool on destruction.  A
/// size-only buffer (from a cost-only queue) reports its size() but has
/// no storage: data() points into address space the cache reserved and
/// never made accessible.  Forming sub-spans of it is well defined (kernel
/// setup does, for bodies that never run); any access faults.
class DeviceBuffer {
public:
    DeviceBuffer() = default;
    DeviceBuffer(const DeviceBuffer &) = delete;
    DeviceBuffer &operator=(const DeviceBuffer &) = delete;
    DeviceBuffer(DeviceBuffer &&other) noexcept { *this = std::move(other); }
    DeviceBuffer &operator=(DeviceBuffer &&other) noexcept;
    ~DeviceBuffer();

    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }
    uint64_t *data() noexcept { return data_; }
    const uint64_t *data() const noexcept { return data_; }
    std::span<uint64_t> span() noexcept { return {data_, size_}; }
    std::span<const uint64_t> span() const noexcept { return {data_, size_}; }

    uint64_t &operator[](std::size_t i) noexcept { return data_[i]; }
    uint64_t operator[](std::size_t i) const noexcept { return data_[i]; }

private:
    friend class MemoryCache;
    /// `reserved` is the size-only base, or null to address `storage`.
    DeviceBuffer(std::vector<uint64_t> storage, uint64_t *reserved,
                 std::size_t size, std::size_t capacity, MemoryCache *cache)
        : storage_(std::move(storage)),
          data_(reserved != nullptr ? reserved : storage_.data()),
          size_(size), capacity_(capacity), cache_(cache) {}

    std::vector<uint64_t> storage_;  ///< empty when size-only
    uint64_t *data_ = nullptr;
    std::size_t size_ = 0;
    /// Words the cache accounts for (the storage's length when present).
    std::size_t capacity_ = 0;
    MemoryCache *cache_ = nullptr;
};

/// Free/used-pool device allocator (Section III-C1).
class MemoryCache {
public:
    struct Stats {
        std::size_t requests = 0;       ///< total allocation requests
        std::size_t device_allocs = 0;  ///< requests served by sycl::malloc
        std::size_t cache_hits = 0;     ///< requests served from the free pool
        std::size_t frees = 0;          ///< buffers returned to the free pool
        double sim_alloc_ns = 0.0;      ///< simulated allocation time charged
        std::size_t live_bytes = 0;     ///< bytes in buffers now handed out
        std::size_t peak_live_bytes = 0;  ///< high-water mark of live_bytes
    };

    explicit MemoryCache(DeviceSpec spec = DeviceSpec{})
        : spec_(std::move(spec)) {}
    ~MemoryCache();
    MemoryCache(const MemoryCache &) = delete;
    MemoryCache &operator=(const MemoryCache &) = delete;

    /// Enables or disables recycling (paper baseline has it off).
    void set_enabled(bool enabled) {
        util::MutexLock lock(mutex_);
        enabled_ = enabled;
    }
    bool enabled() const {
        util::MutexLock lock(mutex_);
        return enabled_;
    }

    /// Allocates `words` 64-bit words of device memory (zeroed, or
    /// size-only in size-only mode).
    DeviceBuffer allocate(std::size_t words);

    /// Point-in-time copy (the cache mutates from any allocating thread).
    Stats stats() const {
        util::MutexLock lock(mutex_);
        return stats_;
    }
    void reset_stats() {
        util::MutexLock lock(mutex_);
        stats_ = Stats{};
    }

    /// Drops all cached free buffers.
    void clear();

private:
    friend class DeviceBuffer;
    /// Queue::set_functional is the only way in or out of size-only mode.
    friend class Queue;

    /// Size-only mode: allocate() hands out buffers without storage.
    /// Leaving it throws std::invalid_argument while any size-only buffer
    /// is still live (its holder would read memory that does not exist).
    void set_size_only(bool size_only);

    void release(std::vector<uint64_t> &&storage, std::size_t capacity);
    /// Accounts a buffer of `capacity` words as live and hands it out,
    /// with `storage` zeroed over `words` (or dropped in size-only mode).
    DeviceBuffer hand_out(std::vector<uint64_t> storage, std::size_t words,
                          std::size_t capacity) REQUIRES(mutex_);
    /// Base for a size-only buffer of `capacity` words: inaccessible
    /// address space, grown to the largest capacity asked for so far.
    uint64_t *size_only_base(std::size_t capacity) REQUIRES(mutex_);

    DeviceSpec spec_;
    mutable util::Mutex mutex_;
    bool enabled_ GUARDED_BY(mutex_) = true;
    bool size_only_ GUARDED_BY(mutex_) = false;
    std::size_t live_size_only_ GUARDED_BY(mutex_) = 0;
    /// Reserved regions (address, bytes), largest last; earlier ones stay
    /// mapped while size-only buffers may still point into them.
    std::vector<std::pair<void *, std::size_t>> reserved_
        GUARDED_BY(mutex_);
    Stats stats_ GUARDED_BY(mutex_);
    /// Capacity (words) -> storage; the storage is empty for a block that
    /// was last handed out size-only.
    std::multimap<std::size_t, std::vector<uint64_t>> free_pool_
        GUARDED_BY(mutex_);
};

}  // namespace xehe::xgpu
