#include "xgpu/buffer.h"

#include <sys/mman.h>

#include <algorithm>
#include <new>

#include "util/common.h"

namespace xehe::xgpu {

DeviceBuffer &DeviceBuffer::operator=(DeviceBuffer &&other) noexcept {
    if (this != &other) {
        if (cache_ != nullptr && capacity_ != 0) {
            cache_->release(std::move(storage_), capacity_);
        }
        storage_ = std::move(other.storage_);
        data_ = other.data_;
        size_ = other.size_;
        capacity_ = other.capacity_;
        cache_ = other.cache_;
        other.storage_ = {};
        other.data_ = nullptr;
        other.size_ = 0;
        other.capacity_ = 0;
        other.cache_ = nullptr;
    }
    return *this;
}

DeviceBuffer::~DeviceBuffer() {
    if (cache_ != nullptr && capacity_ != 0) {
        cache_->release(std::move(storage_), capacity_);
    }
}

DeviceBuffer MemoryCache::allocate(std::size_t words) {
    util::MutexLock lock(mutex_);
    ++stats_.requests;
    if (enabled_) {
        // Smallest free buffer with capacity >= request.
        auto it = free_pool_.lower_bound(words);
        if (it != free_pool_.end()) {
            const std::size_t capacity = it->first;
            std::vector<uint64_t> storage = std::move(it->second);
            free_pool_.erase(it);
            ++stats_.cache_hits;
            stats_.sim_alloc_ns += spec_.cached_malloc_overhead_ns;
            return hand_out(std::move(storage), words, capacity);
        }
    }
    ++stats_.device_allocs;
    stats_.sim_alloc_ns += spec_.malloc_overhead_ns;
    return hand_out({}, words, words);
}

DeviceBuffer MemoryCache::hand_out(std::vector<uint64_t> storage,
                                   std::size_t words, std::size_t capacity) {
    // Capacity, not requested words, is what the device actually holds.
    stats_.live_bytes += capacity * sizeof(uint64_t);
    stats_.peak_live_bytes =
        std::max(stats_.peak_live_bytes, stats_.live_bytes);
    if (size_only_) {
        if (capacity == 0) {
            // Never released (nothing to return), so not counted live.
            return DeviceBuffer({}, nullptr, words, 0, this);
        }
        ++live_size_only_;
        return DeviceBuffer({}, size_only_base(capacity), words, capacity,
                            this);
    }
    if (storage.empty()) {
        storage.assign(capacity, 0);  // fresh, or last handed out size-only
    } else {
        std::fill(storage.begin(), storage.begin() + words, 0);
    }
    return DeviceBuffer(std::move(storage), nullptr, words, capacity, this);
}

uint64_t *MemoryCache::size_only_base(std::size_t capacity) {
    const std::size_t bytes = capacity * sizeof(uint64_t);
    if (reserved_.empty() || reserved_.back().second < bytes) {
        // Geometric growth keeps reservations rare; PROT_NONE +
        // MAP_NORESERVE takes address space only, never memory.
        const std::size_t grown = std::max(
            bytes, reserved_.empty() ? 0 : 2 * reserved_.back().second);
        void *addr = mmap(nullptr, grown, PROT_NONE,
                          MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
        if (addr == MAP_FAILED) {
            throw std::bad_alloc();
        }
        reserved_.emplace_back(addr, grown);
    }
    return static_cast<uint64_t *>(reserved_.back().first);
}

MemoryCache::~MemoryCache() {
    for (const auto &[addr, bytes] : reserved_) {
        munmap(addr, bytes);
    }
}

void MemoryCache::set_size_only(bool size_only) {
    util::MutexLock lock(mutex_);
    util::require(size_only || live_size_only_ == 0,
                  "memory cache: size-only buffers are still live");
    size_only_ = size_only;
}

void MemoryCache::release(std::vector<uint64_t> &&storage,
                          std::size_t capacity) {
    util::MutexLock lock(mutex_);
    ++stats_.frees;
    if (storage.empty()) {
        --live_size_only_;  // a live buffer with capacity has storage
    }
    const std::size_t bytes = capacity * sizeof(uint64_t);
    stats_.live_bytes = stats_.live_bytes >= bytes
                            ? stats_.live_bytes - bytes
                            : 0;
    if (enabled_) {
        free_pool_.emplace(capacity, std::move(storage));
    }
}

void MemoryCache::clear() {
    util::MutexLock lock(mutex_);
    free_pool_.clear();
}

}  // namespace xehe::xgpu
