#include "serve/key_manager.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace xehe::serve {

namespace {

/// Registry handles cached once: acquire() sits on the per-request path
/// and must not pay a name lookup per call.
struct KeyMetrics {
    obs::Counter &hits;
    obs::Counter &misses;
    obs::Counter &evictions;
    obs::Gauge &resident_bytes;
    obs::Gauge &peak_resident_bytes;
    obs::Histogram &reexpand_ns;

    static KeyMetrics &instance() {
        static KeyMetrics m{
            obs::Registry::global().counter("serve.keys.hits"),
            obs::Registry::global().counter("serve.keys.misses"),
            obs::Registry::global().counter("serve.keys.evictions"),
            obs::Registry::global().gauge("serve.keys.resident_bytes"),
            obs::Registry::global().gauge("serve.keys.peak_resident_bytes"),
            obs::Registry::global().histogram("serve.keys.reexpand_ns"),
        };
        return m;
    }
};

std::size_t kswitch_bytes(const ckks::KSwitchKey &key) {
    std::size_t words = 0;
    for (const auto &ct : key.keys) {
        words += ct.data.size();
    }
    return words * sizeof(uint64_t);
}

}  // namespace

std::size_t expanded_key_bytes(const ckks::RelinKeys &relin,
                               const ckks::GaloisKeys &galois) {
    std::size_t bytes = kswitch_bytes(relin.key);
    for (const auto &[elt, key] : galois.keys) {
        (void)elt;
        bytes += kswitch_bytes(key);
    }
    return bytes;
}

KeyManager::KeyManager(const ckks::CkksContext &context,
                       std::size_t budget_bytes, xgpu::ThreadPool *pool)
    : context_(&context), budget_bytes_(budget_bytes),
      pool_(pool != nullptr ? pool : &xgpu::ThreadPool::global()) {
    util::require(budget_bytes_ > 0, "key budget must be positive");
    stats_.budget_bytes = budget_bytes_;
}

KeyManager::ColdKSwitchKey KeyManager::make_cold(
    const ckks::KSwitchKey &key, std::size_t &cold_bytes) const {
    const std::size_t n = context_->n();
    const std::size_t rns = context_->key_rns();
    util::require(key.keys.size() == context_->max_level(),
                  "keys: key-switch key count must equal max_level");
    ColdKSwitchKey cold;
    cold.reserve(key.keys.size());
    for (const ckks::Ciphertext &ct : key.keys) {
        util::require(ct.size == 2, "keys: key ciphertext size must be 2");
        util::require(ct.rns == rns, "keys: key ciphertext rns != key_rns");
        util::require(ct.n == n && ct.data.size() == 2 * rns * n,
                      "keys: key ciphertext degree mismatch");
        ColdCiphertext c;
        // A seeded c1 is regenerated from its seed on expansion; only an
        // unseeded one has to be kept.
        const std::size_t stored = ct.a_seeded ? rns * n : 2 * rns * n;
        c.words.assign(ct.data.begin(), ct.data.begin() + stored);
        c.scale = ct.scale;
        c.ntt_form = ct.ntt_form;
        c.a_seeded = ct.a_seeded;
        c.a_seed = ct.a_seeded ? ct.a_seed : 0;
        cold_bytes += c.words.size() * sizeof(uint64_t) +
                      (c.a_seeded ? sizeof(c.a_seed) : 0);
        cold.push_back(std::move(c));
    }
    return cold;
}

std::shared_ptr<SessionKeys> KeyManager::expand(const Entry &entry) const {
    // Lay out every destination first (map nodes and vector slots stay
    // put), then fill them: each key ciphertext expands from its own seed,
    // so the fills are independent tasks.
    auto keys = std::make_shared<SessionKeys>();
    std::vector<std::pair<const ColdCiphertext *, ckks::Ciphertext *>> jobs;
    const auto lay_out = [&](const ColdKSwitchKey &from, ckks::KSwitchKey &to) {
        to.keys.resize(from.size());
        for (std::size_t i = 0; i < from.size(); ++i) {
            jobs.emplace_back(&from[i], &to.keys[i]);
        }
    };
    lay_out(entry.relin, keys->relin.key);
    for (const auto &[elt, cold] : entry.galois) {
        lay_out(cold, keys->galois.keys[elt]);
    }

    const std::size_t n = context_->n();
    const std::size_t rns = context_->key_rns();
    const std::function<void(std::size_t)> fill = [&](std::size_t j) {
        const ColdCiphertext &cold = *jobs[j].first;
        ckks::Ciphertext &ct = *jobs[j].second;
        ct.n = n;
        ct.size = 2;
        ct.rns = rns;
        ct.scale = cold.scale;
        ct.ntt_form = cold.ntt_form;
        ct.a_seeded = cold.a_seeded;
        ct.a_seed = cold.a_seed;
        ct.data.reserve(2 * rns * n);
        ct.data.assign(cold.words.begin(), cold.words.end());
        if (cold.a_seeded) {
            ct.data.resize(2 * rns * n);
            util::expand_uniform_seeded(ct.poly(1), context_->key_modulus(), n,
                                        cold.a_seed);
        }
    };
    pool_->parallel_for(jobs.size(), fill);
    return keys;
}

void KeyManager::register_session(uint64_t session_id,
                                  const ckks::RelinKeys &relin,
                                  const ckks::GaloisKeys &galois) {
    // Build the cold form outside the lock: copying c0 is the expensive
    // part.
    Entry entry;
    entry.relin = make_cold(relin.key, entry.cold_bytes);
    for (const auto &[elt, key] : galois.keys) {
        entry.galois.emplace_back(elt, make_cold(key, entry.cold_bytes));
    }

    util::MutexLock lock(mutex_);
    entries_.insert_or_assign(session_id, std::move(entry));
    // Re-registration replaces (and un-caches) any previous keys, so the
    // aggregate byte counters are rebuilt from scratch — cheap, the entry
    // count is the session count.
    stats_.cold_bytes = 0;
    resident_bytes_ = 0;
    for (const auto &[id, e] : entries_) {
        (void)id;
        stats_.cold_bytes += e.cold_bytes;
        if (e.expanded) {
            resident_bytes_ += e.expanded_bytes;
        }
    }
    stats_.sessions = entries_.size();
}

void KeyManager::make_room(std::size_t needed, uint64_t keep) {
    while (budget_bytes_ - resident_bytes_ < needed) {
        uint64_t victim = 0;
        uint64_t oldest = std::numeric_limits<uint64_t>::max();
        bool found = false;
        for (const auto &[id, e] : entries_) {
            if (e.expanded && id != keep && e.last_use < oldest) {
                oldest = e.last_use;
                victim = id;
                found = true;
            }
        }
        if (!found) {
            break;  // nothing evictable; caller handles the oversize case
        }
        Entry &e = entries_.at(victim);
        resident_bytes_ -= e.expanded_bytes;
        e.expanded.reset();  // the cold store stays
        ++stats_.evictions;
        KeyMetrics::instance().evictions.add();
    }
}

KeyManager::Acquired KeyManager::acquire(uint64_t session_id) {
    obs::Span span("keys.acquire", obs::Category::Keys);
    util::MutexLock lock(mutex_);
    auto it = entries_.find(session_id);
    util::require(it != entries_.end(), "session keys not registered");
    Entry &entry = it->second;
    entry.last_use = ++use_clock_;

    Acquired out;
    if (entry.expanded) {
        ++stats_.hits;
        KeyMetrics::instance().hits.add();
        if (span.active()) {
            span.set_detail("hit");
        }
        out.keys = entry.expanded;
        out.expanded_bytes = entry.expanded_bytes;
        return out;
    }

    // Miss: re-expand from the cold store.  The seeded uniform expansion
    // re-runs exactly, so the result is bit-exact against the originally
    // registered keys.  Kept under the lock for deterministic LRU
    // accounting; re-expansion time is measured and surfaced so the cost
    // is visible, not hidden.
    const auto t0 = std::chrono::steady_clock::now();
    std::shared_ptr<SessionKeys> keys;
    {
        obs::Span expand_span("keys.reexpand", obs::Category::Keys);
        keys = expand(entry);
    }
    const auto t1 = std::chrono::steady_clock::now();
    stats_.reexpand_ms +=
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    ++stats_.misses;
    KeyMetrics::instance().misses.add();
    KeyMetrics::instance().reexpand_ns.observe(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
    if (span.active()) {
        span.set_detail("miss");
    }

    entry.expanded_bytes = expanded_key_bytes(keys->relin, keys->galois);
    out.miss = true;
    out.expanded_bytes = entry.expanded_bytes;
    out.keys = keys;

    if (entry.expanded_bytes <= budget_bytes_) {
        make_room(entry.expanded_bytes, session_id);
        if (budget_bytes_ - resident_bytes_ >= entry.expanded_bytes) {
            entry.expanded = std::move(keys);
            resident_bytes_ += entry.expanded_bytes;
            stats_.peak_resident_bytes =
                std::max(stats_.peak_resident_bytes, resident_bytes_);
        }
    }
    KeyMetrics::instance().resident_bytes.set(
        static_cast<double>(resident_bytes_));
    KeyMetrics::instance().peak_resident_bytes.set(
        static_cast<double>(stats_.peak_resident_bytes));
    // An oversize keyset (> whole budget) is served transiently and never
    // cached, so resident_bytes_ <= budget_bytes_ holds at every instant.
    return out;
}

bool KeyManager::has(uint64_t session_id) const {
    util::MutexLock lock(mutex_);
    return entries_.count(session_id) != 0;
}

bool KeyManager::resident(uint64_t session_id) const {
    util::MutexLock lock(mutex_);
    auto it = entries_.find(session_id);
    return it != entries_.end() && it->second.expanded != nullptr;
}

KeyStats KeyManager::stats() const {
    util::MutexLock lock(mutex_);
    KeyStats out = stats_;
    out.sessions = entries_.size();
    out.resident_bytes = resident_bytes_;
    out.resident = 0;
    for (const auto &[id, e] : entries_) {
        (void)id;
        if (e.expanded) {
            ++out.resident;
        }
    }
    return out;
}

}  // namespace xehe::serve
