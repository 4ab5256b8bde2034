// Multi-tenant evaluation-key management: every session registers its own
// relinearization/Galois keys, but only a bounded number stay resident in
// expanded form.  Cold keys are held in a server-owned form: per key
// ciphertext its c0 words, the seed its uniform c1 expands from (c1 itself
// for an unseeded ciphertext) and its metadata — about half the expanded
// bytes.  A miss re-expands at memory speed: c0 is copied and c1
// regenerated by util::expand_uniform_seeded straight into the new keyset,
// one key ciphertext per task on the owner's thread pool (the seeds are
// independent).  The expansion draws the standard mt19937_64 sequence a
// 312-word block at a time from the branch-free util::Mt19937_64 and
// reduces each word by Barrett, about 4 ns per residue on one x86-64 core
// (bench/micro_keys: BM_ExpandUniformSeeded, and BM_KeyMissRelin32K for a
// whole N = 32K, L = 8 relin miss, 5-8 ms on a 4-core container).  There
// is no envelope, checksum or canonicity pass — the
// shape is checked once, at registration — and the result is bit-identical
// to the registered keys and to their wire round trip.  An LRU policy
// under a byte budget decides which expanded keysets survive.  This is
// what lets sessions >> resident-key memory share one server without
// unbounded growth.
//
// Thread safety: every public member is safe to call concurrently (one
// internal mutex).  acquire() returns shared ownership, so an in-flight
// request keeps its keyset alive even if the cache evicts it mid-request.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "ckks/keys.h"
#include "util/mutex.h"
#include "xgpu/threadpool.h"

namespace xehe::serve {

/// One session's evaluation keys in expanded (usable) form.
struct SessionKeys {
    ckks::RelinKeys relin;
    ckks::GaloisKeys galois;
};

/// Counters surfaced through serve::LatencyStats and the multitenant
/// bench gates.  Byte figures count expanded key material (the resident
/// cost); cold_bytes counts the cold store: c0 words and seeds (plus c1
/// for unseeded key ciphertexts).
struct KeyStats {
    std::size_t sessions = 0;        ///< registered sessions
    std::size_t resident = 0;        ///< keysets currently expanded
    std::size_t hits = 0;
    std::size_t misses = 0;          ///< acquisitions that re-expanded
    std::size_t evictions = 0;
    double reexpand_ms = 0.0;        ///< wall-clock spent re-expanding
    std::size_t resident_bytes = 0;
    std::size_t peak_resident_bytes = 0;  ///< never exceeds budget_bytes
    std::size_t budget_bytes = 0;
    std::size_t cold_bytes = 0;

    /// Adds every field of `other` (a fleet's view of its shards' caches).
    KeyStats &operator+=(const KeyStats &other);
};

/// Expanded in-memory footprint of a keyset: the key ciphertexts' residue
/// words (the dominant term; metadata is noise next to it).
std::size_t expanded_key_bytes(const ckks::RelinKeys &relin,
                               const ckks::GaloisKeys &galois);

class KeyManager {
public:
    /// `budget_bytes` bounds the total expanded (resident) key bytes; it
    /// must be positive.  A keyset larger than the whole budget is served
    /// but never cached, so the budget is a true invariant.  `pool` runs
    /// a miss's seed expansions in parallel (nullptr = the process-wide
    /// pool); nothing else may drive it during acquire() (parallel_for is
    /// single-caller).
    KeyManager(const ckks::CkksContext &context, std::size_t budget_bytes,
               xgpu::ThreadPool *pool = nullptr);

    /// Registers (or replaces) a session's keys.  The keys go to the cold
    /// store immediately; they do not count against the resident budget
    /// until first acquired.  Throws std::invalid_argument for a malformed
    /// keyset: a key-switch key without max_level key ciphertexts, or a
    /// key ciphertext that is not size 2 over the key base (key_rns
    /// limbs) at the context's degree.
    void register_session(uint64_t session_id, const ckks::RelinKeys &relin,
                          const ckks::GaloisKeys &galois);

    struct Acquired {
        std::shared_ptr<const SessionKeys> keys;
        bool miss = false;               ///< re-expanded from the cold store
        std::size_t expanded_bytes = 0;  ///< for the simulated upload charge
    };

    /// Expanded keys for `session_id`, re-expanding from the cold store on
    /// a miss (LRU-evicting under the budget first).  Throws
    /// std::invalid_argument for an unregistered session.
    Acquired acquire(uint64_t session_id);

    bool has(uint64_t session_id) const;
    /// True when the session's keys are currently expanded (test hook for
    /// eviction-order assertions).
    bool resident(uint64_t session_id) const;

    KeyStats stats() const;

private:
    /// One key ciphertext in cold form.
    struct ColdCiphertext {
        std::vector<uint64_t> words;  ///< c0, then c1 when not seeded
        double scale = 1.0;
        bool ntt_form = true;
        bool a_seeded = false;
        uint64_t a_seed = 0;
    };
    using ColdKSwitchKey = std::vector<ColdCiphertext>;

    struct Entry {
        ColdKSwitchKey relin;
        std::vector<std::pair<uint64_t, ColdKSwitchKey>> galois;
        std::size_t cold_bytes = 0;
        std::shared_ptr<const SessionKeys> expanded;  ///< null when cold
        std::size_t expanded_bytes = 0;  ///< known after first expansion
        uint64_t last_use = 0;
    };

    /// Evicts least-recently-used resident entries (never `keep`) until
    /// `needed` more bytes fit under the budget.
    void make_room(std::size_t needed, uint64_t keep) REQUIRES(mutex_);

    /// Checks one key-switch key's shape and returns its cold form,
    /// adding the bytes it holds to `cold_bytes`.
    ColdKSwitchKey make_cold(const ckks::KSwitchKey &key,
                             std::size_t &cold_bytes) const;
    /// A fresh keyset expanded from `entry`'s cold store.
    std::shared_ptr<SessionKeys> expand(const Entry &entry) const;

    const ckks::CkksContext *context_;
    std::size_t budget_bytes_;
    xgpu::ThreadPool *pool_;  ///< never null

    mutable util::Mutex mutex_;
    std::unordered_map<uint64_t, Entry> entries_ GUARDED_BY(mutex_);
    uint64_t use_clock_ GUARDED_BY(mutex_) = 0;
    std::size_t resident_bytes_ GUARDED_BY(mutex_) = 0;
    KeyStats stats_ GUARDED_BY(mutex_);
};

}  // namespace xehe::serve
