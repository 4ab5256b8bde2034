// Production-scale serving: the byte-budgeted session key cache (LRU
// eviction order, bit-exact re-expansion from the cold store on the
// process-wide or a private pool, budget invariants, malformed keysets
// refused at registration), the chunked request path (round-trip equal to
// monolithic, truncation/bit-flip/reorder rejection), consistent-hash
// session sharding with credit backpressure (typed Overloaded rejections,
// bit-exactness against a single server, the threaded drain the TSan CI
// lane watches), and the configuration validation that keeps a
// misconfigured server from coming up.
#include "test_common.h"

#include <set>

#include "serve/sharded_server.h"
#include "xgpu/device.h"

namespace xehe::test {
namespace {

using serve::ConfigError;
using serve::InferenceServer;
using serve::KeyManager;
using serve::Op;
using serve::Request;
using serve::Response;
using serve::ServerConfig;
using serve::ShardedConfig;
using serve::ShardedServer;
using serve::Status;

struct ScaleBench {
    CkksBench host;
    ckks::RelinKeys relin;
    ckks::GaloisKeys galois;
    std::size_t keyset_bytes;

    ScaleBench() : host(1024, 3) {
        relin = host.keygen.create_relin_keys();
        const int steps[] = {1, -1};
        galois = host.keygen.create_galois_keys(steps);
        keyset_bytes = serve::expanded_key_bytes(relin, galois);
    }

    Request cost_request(uint64_t session, double arrival_ns = 0.0) {
        Request req;
        req.session_id = session;
        req.op = Op::SqrLinRS;
        req.cost_only = true;
        req.arrival_ns = arrival_ns;
        return req;
    }
};

// ---------------------------------------------------------------------------
// KeyManager: LRU under a byte budget
// ---------------------------------------------------------------------------

TEST(KeyManager, EvictsLeastRecentlyUsedUnderBudget) {
    ScaleBench b;
    // Room for exactly two expanded keysets.
    KeyManager manager(b.host.context, 2 * b.keyset_bytes);
    for (uint64_t s = 1; s <= 3; ++s) {
        manager.register_session(s, b.relin, b.galois);
    }
    EXPECT_EQ(manager.stats().sessions, 3u);
    EXPECT_EQ(manager.stats().resident, 0u);  // cold until first acquire

    manager.acquire(1);
    manager.acquire(2);
    EXPECT_TRUE(manager.resident(1));
    EXPECT_TRUE(manager.resident(2));

    // Third expansion exceeds the budget: session 1 is the LRU victim.
    manager.acquire(3);
    EXPECT_FALSE(manager.resident(1));
    EXPECT_TRUE(manager.resident(2));
    EXPECT_TRUE(manager.resident(3));

    // Touch 2, then re-expand 1: now 3 is least recent and must go.
    manager.acquire(2);
    manager.acquire(1);
    EXPECT_TRUE(manager.resident(1));
    EXPECT_TRUE(manager.resident(2));
    EXPECT_FALSE(manager.resident(3));

    const auto stats = manager.stats();
    EXPECT_EQ(stats.hits, 1u);       // the touch of 2
    EXPECT_EQ(stats.misses, 4u);     // 1, 2, 3, then 1 again
    EXPECT_EQ(stats.evictions, 2u);  // 1 then 3
    EXPECT_LE(stats.resident_bytes, stats.budget_bytes);
    EXPECT_LE(stats.peak_resident_bytes, stats.budget_bytes);
    EXPECT_GT(stats.cold_bytes, 0u);
    // Seed compression: the cold store holds three keysets in less than
    // the expanded bytes of two.
    EXPECT_LT(stats.cold_bytes, 2 * b.keyset_bytes);
}

/// Field-by-field equality of two key ciphertexts.
void expect_same_ciphertext(const ckks::Ciphertext &got,
                            const ckks::Ciphertext &want) {
    EXPECT_EQ(got.data, want.data);
    EXPECT_EQ(got.n, want.n);
    EXPECT_EQ(got.size, want.size);
    EXPECT_EQ(got.rns, want.rns);
    EXPECT_EQ(got.scale, want.scale);
    EXPECT_EQ(got.ntt_form, want.ntt_form);
    EXPECT_EQ(got.a_seed, want.a_seed);
    EXPECT_EQ(got.a_seeded, want.a_seeded);
}

void expect_same_kswitch(const ckks::KSwitchKey &got,
                         const ckks::KSwitchKey &want) {
    ASSERT_EQ(got.keys.size(), want.keys.size());
    for (std::size_t i = 0; i < want.keys.size(); ++i) {
        SCOPED_TRACE(i);
        expect_same_ciphertext(got.keys[i], want.keys[i]);
    }
}

void expect_same_keys(const serve::SessionKeys &got,
                      const ckks::RelinKeys &relin,
                      const ckks::GaloisKeys &galois) {
    expect_same_kswitch(got.relin.key, relin.key);
    ASSERT_EQ(got.galois.keys.size(), galois.keys.size());
    for (const auto &[elt, key] : galois.keys) {
        SCOPED_TRACE(elt);
        ASSERT_TRUE(got.galois.has(elt));
        expect_same_kswitch(got.galois.key(elt), key);
    }
}

/// FNV-1a over every expanded word of a keyset (relin, then galois keys in
/// element order), each word folded in little-endian byte order.
uint64_t keyset_hash(const serve::SessionKeys &keys) {
    uint64_t h = 0xcbf29ce484222325ULL;
    const auto fold = [&h](const ckks::KSwitchKey &key) {
        for (const auto &ct : key.keys) {
            for (const uint64_t w : ct.data) {
                for (int byte = 0; byte < 8; ++byte) {
                    h ^= (w >> (8 * byte)) & 0xff;
                    h *= 0x100000001b3ULL;
                }
            }
        }
    };
    fold(keys.relin.key);
    for (const auto &[elt, key] : keys.galois.keys) {
        (void)elt;
        fold(key);
    }
    return h;
}

// A re-expansion after eviction rebuilds the registered keys exactly —
// every field of every relin and galois key ciphertext — and matches
// what the wire round trip of those keys loads, on the process-wide pool
// and on a private one.
TEST(KeyManager, ReexpansionAfterEvictionIsBitExact) {
    ScaleBench b;
    const ckks::RelinKeys wire_relin =
        wire::load_relin_keys(wire::serialize(b.relin), b.host.context);
    const ckks::GaloisKeys wire_galois =
        wire::load_galois_keys(wire::serialize(b.galois), b.host.context);

    xgpu::ThreadPool pool(2);
    const std::vector<xgpu::ThreadPool *> expanders = {nullptr, &pool};
    for (xgpu::ThreadPool *expander : expanders) {
        SCOPED_TRACE(expander == nullptr ? "process-wide pool"
                                         : "private pool");
        // One keyset fits.
        KeyManager manager(b.host.context, b.keyset_bytes, expander);
        manager.register_session(7, b.relin, b.galois);
        manager.register_session(8, b.relin, b.galois);

        const auto first = manager.acquire(7);
        EXPECT_TRUE(first.miss);
        EXPECT_EQ(first.expanded_bytes, b.keyset_bytes);

        manager.acquire(8);  // evicts 7
        EXPECT_FALSE(manager.resident(7));

        const auto again = manager.acquire(7);
        EXPECT_TRUE(again.miss);
        expect_same_keys(*again.keys, b.relin, b.galois);
        expect_same_keys(*again.keys, wire_relin, wire_galois);
        EXPECT_GT(manager.stats().reexpand_ms, 0.0);
    }
}

// Pins the expanded words of one N = 1024 keyset: any change to the
// seeded sampler (engine, rejection bound, reduction) or to key
// generation fails here loudly rather than silently re-keying tenants.
TEST(KeyManager, ExpandedKeysetMatchesGoldenHash) {
    ScaleBench b;
    KeyManager manager(b.host.context, b.keyset_bytes);
    manager.register_session(1, b.relin, b.galois);
    const auto acq = manager.acquire(1);
    ASSERT_TRUE(acq.miss);
    EXPECT_EQ(keyset_hash(*acq.keys), 0xc1b03c6c9b571ff0ULL);
}

// A keyset the cold store cannot hold is refused at registration with
// std::invalid_argument, before it can fail a request on its first miss;
// the session stays unregistered.
TEST(KeyManager, MalformedKeysetRejectedAtRegistration) {
    ScaleBench b;
    KeyManager manager(b.host.context, b.keyset_bytes);
    const auto expect_refused = [&](const ckks::RelinKeys &relin,
                                    const ckks::GaloisKeys &galois) {
        EXPECT_THROW(manager.register_session(1, relin, galois),
                     std::invalid_argument);
        EXPECT_FALSE(manager.has(1));
    };
    const auto relin_with = [&](auto mutate) {
        ckks::RelinKeys relin = b.relin;
        mutate(relin.key);
        return relin;
    };
    const auto galois_with = [&](auto mutate) {
        ckks::GaloisKeys galois = b.galois;
        mutate(galois.keys.begin()->second);
        return galois;
    };
    const auto drop_key = [](ckks::KSwitchKey &key) { key.keys.pop_back(); };
    const auto wrong_rns = [](ckks::KSwitchKey &key) {
        ckks::Ciphertext &ct = key.keys[0];
        ct.resize(ct.n, 2, ct.rns - 1);
    };
    const auto wrong_size = [](ckks::KSwitchKey &key) {
        ckks::Ciphertext &ct = key.keys[1];
        ct.resize(ct.n, 3, ct.rns);
    };
    const auto wrong_degree = [](ckks::KSwitchKey &key) {
        ckks::Ciphertext &ct = key.keys[0];
        ct.resize(ct.n / 2, 2, ct.rns);
    };

    // Key count != max_level.
    expect_refused(relin_with(drop_key), b.galois);
    expect_refused(b.relin, galois_with(drop_key));
    // rns != key_rns.
    expect_refused(relin_with(wrong_rns), b.galois);
    expect_refused(b.relin, galois_with(wrong_rns));
    // size != 2.
    expect_refused(relin_with(wrong_size), b.galois);
    expect_refused(b.relin, galois_with(wrong_size));
    // Wrong degree.
    expect_refused(relin_with(wrong_degree), b.galois);
    expect_refused(b.relin, galois_with(wrong_degree));

    // The well-formed keyset still registers and serves.
    manager.register_session(1, b.relin, b.galois);
    EXPECT_TRUE(manager.has(1));
    expect_same_keys(*manager.acquire(1).keys, b.relin, b.galois);
}

TEST(KeyManager, OversizeKeysetIsServedButNeverCached) {
    ScaleBench b;
    KeyManager manager(b.host.context, 1);  // nothing fits
    manager.register_session(1, b.relin, b.galois);
    const auto acq = manager.acquire(1);
    ASSERT_NE(acq.keys, nullptr);
    EXPECT_TRUE(acq.miss);
    EXPECT_FALSE(manager.resident(1));
    EXPECT_EQ(manager.stats().resident_bytes, 0u);
}

TEST(KeyManager, UnregisteredSessionIsAnError) {
    ScaleBench b;
    KeyManager manager(b.host.context, b.keyset_bytes);
    EXPECT_FALSE(manager.has(99));
    EXPECT_THROW(manager.acquire(99), std::invalid_argument);
}

// An in-flight request keeps its keyset alive across an eviction: the
// shared_ptr returned by acquire() owns the expansion, not the cache slot.
TEST(KeyManager, AcquiredKeysSurviveEviction) {
    ScaleBench b;
    KeyManager manager(b.host.context, b.keyset_bytes);
    manager.register_session(1, b.relin, b.galois);
    manager.register_session(2, b.relin, b.galois);
    const auto held = manager.acquire(1);
    manager.acquire(2);  // evicts 1
    EXPECT_FALSE(manager.resident(1));
    ASSERT_NE(held.keys, nullptr);
    EXPECT_EQ(held.keys->relin.key.keys.size(), b.relin.key.keys.size());
}

// ---------------------------------------------------------------------------
// Server + KeyManager: per-session keys on the execution path
// ---------------------------------------------------------------------------

TEST(ServeScale, SessionKeysThroughCacheMatchSharedKeysBitExact) {
    ScaleBench b;
    ServerConfig cfg;
    // A budget of one keyset with two key-owning sessions forces eviction
    // churn on the serving path.
    cfg.key_budget_bytes = b.keyset_bytes;
    InferenceServer cached(b.host.context, xgpu::device1(), core::GpuOptions{},
                           cfg);
    cached.register_session_keys(1, b.relin, b.galois);
    cached.register_session_keys(2, b.relin, b.galois);

    InferenceServer shared(b.host.context, xgpu::device1(),
                           core::GpuOptions{});
    shared.set_keys(b.relin, b.galois);

    const auto ct_a = b.host.enc(b.host.values(31));
    const auto ct_b = b.host.enc(b.host.values(32));
    for (uint64_t session : {1, 2, 1, 2}) {
        Request req;
        req.session_id = session;
        req.op = Op::MulLinRS;
        req.inputs.push_back(wire::serialize(ct_a));
        req.inputs.push_back(wire::serialize(ct_b));
        cached.submit(req);
        shared.submit(std::move(req));
    }
    const auto got = cached.run();
    const auto ref = shared.run();
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(got[i].ok) << got[i].error;
        EXPECT_EQ(got[i].result, ref[i].result);
    }
    const auto keys = cached.stats().keys;
    EXPECT_GE(keys.evictions, 1u);  // the churn actually happened
    EXPECT_LE(keys.peak_resident_bytes, keys.budget_bytes);
}

// ---------------------------------------------------------------------------
// Chunked request path
// ---------------------------------------------------------------------------

TEST(ServeScale, ChunkedRequestMatchesMonolithicBitExact) {
    ScaleBench b;
    InferenceServer chunked(b.host.context, xgpu::device1(),
                            core::GpuOptions{});
    chunked.set_keys(b.relin, b.galois);
    InferenceServer monolithic(b.host.context, xgpu::device1(),
                               core::GpuOptions{});
    monolithic.set_keys(b.relin, b.galois);

    Request req;
    req.session_id = 5;
    req.op = Op::MulLinRS;
    req.inputs.push_back(wire::serialize(b.host.enc(b.host.values(41))));
    req.inputs.push_back(wire::serialize(b.host.enc(b.host.values(42))));

    // Small frames force a multi-chunk stream crossing input boundaries.
    const auto frames = serve::chunk_request(req, /*stream_id=*/1, 1000);
    ASSERT_GT(frames.size(), 4u);
    for (const auto &frame : frames) {
        chunked.submit_chunk(frame);
    }
    EXPECT_EQ(chunked.open_streams(), 0u);
    EXPECT_EQ(chunked.pending_requests(), 1u);

    monolithic.submit(wire::serialize(req));
    const auto got = chunked.run();
    const auto ref = monolithic.run();
    ASSERT_EQ(got.size(), 1u);
    ASSERT_EQ(ref.size(), 1u);
    ASSERT_TRUE(got[0].ok) << got[0].error;
    EXPECT_EQ(got[0].result, ref[0].result);
}

TEST(ServeScale, InterleavedChunkStreamsBothComplete) {
    ScaleBench b;
    ServerConfig cfg;
    cfg.functional = false;
    InferenceServer server(b.host.context, xgpu::device1(), core::GpuOptions{},
                           cfg);
    server.set_keys(b.relin, b.galois);

    const auto frames_a = serve::chunk_request(b.cost_request(1), 10, 16);
    const auto frames_b = serve::chunk_request(b.cost_request(2), 11, 16);
    const std::size_t rounds = std::max(frames_a.size(), frames_b.size());
    for (std::size_t i = 0; i < rounds; ++i) {
        if (i < frames_a.size()) {
            server.submit_chunk(frames_a[i]);
        }
        if (i < frames_b.size()) {
            server.submit_chunk(frames_b[i]);
        }
    }
    EXPECT_EQ(server.pending_requests(), 2u);
    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_TRUE(responses[0].ok);
    EXPECT_TRUE(responses[1].ok);
}

TEST(ServeScale, ChunkCorruptionTruncationAndReorderRejected) {
    ScaleBench b;
    ServerConfig cfg;
    cfg.functional = false;
    InferenceServer server(b.host.context, xgpu::device1(), core::GpuOptions{},
                           cfg);
    server.set_keys(b.relin, b.galois);

    const auto frames = serve::chunk_request(b.cost_request(1), 20, 16);
    ASSERT_GE(frames.size(), 3u);

    // Out-of-order delivery: the second frame first aborts the stream.
    server.submit_chunk(frames[0]);
    server.submit_chunk(frames[2]);
    EXPECT_EQ(server.open_streams(), 0u);
    EXPECT_EQ(server.pending_requests(), 0u);

    // Truncations of a frame at every length never parse.
    for (std::size_t cut = 0; cut < frames[0].size();
         cut += std::max<std::size_t>(1, frames[0].size() / 64)) {
        server.submit_chunk(std::span(frames[0].data(), cut));
        EXPECT_EQ(server.open_streams(), 0u);
    }

    // A deterministic sweep of single-bit corruptions: every flip is
    // caught by the frame checksum (or a stricter header check) and the
    // stream state stays clean.
    std::vector<uint8_t> frame = frames[0];
    for (std::size_t bit = 0; bit < frame.size() * 8;
         bit += std::max<std::size_t>(1, frame.size() * 8 / 211)) {
        frame[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        server.submit_chunk(frame);
        frame[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        EXPECT_EQ(server.open_streams(), 0u);
    }
    EXPECT_EQ(server.pending_requests(), 0u);

    // The server still serves: rejected garbage never wedges a lane.
    const auto clean = serve::chunk_request(b.cost_request(3), 21, 16);
    for (const auto &f : clean) {
        server.submit_chunk(f);
    }
    EXPECT_EQ(server.pending_requests(), 1u);
    const auto responses = server.run();
    ASSERT_FALSE(responses.empty());
    EXPECT_TRUE(responses.back().ok) << responses.back().error;
    // Every rejection carried the typed parse-error status.
    for (std::size_t i = 0; i + 1 < responses.size(); ++i) {
        EXPECT_FALSE(responses[i].ok);
        EXPECT_EQ(responses[i].code, Status::ParseError);
    }
}

// ---------------------------------------------------------------------------
// Configuration validation
// ---------------------------------------------------------------------------

TEST(ServeScale, ServerConfigRejectsDegenerateValues) {
    ScaleBench b;
    const auto expect_bad = [&](auto mutate) {
        ServerConfig cfg;
        mutate(cfg);
        EXPECT_THROW(InferenceServer(b.host.context, xgpu::device1(),
                                     core::GpuOptions{}, cfg),
                     ConfigError);
    };
    expect_bad([](ServerConfig &c) { c.max_batch = 0; });
    expect_bad([](ServerConfig &c) { c.batch_window_ns = 0.0; });
    expect_bad([](ServerConfig &c) { c.batch_window_ns = -1.0; });
    expect_bad([](ServerConfig &c) {
        c.batch_window_ns = std::numeric_limits<double>::quiet_NaN();
    });
    expect_bad([](ServerConfig &c) {
        c.batch_window_ns = std::numeric_limits<double>::infinity();
    });
    expect_bad([](ServerConfig &c) { c.queue_count = -1; });
    expect_bad([](ServerConfig &c) { c.key_budget_bytes = 0; });
}

TEST(ServeScale, ShardedConfigRejectsDegenerateValues) {
    ScaleBench b;
    const auto expect_bad = [&](auto mutate) {
        ShardedConfig cfg;
        mutate(cfg);
        EXPECT_THROW(ShardedServer(b.host.context, xgpu::device1(),
                                   core::GpuOptions{}, cfg),
                     ConfigError);
    };
    expect_bad([](ShardedConfig &c) { c.shard_count = 0; });
    expect_bad([](ShardedConfig &c) { c.credits_per_shard = 0; });
    expect_bad([](ShardedConfig &c) { c.vnodes_per_shard = 0; });
    expect_bad([](ShardedConfig &c) { c.key_budget_bytes = 0; });
    expect_bad([](ShardedConfig &c) { c.pool_workers_per_shard = 0; });
    expect_bad([](ShardedConfig &c) { c.shard.max_batch = 0; });
}

// ---------------------------------------------------------------------------
// Sharded serving
// ---------------------------------------------------------------------------

TEST(ServeScale, ConsistentHashPlacementIsStableAndCoversShards) {
    ScaleBench b;
    ShardedConfig cfg;
    cfg.shard_count = 4;
    cfg.shard.functional = false;
    ShardedServer server(b.host.context, xgpu::device1(), core::GpuOptions{},
                         cfg);
    std::set<std::size_t> seen;
    for (uint64_t s = 0; s < 1000; ++s) {
        const std::size_t shard = server.shard_of(s);
        ASSERT_LT(shard, cfg.shard_count);
        EXPECT_EQ(server.shard_of(s), shard);  // deterministic
        seen.insert(shard);
    }
    EXPECT_EQ(seen.size(), cfg.shard_count);  // no shard starves
}

// The threaded two-shard functional drain the TSan CI lane exercises:
// shards share only the immutable context, and results stay bit-exact
// against one unsharded server.
TEST(ServeScale, ShardedResultsMatchSingleServerBitExact) {
    ScaleBench b;
    ShardedConfig cfg;
    cfg.shard_count = 2;
    ShardedServer sharded(b.host.context, xgpu::device1(), core::GpuOptions{},
                          cfg);
    sharded.set_keys(b.relin, b.galois);
    InferenceServer single(b.host.context, xgpu::device1(),
                           core::GpuOptions{});
    single.set_keys(b.relin, b.galois);

    const auto ct_a = b.host.enc(b.host.values(51));
    const auto ct_b = b.host.enc(b.host.values(52));
    for (uint64_t session = 0; session < 8; ++session) {
        Request req;
        req.session_id = session;
        req.op = session % 2 == 0 ? Op::MulLinRS : Op::Rotate;
        req.rotate_step = 1;
        req.inputs.push_back(wire::serialize(ct_a));
        if (req.op == Op::MulLinRS) {
            req.inputs.push_back(wire::serialize(ct_b));
        }
        EXPECT_TRUE(sharded.submit(req));
        single.submit(std::move(req));
    }
    const auto got = sharded.run();
    const auto ref = single.run();
    ASSERT_EQ(got.size(), 8u);
    ASSERT_EQ(ref.size(), 8u);

    std::map<uint64_t, const Response *> by_session;
    for (const auto &resp : ref) {
        by_session[resp.session_id] = &resp;
    }
    for (const auto &resp : got) {
        ASSERT_TRUE(resp.ok) << resp.error;
        ASSERT_TRUE(by_session.count(resp.session_id));
        EXPECT_EQ(resp.result, by_session[resp.session_id]->result);
    }
    EXPECT_EQ(sharded.stats().requests, 8u);
    EXPECT_EQ(sharded.stats().overloaded, 0u);
}

// Both shards of a cost-only server re-expand keys on every request (a
// one-keyset budget, alternating sessions), each on its own pool, on
// concurrent drain threads — the TSan CI lane watches this.  Responses and
// key counters must match serving each shard's traffic serially through a
// standalone server, whose key cache expands on the process-wide pool.
TEST(ServeScale, ConcurrentShardReexpansionMatchesSerial) {
    ScaleBench b;
    ShardedConfig cfg;
    cfg.shard_count = 2;
    cfg.key_budget_bytes = b.keyset_bytes;
    cfg.shard.functional = false;
    ShardedServer sharded(b.host.context, xgpu::device1(), core::GpuOptions{},
                          cfg);

    // Two sessions per shard, so each shard alternates between them.
    std::vector<std::vector<uint64_t>> sessions(cfg.shard_count);
    uint64_t id = 0;
    while (sessions[0].size() < 2 || sessions[1].size() < 2) {
        auto &mine = sessions[sharded.shard_of(++id)];
        if (mine.size() < 2) {
            mine.push_back(id);
        }
    }

    std::vector<std::vector<Response>> serial(cfg.shard_count);
    serve::KeyStats serial_keys;
    for (std::size_t s = 0; s < cfg.shard_count; ++s) {
        ServerConfig shard_cfg = cfg.shard;
        shard_cfg.key_budget_bytes = cfg.key_budget_bytes;
        InferenceServer reference(b.host.context, xgpu::device1(),
                                  core::GpuOptions{}, shard_cfg);
        for (const uint64_t id : sessions[s]) {
            sharded.register_session_keys(id, b.relin, b.galois);
            reference.register_session_keys(id, b.relin, b.galois);
        }
        for (int round = 0; round < 6; ++round) {
            const uint64_t id = sessions[s][round % 2];
            const double arrival = 1e6 * round;
            ASSERT_TRUE(sharded.submit(b.cost_request(id, arrival)));
            reference.submit(b.cost_request(id, arrival));
        }
        serial[s] = reference.run();
        const serve::KeyStats k = reference.stats().keys;
        serial_keys.sessions += k.sessions;
        serial_keys.hits += k.hits;
        serial_keys.misses += k.misses;
        serial_keys.evictions += k.evictions;
        serial_keys.cold_bytes += k.cold_bytes;
        serial_keys.peak_resident_bytes += k.peak_resident_bytes;
    }

    const auto got = sharded.run();
    ASSERT_EQ(got.size(), 12u);
    // run() concatenates the shards' responses in shard order.
    std::size_t next = 0;
    for (std::size_t s = 0; s < cfg.shard_count; ++s) {
        ASSERT_EQ(serial[s].size(), 6u);
        for (const Response &want : serial[s]) {
            const Response &resp = got[next++];
            ASSERT_TRUE(resp.ok) << resp.error;
            EXPECT_EQ(wire::serialize(resp), wire::serialize(want));
        }
    }
    const serve::KeyStats keys = sharded.stats().keys;
    EXPECT_EQ(keys.misses, 12u);  // every acquisition re-expanded
    EXPECT_EQ(keys.sessions, serial_keys.sessions);
    EXPECT_EQ(keys.hits, serial_keys.hits);
    EXPECT_EQ(keys.misses, serial_keys.misses);
    EXPECT_EQ(keys.evictions, serial_keys.evictions);
    EXPECT_EQ(keys.cold_bytes, serial_keys.cold_bytes);
    EXPECT_EQ(keys.peak_resident_bytes, serial_keys.peak_resident_bytes);
}

TEST(ServeScale, BurstBeyondCreditsGetsTypedOverload) {
    ScaleBench b;
    ShardedConfig cfg;
    cfg.shard_count = 2;
    cfg.credits_per_shard = 2;
    cfg.shard.functional = false;
    ShardedServer server(b.host.context, xgpu::device1(), core::GpuOptions{},
                         cfg);
    server.set_keys(b.relin, b.galois);

    // A burst from one session lands on one shard: its credit window
    // admits two requests and rejects the rest immediately.
    std::size_t admitted = 0;
    for (int i = 0; i < 10; ++i) {
        admitted += server.submit(b.cost_request(77)) ? 1 : 0;
    }
    EXPECT_EQ(admitted, cfg.credits_per_shard);
    EXPECT_EQ(server.credits(server.shard_of(77)), 0u);

    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 10u);
    std::size_t overloaded = 0;
    std::size_t ok = 0;
    for (const auto &resp : responses) {
        if (resp.ok) {
            ++ok;
        } else {
            EXPECT_EQ(resp.code, Status::Overloaded);
            ++overloaded;
        }
    }
    EXPECT_EQ(ok, 2u);
    EXPECT_EQ(overloaded, 8u);
    const auto stats = server.stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.overloaded, 8u);

    // run() replenished every window: the next burst admits again.
    EXPECT_TRUE(server.submit(b.cost_request(77)));
}

// ---------------------------------------------------------------------------
// Regression: key re-registration under churn
// ---------------------------------------------------------------------------

// Re-registering a session (key rotation) must invalidate the replaced
// entry's expanded state and LRU slot: the next acquire must re-expand
// the NEW keys, and the resident-byte accounting must never exceed the
// budget even under rotate-and-acquire churn.
TEST(KeyManager, ReregistrationInvalidatesExpandedStateUnderChurn) {
    ScaleBench b;
    KeyManager manager(b.host.context, 2 * b.keyset_bytes);
    manager.register_session(1, b.relin, b.galois);
    manager.register_session(2, b.relin, b.galois);

    const auto old_acq = manager.acquire(1);
    const auto old_snapshot = old_acq.keys->relin.key.keys;  // deep copy
    manager.acquire(2);
    EXPECT_TRUE(manager.resident(1));

    // Rotate session 1's keys: a fresh generator over the same context
    // produces a different secret, so the new material must differ.
    ckks::KeyGenerator keygen2(b.host.context);
    const auto relin2 = keygen2.create_relin_keys();
    const int steps[] = {1, -1};
    const auto galois2 = keygen2.create_galois_keys(steps);
    manager.register_session(1, relin2, galois2);

    // The replaced expansion is gone, not resold as the new keys.
    EXPECT_FALSE(manager.resident(1));
    EXPECT_LE(manager.stats().resident_bytes, manager.stats().budget_bytes);

    const auto new_acq = manager.acquire(1);
    EXPECT_TRUE(new_acq.miss);
    ASSERT_EQ(new_acq.keys->relin.key.keys.size(), old_snapshot.size());
    bool differs = false;
    for (std::size_t i = 0; i < old_snapshot.size() && !differs; ++i) {
        differs = new_acq.keys->relin.key.keys[i].data !=
                  old_snapshot[i].data;
    }
    EXPECT_TRUE(differs) << "re-registration served the stale expansion";
    const auto new_snapshot = new_acq.keys->relin.key.keys;

    // Churn: rotate and touch sessions against the two-keyset budget; the
    // accounting invariant must hold at every step.
    for (uint64_t round = 0; round < 6; ++round) {
        const uint64_t victim = 1 + round % 2;
        manager.register_session(victim, b.relin, b.galois);
        manager.acquire(victim);
        manager.acquire(1 + (round + 1) % 2);
        const auto stats = manager.stats();
        EXPECT_LE(stats.resident_bytes, stats.budget_bytes) << round;
        EXPECT_LE(stats.peak_resident_bytes, stats.budget_bytes) << round;
    }

    // And a rotation's keys stay bit-exact across eviction churn.
    manager.register_session(1, relin2, galois2);
    const auto again = manager.acquire(1);
    ASSERT_EQ(again.keys->relin.key.keys.size(), new_snapshot.size());
    for (std::size_t i = 0; i < new_snapshot.size(); ++i) {
        EXPECT_EQ(again.keys->relin.key.keys[i].data, new_snapshot[i].data);
    }
}

// ---------------------------------------------------------------------------
// Regression: sharded credit accounting on reject paths
// ---------------------------------------------------------------------------

// Rejected traffic must neither leak nor double-refund credits: malformed
// envelopes are refused before any charge, never-completing chunk streams
// hold no credit, and completed streams pay exactly one — so a burst of
// mixed good/malformed traffic leaves the windows exactly accountable and
// run() restores them in full.
TEST(ServeScale, CreditAccountingExactUnderMixedTraffic) {
    ScaleBench b;
    ShardedConfig cfg;
    cfg.shard_count = 2;
    cfg.credits_per_shard = 4;
    cfg.shard.functional = false;
    ShardedServer server(b.host.context, xgpu::device1(), core::GpuOptions{},
                         cfg);
    server.set_keys(b.relin, b.galois);

    const uint64_t session = 7;
    const std::size_t shard = server.shard_of(session);
    const std::size_t other = 1 - shard;

    // 1. A good monolithic request charges its shard one credit.
    EXPECT_TRUE(server.submit(wire::serialize(b.cost_request(session))));
    EXPECT_EQ(server.credits(shard), cfg.credits_per_shard - 1);
    EXPECT_EQ(server.credits(other), cfg.credits_per_shard);

    // 2. Malformed envelopes reject with ParseError and charge nothing.
    std::vector<uint8_t> garbage(64, 0xAB);
    EXPECT_FALSE(server.submit(std::span<const uint8_t>(garbage)));
    auto corrupt = wire::serialize(b.cost_request(session));
    corrupt[corrupt.size() / 2] ^= 0x01;  // checksum mismatch
    EXPECT_FALSE(server.submit(std::span<const uint8_t>(corrupt)));
    EXPECT_EQ(server.credits(shard), cfg.credits_per_shard - 1);
    EXPECT_EQ(server.credits(other), cfg.credits_per_shard);

    // 3. A never-completing chunk stream holds no credit...
    const auto frames = serve::chunk_request(b.cost_request(session), 500, 16);
    ASSERT_GE(frames.size(), 2u);
    for (std::size_t i = 0; i + 1 < frames.size(); ++i) {
        EXPECT_TRUE(server.submit_chunk(frames[i]));
    }
    EXPECT_EQ(server.credits(shard), cfg.credits_per_shard - 1);

    // ...and a completed stream pays exactly one, at completion.
    const auto whole = serve::chunk_request(b.cost_request(session), 501, 16);
    for (const auto &frame : whole) {
        EXPECT_TRUE(server.submit_chunk(frame));
    }
    EXPECT_EQ(server.credits(shard), cfg.credits_per_shard - 2);
    EXPECT_EQ(server.credits(other), cfg.credits_per_shard);

    // 4. Exhaust the shard with a mixed burst: good requests beyond the
    // window get typed Overloaded, malformed ones still ParseError, and
    // neither corrupts the count.
    std::size_t admitted = 0;
    for (int i = 0; i < 8; ++i) {
        admitted += server.submit(b.cost_request(session)) ? 1 : 0;
        EXPECT_FALSE(server.submit(std::span<const uint8_t>(garbage)));
    }
    EXPECT_EQ(admitted, cfg.credits_per_shard - 2);
    EXPECT_EQ(server.credits(shard), 0u);

    const auto responses = server.run();
    std::size_t ok = 0, parse = 0, overload = 0;
    for (const auto &resp : responses) {
        if (resp.ok) {
            ++ok;
        } else if (resp.code == Status::ParseError) {
            ++parse;
        } else if (resp.code == Status::Overloaded) {
            ++overload;
        }
    }
    EXPECT_EQ(ok, cfg.credits_per_shard);       // every admitted request ran
    EXPECT_EQ(parse, 2u + 8u);                  // every malformed rejection
    EXPECT_EQ(overload, 8u - admitted);         // every out-of-credit reject
    // run() replenished the windows in full — no leak, no double refund.
    EXPECT_EQ(server.credits(shard), cfg.credits_per_shard);
    EXPECT_EQ(server.credits(other), cfg.credits_per_shard);
}

// ---------------------------------------------------------------------------
// Regression: abandoned chunk streams must not lock out new streams
// ---------------------------------------------------------------------------

// Pre-fix, 256 never-completed streams pinned the stream table forever and
// every later stream was rejected. Now the least-recently-fed stream is
// evicted (with a typed Overloaded failure) and fresh streams admit.
TEST(ServeScale, StaleChunkStreamsAreEvictedNotPinned) {
    ScaleBench b;
    ServerConfig cfg;
    cfg.functional = false;
    InferenceServer server(b.host.context, xgpu::device1(), core::GpuOptions{},
                           cfg);
    server.set_keys(b.relin, b.galois);

    // Fill the open-stream table with abandoned first frames.
    for (uint64_t id = 1; id <= 256; ++id) {
        const auto frames = serve::chunk_request(b.cost_request(id), id, 16);
        ASSERT_GE(frames.size(), 2u);
        server.submit_chunk(frames[0]);
    }
    EXPECT_EQ(server.open_streams(), 256u);

    // A complete stream must still get through.
    const auto whole = serve::chunk_request(b.cost_request(999), 9999, 16);
    for (const auto &frame : whole) {
        server.submit_chunk(frame);
    }
    EXPECT_EQ(server.pending_requests(), 1u);
    EXPECT_LE(server.open_streams(), 256u);

    const auto responses = server.run();
    std::size_t ok = 0, evicted = 0;
    for (const auto &resp : responses) {
        if (resp.ok) {
            ++ok;
        } else if (resp.code == Status::Overloaded) {
            ++evicted;
        }
    }
    EXPECT_EQ(ok, 1u);
    EXPECT_EQ(evicted, 1u);  // exactly one stale stream made room
}

TEST(ServeScale, ShardedStaleChunkStreamsAreEvictedNotPinned) {
    ScaleBench b;
    ShardedConfig cfg;
    cfg.shard_count = 2;
    cfg.shard.functional = false;
    ShardedServer server(b.host.context, xgpu::device1(), core::GpuOptions{},
                         cfg);
    server.set_keys(b.relin, b.galois);

    for (uint64_t id = 1; id <= 256; ++id) {
        const auto frames = serve::chunk_request(b.cost_request(id), id, 16);
        server.submit_chunk(frames[0]);
    }
    const auto whole = serve::chunk_request(b.cost_request(999), 9999, 16);
    for (const auto &frame : whole) {
        EXPECT_TRUE(server.submit_chunk(frame));
    }

    const auto responses = server.run();
    std::size_t ok = 0, evicted = 0;
    for (const auto &resp : responses) {
        if (resp.ok) {
            ++ok;
        } else if (resp.code == Status::Overloaded) {
            ++evicted;
        }
    }
    EXPECT_EQ(ok, 1u);
    EXPECT_EQ(evicted, 1u);
}

TEST(ServeScale, ShardedChunkedSubmissionRoutesAndRuns) {
    ScaleBench b;
    ShardedConfig cfg;
    cfg.shard_count = 2;
    cfg.shard.functional = false;
    ShardedServer server(b.host.context, xgpu::device1(), core::GpuOptions{},
                         cfg);
    server.set_keys(b.relin, b.galois);

    for (uint64_t session = 0; session < 4; ++session) {
        const auto frames =
            serve::chunk_request(b.cost_request(session), 100 + session, 16);
        for (const auto &frame : frames) {
            server.submit_chunk(frame);
        }
    }
    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 4u);
    for (const auto &resp : responses) {
        EXPECT_TRUE(resp.ok) << resp.error;
    }
}

}  // namespace
}  // namespace xehe::test
