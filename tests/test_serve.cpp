// The encrypted-inference serving frontend: requests flow through the
// admission queue as wire bytes, execute on the session's pool lane, and
// come back as wire bytes — correct results (bit-exact against a direct
// single-lane evaluation), fault isolation for bad requests, timestamp and
// batching semantics, deterministic latency stats, and the multi-lane
// throughput gain on the dual-tile device.
#include "test_common.h"

#include "serve/server.h"
#include "xgpu/device.h"

namespace xehe::test {
namespace {

using serve::ConfigError;
using serve::InferenceServer;
using serve::Op;
using serve::Request;
using serve::Response;
using serve::ServerConfig;

struct ServeBench {
    CkksBench host;
    ckks::RelinKeys relin;
    ckks::GaloisKeys galois;

    ServeBench() : host(1024, 3) {
        relin = host.keygen.create_relin_keys();
        const int steps[] = {1, -1};
        galois = host.keygen.create_galois_keys(steps);
    }

    InferenceServer server(ServerConfig cfg = {}) {
        InferenceServer s(host.context, xgpu::device1(),
                          core::GpuOptions{}, cfg);
        s.set_keys(relin, galois);
        return s;
    }

    std::vector<uint8_t> request_bytes(
        uint64_t session, Op op, std::span<const uint64_t> value_seeds,
        double arrival_ns = 0.0,
        serve::BackendHint hint = serve::BackendHint::Auto) {
        Request req;
        req.session_id = session;
        req.op = op;
        req.arrival_ns = arrival_ns;
        req.backend = hint;
        for (const uint64_t seed : value_seeds) {
            req.inputs.push_back(
                wire::serialize(host.enc(host.values(seed))));
        }
        return wire::serialize(req);
    }
};

TEST(Serve, MulLinRsMatchesDirectEvaluationBitExact) {
    ServeBench b;
    auto server = b.server();
    // The exact ciphertexts travel both paths: through the server as wire
    // bytes, and directly through a standalone GPU evaluator.
    const auto ct_a = b.host.enc(b.host.values(1));
    const auto ct_b = b.host.enc(b.host.values(2));
    Request req;
    req.session_id = 0;
    req.op = Op::MulLinRS;
    req.inputs.push_back(wire::serialize(ct_a));
    req.inputs.push_back(wire::serialize(ct_b));
    server.submit(wire::serialize(req));
    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 1u);
    ASSERT_TRUE(responses[0].ok) << responses[0].error;

    const auto result =
        wire::load_ciphertext(responses[0].result, b.host.context);

    core::GpuContext gpu(b.host.context, xgpu::device1(), core::GpuOptions{});
    core::GpuEvaluator evaluator(gpu);
    const auto ref = core::download(
        gpu, evaluator.rescale(evaluator.relinearize(
                 evaluator.multiply(core::upload(gpu, ct_a),
                                    core::upload(gpu, ct_b)),
                 b.relin)));
    EXPECT_EQ(result.data, ref.data);
    EXPECT_EQ(result.rns, ref.rns);
    EXPECT_EQ(result.scale, ref.scale);
}

TEST(Serve, AllOpsSucceedAndDecode) {
    ServeBench b;
    auto server = b.server();
    const auto va = b.host.values(11);
    const auto vb = b.host.values(12);

    uint64_t session = 0;
    const uint64_t one[] = {11};
    const uint64_t two[] = {11, 12};
    const uint64_t three[] = {11, 12, 13};
    server.submit(b.request_bytes(session++, Op::MulLin, two));
    server.submit(b.request_bytes(session++, Op::MulLinRS, two));
    server.submit(b.request_bytes(session++, Op::SqrLinRS, one));
    server.submit(b.request_bytes(session++, Op::MulLinRSModSwAdd, three));
    server.submit(b.request_bytes(session++, Op::Rotate, one));
    {
        Request req;
        req.session_id = session++;
        req.op = Op::MatmulTile;
        req.matmul_tiles = 2;
        req.inputs.push_back(wire::serialize(b.host.enc(va)));
        req.inputs.push_back(wire::serialize(b.host.enc(vb)));
        server.submit(wire::serialize(req));
    }

    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 6u);
    for (const auto &resp : responses) {
        ASSERT_TRUE(resp.ok) << resp.error;
        ASSERT_FALSE(resp.result.empty());
        EXPECT_LE(resp.enqueue_ns, resp.dispatch_ns);
        EXPECT_LT(resp.dispatch_ns, resp.complete_ns);
    }

    // Spot-check two results semantically.
    std::vector<complexd> product(va.size());
    for (std::size_t i = 0; i < va.size(); ++i) {
        product[i] = va[i] * vb[i];
    }
    expect_close(
        b.host.dec(wire::load_ciphertext(responses[1].result,
                                         b.host.context)),
        product, 1e-2, "served MulLinRS");
    std::vector<complexd> rotated(va.size());
    for (std::size_t i = 0; i < va.size(); ++i) {
        rotated[i] = va[(i + 1) % va.size()];
    }
    expect_close(
        b.host.dec(wire::load_ciphertext(responses[4].result,
                                         b.host.context)),
        rotated, 1e-2, "served Rotate");
}

TEST(Serve, BadRequestsFailWithoutPoisoningTheServer) {
    ServeBench b;
    auto server = b.server();

    // Garbage bytes: rejected at admission.
    const std::vector<uint8_t> garbage = {1, 2, 3, 4, 5};
    server.submit(garbage);

    // Valid envelope, corrupt nested ciphertext: fails at execution.
    {
        Request req;
        req.session_id = 1;
        req.op = Op::SqrLinRS;
        auto ct_bytes = wire::serialize(b.host.enc(b.host.values(21)));
        ct_bytes[ct_bytes.size() / 2] ^= 0x40;
        req.inputs.push_back(std::move(ct_bytes));
        server.submit(wire::serialize(req));
    }

    // A healthy request afterwards still succeeds.
    const uint64_t one[] = {22};
    server.submit(b.request_bytes(2, Op::SqrLinRS, one));

    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_FALSE(responses[0].ok);
    EXPECT_FALSE(responses[0].error.empty());
    EXPECT_FALSE(responses[1].ok);
    EXPECT_NE(responses[1].error.find("wire"), std::string::npos);
    EXPECT_TRUE(responses[2].ok) << responses[2].error;

    const auto stats = server.stats();
    EXPECT_EQ(stats.requests, 1u);
    EXPECT_EQ(stats.failed, 2u);
}

TEST(Serve, ZeroTileMatmulIsRejectedOnBothBackends) {
    // Regression: a directly submitted MatmulTile with matmul_tiles = 0
    // used to skip the wire's field checks and come back ok — a*b from
    // the host lane, an encryption of zero from the GPU lane.
    ServeBench b;
    auto server = b.server();
    const auto ct = wire::serialize(b.host.enc(b.host.values(61)));
    for (const auto hint :
         {serve::BackendHint::Host, serve::BackendHint::Gpu}) {
        Request req;
        req.op = Op::MatmulTile;
        req.matmul_tiles = 0;
        req.backend = hint;
        req.inputs = {ct, ct};
        server.submit(req);
    }
    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 2u);
    for (const auto &resp : responses) {
        EXPECT_FALSE(resp.ok);
        EXPECT_EQ(resp.code, serve::Status::ParseError) << resp.error;
        EXPECT_TRUE(resp.result.empty());
    }
    EXPECT_EQ(server.stats().failed, 2u);
}

TEST(Serve, DirectSubmitEnforcesTheWireFieldRules) {
    // Every field rule the wire decoder applies also guards submit(Request):
    // each request below breaks exactly one and must be refused typed,
    // before it can occupy a lane.
    ServeBench b;
    auto server = b.server();
    const auto ct = wire::serialize(b.host.enc(b.host.values(62)));
    const auto valid = [&] {
        Request req;
        req.op = Op::MulLin;
        req.inputs = {ct, ct};
        return req;
    };
    std::vector<Request> broken(10, valid());
    broken[0].op = Op::MatmulTile;
    broken[0].matmul_tiles = uint64_t{1} << 40;  // a lane busy forever
    broken[1].op = static_cast<Op>(9);
    broken[2].backend = static_cast<serve::BackendHint>(3);
    broken[3].cost_only_level = 65;
    broken[4].arrival_ns = -1.0;
    broken[5].inputs.pop_back();  // arity mismatch
    broken[6].program = {1, 2, 3};  // program bytes on a fixed op
    broken[7].cost_only = true;  // cost-only with operand bytes
    broken[8].op = Op::Program;  // program op without program bytes
    broken[9].op = Op::Rotate;     // a step past the IR's 2^20 bound
    broken[9].rotate_step = (1 << 20) + 1;
    broken[9].inputs.pop_back();
    for (Request &req : broken) {
        server.submit(std::move(req));
    }
    server.submit(valid());
    EXPECT_EQ(server.pending_requests(), 1u);

    const auto responses = server.run();
    ASSERT_EQ(responses.size(), broken.size() + 1);
    std::size_t ok = 0;
    for (const auto &resp : responses) {
        if (resp.ok) {
            ++ok;
            continue;
        }
        EXPECT_EQ(resp.code, serve::Status::ParseError) << resp.error;
        EXPECT_EQ(resp.error.rfind("wire: ", 0), 0u) << resp.error;
    }
    EXPECT_EQ(ok, 1u);
}

TEST(Serve, CanonicalProgramsGetOneAdmissionVerdictOnBothLanes) {
    // A fixed-function request is its canonical program to admission:
    // a cost-only routine that rescales at the last level must fail
    // analysis, typed and before any lane time, whichever lane it named
    // (the host lane used to answer ok without executing it, the GPU
    // lane to fail it only after charging its kernels).
    ServeBench b;
    ServerConfig cfg;
    cfg.functional = false;
    auto server = b.server(cfg);
    const Op ops[] = {Op::MulLinRS, Op::SqrLinRS, Op::MulLinRSModSwAdd};
    for (const Op op : ops) {
        for (const auto hint :
             {serve::BackendHint::Host, serve::BackendHint::Gpu}) {
            Request req;
            req.op = op;
            req.cost_only = true;
            req.cost_only_level = 1;
            req.backend = hint;
            server.submit(req);
        }
    }
    EXPECT_EQ(server.pending_requests(), 0u);
    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 2 * std::size(ops));
    for (const auto &resp : responses) {
        EXPECT_FALSE(resp.ok);
        EXPECT_EQ(resp.code, serve::Status::InvalidProgram) << resp.error;
        EXPECT_NE(resp.error.find("LevelUnderflow"), std::string::npos)
            << resp.error;
        EXPECT_EQ(resp.complete_ns, 0.0);
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.invalid_programs, 2 * std::size(ops));
    EXPECT_EQ(stats.failed, 2 * std::size(ops));
    EXPECT_EQ(stats.host_requests, 0u);
}

TEST(Serve, MatmulTileAnswersLikeItsClientCircuit) {
    // MatmulTile is the canonical one-node MultiplyAcc program, so a
    // client shipping that node gets the same bytes, on either lane.
    ServeBench b;
    auto server = b.server();
    he::ProgramBuilder builder(2);
    builder.output(builder.multiply_acc(builder.input(0), builder.input(1),
                                        3));
    const auto circuit = wire::serialize(builder.build());
    const std::vector<std::vector<uint8_t>> inputs = {
        wire::serialize(b.host.enc(b.host.values(71))),
        wire::serialize(b.host.enc(b.host.values(72)))};
    uint64_t session = 0;
    for (const Op op : {Op::MatmulTile, Op::Program}) {
        for (const auto hint :
             {serve::BackendHint::Host, serve::BackendHint::Gpu}) {
            Request req;
            req.session_id = session++;
            req.op = op;
            req.backend = hint;
            req.inputs = inputs;
            if (op == Op::MatmulTile) {
                req.matmul_tiles = 3;
            } else {
                req.program = circuit;
            }
            server.submit(req);
        }
    }
    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 4u);
    std::vector<std::vector<uint8_t>> results(4);
    for (const auto &resp : responses) {
        ASSERT_TRUE(resp.ok) << resp.error;
        ASSERT_FALSE(resp.result.empty());
        results.at(resp.session_id) = resp.result;
    }
    EXPECT_EQ(results[2], results[0]) << "client circuit vs tile, host lane";
    EXPECT_EQ(results[3], results[1]) << "client circuit vs tile, GPU lane";
    EXPECT_EQ(results[0], results[1]) << "host vs GPU lane";
}

TEST(Serve, AdmissionBoundsAProgramsTotalWork) {
    // Each MultiplyAcc count is in range, but two maximal ones are twice
    // the largest legal MatmulTile: typed rejection, before lane time.
    ServeBench b;
    ServerConfig cfg;
    cfg.functional = false;
    auto server = b.server(cfg);
    he::ProgramBuilder builder(2);
    const auto a = builder.input(0);
    const auto c = builder.input(1);
    const uint32_t max = he::kMaxAccumulations;
    builder.output(builder.add(builder.multiply_acc(a, c, max),
                               builder.multiply_acc(c, a, max)));
    Request req;
    req.op = Op::Program;
    req.cost_only = true;
    req.program = wire::serialize(builder.build());
    server.submit(req);
    Request tile;  // the largest legal MatmulTile is still admitted
    tile.session_id = 1;
    tile.op = Op::MatmulTile;
    tile.matmul_tiles = max;
    tile.cost_only = true;
    tile.backend = serve::BackendHint::Host;
    server.submit(tile);
    EXPECT_EQ(server.pending_requests(), 1u);
    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 2u);
    for (const auto &resp : responses) {
        if (resp.session_id == 0) {
            EXPECT_FALSE(resp.ok);
            EXPECT_EQ(resp.code, serve::Status::InvalidProgram) << resp.error;
            EXPECT_EQ(resp.complete_ns, 0.0);
        } else {
            EXPECT_TRUE(resp.ok) << resp.error;
        }
    }
    EXPECT_EQ(server.stats().invalid_programs, 1u);
}

TEST(Serve, CircuitInputCountCheckedAtAdmission) {
    // A client circuit shipped with the wrong number of operands fails
    // typed at admission, before its operands are decoded or uploaded.
    ServeBench b;
    auto server = b.server();
    he::ProgramBuilder builder(2);
    builder.output(builder.add(builder.input(0), builder.input(1)));
    Request req;
    req.op = Op::Program;
    req.program = wire::serialize(builder.build());
    req.inputs = {wire::serialize(b.host.enc(b.host.values(81)))};
    server.submit(req);
    EXPECT_EQ(server.pending_requests(), 0u);
    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].code, serve::Status::ParseError)
        << responses[0].error;
    EXPECT_NE(responses[0].error.find("input count"), std::string::npos)
        << responses[0].error;
    EXPECT_EQ(responses[0].complete_ns, 0.0);
}

TEST(Serve, MissingKeysReportedPerRequest) {
    ServeBench b;
    InferenceServer server(b.host.context, xgpu::device1(),
                           core::GpuOptions{});
    const uint64_t one[] = {31};
    server.submit(b.request_bytes(0, Op::SqrLinRS, one));
    server.submit(b.request_bytes(1, Op::Rotate, one));
    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_FALSE(responses[0].ok);
    EXPECT_NE(responses[0].error.find("relin"), std::string::npos);
    EXPECT_FALSE(responses[1].ok);
    EXPECT_NE(responses[1].error.find("galois"), std::string::npos);
}

// Keys of another context are refused by either lane's key switch before
// it reads a key word: that request answers ExecError, and the next one
// on the same lane is served.
TEST(Serve, MismatchedKeysAnswerExecError) {
    ServeBench b;
    const ckks::CkksContext small(ckks::EncryptionParameters::create(1024, 2));
    ckks::KeyGenerator small_keygen(small);
    InferenceServer server(b.host.context, xgpu::device1(),
                           core::GpuOptions{});
    server.set_keys(small_keygen.create_relin_keys(), b.galois);
    const uint64_t one[] = {32};
    uint64_t session = 0;
    for (const serve::BackendHint hint :
         {serve::BackendHint::Host, serve::BackendHint::Gpu}) {
        server.submit(
            b.request_bytes(session++, Op::SqrLinRS, one, 0.0, hint));
        server.submit(b.request_bytes(session++, Op::Rotate, one, 0.0, hint));
    }
    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 4u);
    for (std::size_t i = 0; i < responses.size(); i += 2) {
        EXPECT_FALSE(responses[i].ok);
        EXPECT_EQ(responses[i].code, serve::Status::ExecError);
        EXPECT_NE(responses[i].error.find("key"), std::string::npos)
            << responses[i].error;
        EXPECT_TRUE(responses[i + 1].ok) << responses[i + 1].error;
    }
}

// A host lane splits its key switches, rescales and products over the
// server's thread pool (the process-wide one when none is given).  The
// response bytes are those of the serial host backend on any pool.
TEST(Serve, HostResponsesMatchTheSerialBackendOnEveryPool) {
    ServeBench b;
    const Op ops[] = {Op::MulLin, Op::MulLinRS, Op::SqrLinRS,
                      Op::MulLinRSModSwAdd, Op::Rotate};
    std::vector<Request> requests;
    for (const Op op : ops) {
        Request req;
        req.session_id = requests.size();
        req.op = op;
        req.backend = serve::BackendHint::Host;
        for (std::size_t i = 0; i < serve::op_arity(op); ++i) {
            req.inputs.push_back(
                wire::serialize(b.host.enc(b.host.values(40 + i))));
        }
        requests.push_back(std::move(req));
    }

    // The serial oracle: each canonical program on a pool-less backend.
    std::vector<std::vector<uint8_t>> expected;
    he::HostBackend serial(b.host.context);
    const he::ProgramKeys keys{&b.relin, &b.galois};
    for (const Request &req : requests) {
        std::vector<he::Cipher> operands;
        for (const auto &bytes : req.inputs) {
            operands.push_back(serial.upload(
                wire::load_ciphertext(bytes, b.host.context)));
        }
        const auto result = he::run_program(*serve::canonical_program(req),
                                            serial, operands, keys);
        expected.push_back(wire::serialize(serial.download(result.front())));
    }

    xgpu::ThreadPool one(1), three(3);
    for (xgpu::ThreadPool *pool : {static_cast<xgpu::ThreadPool *>(nullptr),
                                   &one, &three}) {
        SCOPED_TRACE(pool == nullptr ? 0u : pool->worker_count());
        InferenceServer server(b.host.context, xgpu::device1(),
                               core::GpuOptions{}, ServerConfig{}, nullptr,
                               pool);
        server.set_keys(b.relin, b.galois);
        for (const Request &req : requests) {
            server.submit(wire::serialize(req));
        }
        const auto responses = server.run();
        ASSERT_EQ(responses.size(), requests.size());
        for (std::size_t i = 0; i < responses.size(); ++i) {
            ASSERT_TRUE(responses[i].ok) << responses[i].error;
            EXPECT_EQ(responses[i].session_id, requests[i].session_id);
            EXPECT_TRUE(responses[i].result == expected[i]) << op_name(ops[i]);
        }
    }
}

TEST(Serve, DynamicBatchingFormsExpectedBatches) {
    ServeBench b;
    ServerConfig cfg;
    cfg.max_batch = 2;
    // All five requests arrive at t = 0, so any positive window forms the
    // same batches a zero window would.
    cfg.batch_window_ns = 1000.0;
    cfg.functional = false;
    auto server = b.server(cfg);

    for (uint64_t s = 0; s < 5; ++s) {
        Request req;
        req.session_id = s;
        req.op = Op::SqrLinRS;
        req.cost_only = true;
        server.submit(std::move(req));
    }
    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 5u);
    // 5 simultaneous arrivals, batch cap 2 -> 3 batches.
    EXPECT_EQ(server.stats().batches, 3u);

    // max_batch = 0 is a configuration error, rejected at construction —
    // not clamped, not a hang.
    ServerConfig degenerate = cfg;
    degenerate.max_batch = 0;
    EXPECT_THROW(b.server(degenerate), ConfigError);

    // Later batches dispatch no earlier than earlier ones.
    for (std::size_t i = 1; i < responses.size(); ++i) {
        EXPECT_GE(responses[i].dispatch_ns, responses[i - 1].enqueue_ns);
    }
}

TEST(Serve, WindowHoldsPartialBatchForLateArrival) {
    ServeBench b;
    ServerConfig cfg;
    cfg.max_batch = 4;
    cfg.batch_window_ns = 1000.0;
    cfg.functional = false;
    auto server = b.server(cfg);

    auto make = [](uint64_t s, double arrival) {
        Request req;
        req.session_id = s;
        req.op = Op::SqrLinRS;
        req.cost_only = true;
        req.arrival_ns = arrival;
        return req;
    };
    // One early request, one inside the window, one far beyond it.
    server.submit(make(0, 0.0));
    server.submit(make(1, 500.0));
    server.submit(make(2, 50000.0));
    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 3u);
    // The first two share a batch (the window held for the late arrival);
    // the third dispatches alone.
    EXPECT_EQ(server.stats().batches, 2u);
    EXPECT_EQ(responses[0].dispatch_ns, responses[1].dispatch_ns);
    EXPECT_GE(responses[1].dispatch_ns, 500.0);
    EXPECT_GE(responses[2].dispatch_ns, 50000.0);
}

TEST(Serve, DeterministicPerSeedAcrossRuns) {
    ServeBench b;
    auto run_once = [&] {
        ServerConfig cfg;
        cfg.max_batch = 4;
        cfg.functional = false;
        auto server = b.server(cfg);
        std::mt19937_64 rng(7);
        double arrival = 0.0;
        for (uint64_t s = 0; s < 12; ++s) {
            Request req;
            req.session_id = s;
            req.op = static_cast<Op>(s % 5);
            req.cost_only = true;
            arrival += static_cast<double>(rng() % 100000);
            req.arrival_ns = arrival;
            server.submit(std::move(req));
        }
        server.run();
        return server.stats();
    };
    const auto first = run_once();
    const auto second = run_once();
    EXPECT_EQ(first.requests, second.requests);
    EXPECT_EQ(first.p50_ms, second.p50_ms);
    EXPECT_EQ(first.p95_ms, second.p95_ms);
    EXPECT_EQ(first.p99_ms, second.p99_ms);
    EXPECT_EQ(first.throughput_rps, second.throughput_rps);
    EXPECT_GT(first.requests, 0u);
    EXPECT_LE(first.p50_ms, first.p95_ms);
    EXPECT_LE(first.p95_ms, first.p99_ms);
    EXPECT_LE(first.p99_ms, first.max_ms);
}

TEST(Serve, MultiLaneThroughputBeatsSingleLane) {
    ServeBench b;
    obs::Registry &reg = obs::Registry::global();
    struct Run {
        serve::LatencyStats stats;
        bool gpu = false;
        double kernel_ns = 0.0;
    };
    auto run_with_lanes = [&](int queue_count, uint64_t sessions) {
        ServerConfig cfg;
        cfg.max_batch = 8;
        cfg.functional = false;
        cfg.queue_count = queue_count;
        auto server = b.server(cfg);
        for (uint64_t s = 0; s < 16; ++s) {
            Request req;
            req.session_id = s % sessions;
            req.op = static_cast<Op>(s % 5);
            req.cost_only = true;
            server.submit(std::move(req));
        }
        server.run();
        Run run;
        run.stats = server.stats();
        // stats() publishes the device gauges when a GPU pool is up.
        run.gpu = server.gpu_pool_active();
        run.kernel_ns = reg.gauge("xgpu.kernel_ns").value();
        return run;
    };
    const Run single = run_with_lanes(1, 16);
    const Run dual = run_with_lanes(0, 16);  // one lane per tile on device1
    ASSERT_EQ(single.stats.requests, 16u);
    ASSERT_EQ(dual.stats.requests, 16u);
    EXPECT_GE(dual.stats.throughput_rps / single.stats.throughput_rps, 1.5);
    EXPECT_LE(dual.stats.p99_ms, single.stats.p99_ms);

    // Aggregate kernel time is lane-count-invariant; only the makespan
    // moves.
    if (single.gpu && dual.gpu) {
        EXPECT_GT(single.kernel_ns, 0.0);
        EXPECT_NEAR(dual.kernel_ns, single.kernel_ns,
                    1e-9 * single.kernel_ns);
    }

    // Five sessions wrap around two lanes (a 3+2 split) and still overlap.
    const Run wrapped = run_with_lanes(0, 5);
    ASSERT_EQ(wrapped.stats.requests, 16u);
    EXPECT_LT(wrapped.stats.makespan_ms, 0.8 * single.stats.makespan_ms);
}

}  // namespace
}  // namespace xehe::test
