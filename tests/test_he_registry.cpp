// Backend conformance and host fallback.  The two backends, constructed
// directly, must produce bit-identical ciphertexts on the five IV-C
// routine programs and on seeded random he::Program DAGs, and a server
// must return byte-identical responses for every Op on a host and a GPU
// lane.  The fallback half proves the disable switch: the GPU sites throw
// the typed he::BackendUnavailable, and the serving stack degrades to host
// (no request errors, LatencyStats::fallbacks counts) — the
// XEHE_DISABLE_BACKENDS CI lane in miniature, driven through
// he::set_backend_disabled().
#include "test_common.h"

#include <optional>

#include "serve/server.h"
#include "xehe/evaluator_pool.h"
#include "xehe/routines.h"
#include "xgpu/device.h"

namespace xehe::test {
namespace {

using he::BackendUnavailable;

/// Switches a backend off (or on) for one test, restoring the prior state
/// on exit — the env-driven forced-fallback CI lane must not be switched
/// back on by a test that happens to touch the same name.
class DisabledGuard {
public:
    explicit DisabledGuard(std::string name, bool disabled = true)
        : name_(std::move(name)), prior_(he::backend_disabled(name_)) {
        he::set_backend_disabled(name_, disabled);
    }
    ~DisabledGuard() { he::set_backend_disabled(name_, prior_); }
    DisabledGuard(const DisabledGuard &) = delete;
    DisabledGuard &operator=(const DisabledGuard &) = delete;

private:
    std::string name_;
    bool prior_;
};

struct Rig {
    CkksBench host;
    ckks::RelinKeys relin;
    ckks::GaloisKeys galois;

    explicit Rig(std::size_t n = 1024, std::size_t levels = 4)
        : host(n, levels) {
        relin = host.keygen.create_relin_keys();
        const int steps[] = {1};
        galois = host.keygen.create_galois_keys(steps);
    }

    he::ProgramKeys keys() const {
        he::ProgramKeys k;
        k.relin = &relin;
        k.galois = &galois;
        return k;
    }
};

/// Both backends, constructed directly: conformance compares host with
/// GPU whatever the disable switch says.
struct BothBackends {
    explicit BothBackends(const ckks::CkksContext &context)
        : host(context), gpu_context(context, xgpu::device1(), {}),
          evaluator(gpu_context), gpu(gpu_context, evaluator) {}

    he::HostBackend host;
    core::GpuContext gpu_context;
    core::GpuEvaluator evaluator;
    he::GpuBackend gpu;
};

/// Uploads the first program.num_inputs ciphertexts, interprets the
/// program, and returns each output as its serialized wire bytes — the
/// strictest cross-backend comparison (data, metadata, scale, all of it).
std::vector<std::vector<uint8_t>> run_on(
    he::Backend &backend, const he::Program &program,
    std::span<const ckks::Ciphertext> cts, const he::ProgramKeys &keys) {
    std::vector<he::Cipher> inputs;
    inputs.reserve(program.num_inputs);
    for (std::size_t i = 0; i < program.num_inputs; ++i) {
        inputs.push_back(backend.upload(cts[i]));
    }
    const auto outputs = he::run_program(program, backend, inputs, keys);
    std::vector<std::vector<uint8_t>> bytes;
    bytes.reserve(outputs.size());
    for (const auto &out : outputs) {
        bytes.push_back(wire::serialize(backend.download(out)));
    }
    return bytes;
}

/// A random multiply-depth-stratified program DAG.  The generation
/// invariant: a value's generation is its multiply depth, every
/// generation-g value sits at level max_level - g with the identical
/// derived scale (all g-producing rescales drop the same prime), so any
/// same-generation pair is a legal Add/Sub/Multiply operand pair without
/// tracking scales explicitly.
he::Program random_dag(uint64_t seed, std::size_t max_gen) {
    std::mt19937_64 rng(seed);
    const std::size_t num_inputs = 2 + rng() % 2;  // 2..3
    he::ProgramBuilder builder(num_inputs);

    struct Entry {
        he::ProgramBuilder::Value value;
        std::size_t gen;
    };
    std::vector<Entry> pool;
    for (std::size_t i = 0; i < num_inputs; ++i) {
        pool.push_back({builder.input(i), 0});
    }
    const auto peer_of = [&](const Entry &x) -> const Entry & {
        // A uniformly random pool entry of x's generation (possibly x).
        std::size_t count = 0;
        const Entry *pick = &x;
        for (const Entry &e : pool) {
            if (e.gen == x.gen && rng() % ++count == 0) {
                pick = &e;
            }
        }
        return *pick;
    };

    const std::size_t ops = 4 + rng() % 7;  // 4..10
    Entry last = pool.front();
    for (std::size_t step = 0; step < ops; ++step) {
        Entry &x = pool[rng() % pool.size()];
        Entry out;
        const int op = static_cast<int>(rng() % 6);
        const bool can_multiply = x.gen < max_gen;
        switch (can_multiply ? op : op % 4) {
            case 0:
                out = {builder.add(x.value, peer_of(x).value), x.gen};
                break;
            case 1:
                out = {builder.sub(x.value, peer_of(x).value), x.gen};
                break;
            case 2:
                out = {builder.negate(x.value), x.gen};
                break;
            case 3:
                out = {builder.rotate(x.value, 1), x.gen};
                break;
            case 4:
                out = {builder.rescale(builder.relinearize(builder.multiply(
                           x.value, peer_of(x).value))),
                       x.gen + 1};
                break;
            default:
                out = {builder.rescale(
                           builder.relinearize(builder.square(x.value))),
                       x.gen + 1};
                break;
        }
        last = out;
        pool[rng() % pool.size()] = out;
    }
    builder.output(last.value);
    return builder.build();
}

// ---------------------------------------------------------------------------
// The disable switch
// ---------------------------------------------------------------------------

TEST(HeDisableSwitch, GpuSitesThrowTypedWhileSwitchedOff) {
    Rig rig;
    core::RoutineBench bench(rig.host.context, xgpu::device1(),
                             core::GpuOptions{}, /*functional=*/false);
    {
        DisabledGuard guard("gpu");
        EXPECT_TRUE(he::backend_disabled("gpu"));
        EXPECT_FALSE(he::backend_disabled("host"));
        try {
            core::GpuEvaluatorPool(rig.host.context, xgpu::device1(),
                                   core::GpuOptions{}, 2);
            FAIL() << "expected BackendUnavailable";
        } catch (const BackendUnavailable &e) {
            EXPECT_EQ(e.backend(), "gpu");
            EXPECT_NE(std::string(e.what()).find("disabled"),
                      std::string::npos);
        }
        EXPECT_THROW(bench.run(core::Routine::MulLin), BackendUnavailable);
    }
    {
        DisabledGuard guard("gpu", /*disabled=*/false);
        EXPECT_NO_THROW(he::require_backend("gpu"));
        EXPECT_NO_THROW(bench.run(core::Routine::MulLin));
    }
}

// ---------------------------------------------------------------------------
// Conformance: host and GPU, bit-identical
// ---------------------------------------------------------------------------

TEST(HeConformance, FiveRoutineProgramsBitIdenticalAcrossBackends) {
    Rig rig;
    BothBackends backends(rig.host.context);

    const ckks::Ciphertext cts[3] = {rig.host.enc(rig.host.values(1)),
                                     rig.host.enc(rig.host.values(2)),
                                     rig.host.enc(rig.host.values(3))};
    for (const core::Routine r : core::kAllRoutines) {
        SCOPED_TRACE(core::routine_name(r));
        const he::Program &program = core::routine_program(r);
        const auto host = run_on(backends.host, program, cts, rig.keys());
        const auto gpu = run_on(backends.gpu, program, cts, rig.keys());
        ASSERT_EQ(host.size(), 1u);
        EXPECT_FALSE(host[0].empty());
        EXPECT_EQ(gpu, host);
    }
}

TEST(HeConformance, RandomProgramDagsBitIdenticalAcrossBackends) {
    Rig rig;
    BothBackends backends(rig.host.context);

    // Inputs at max level; DAG multiply depth keeps every value at level
    // >= 1 (the same floor the session conformance suite uses).
    const std::size_t max_gen = rig.host.context.max_level() - 1;
    const ckks::Ciphertext cts[3] = {rig.host.enc(rig.host.values(11)),
                                     rig.host.enc(rig.host.values(12)),
                                     rig.host.enc(rig.host.values(13))};
    for (uint64_t seed = 100; seed < 150; ++seed) {
        SCOPED_TRACE(seed);
        const he::Program program = random_dag(seed, max_gen);
        const auto host = run_on(backends.host, program, cts, rig.keys());
        const auto gpu = run_on(backends.gpu, program, cts, rig.keys());
        ASSERT_EQ(host.size(), 1u);
        EXPECT_EQ(gpu, host);
    }
}

TEST(HeConformance, ServedOpsBitIdenticalOnHostAndGpuLanes) {
    // One server, the same ciphertext bytes submitted twice per case —
    // pinned to a host lane and to a GPU lane — must come back
    // byte-identical for every Op: the invariant that lets both backends
    // share one execution path.
    DisabledGuard gpu_on("gpu", /*disabled=*/false);  // both lanes, always
    Rig rig;
    const int steps[] = {1, 3};
    rig.galois = rig.host.keygen.create_galois_keys(steps);
    serve::InferenceServer server(rig.host.context, xgpu::device1(),
                                  core::GpuOptions{}, serve::ServerConfig{});
    ASSERT_TRUE(server.gpu_pool_active());
    server.set_keys(rig.relin, rig.galois);

    he::ProgramBuilder builder(2);
    const auto prod = builder.relinearize(
        builder.multiply(builder.input(0), builder.input(1)));
    const auto sq = builder.relinearize(builder.square(builder.input(0)));
    builder.output(builder.add(builder.rotate(prod, 1), sq));
    const auto circuit = wire::serialize(builder.build());

    struct Case {
        serve::Op op;
        std::size_t arity;
        int rotate_step = 1;
        uint64_t tiles = 1;
    };
    const Case cases[] = {
        {serve::Op::MulLin, 2},
        {serve::Op::MulLinRS, 2},
        {serve::Op::SqrLinRS, 1},
        {serve::Op::MulLinRSModSwAdd, 3},
        {serve::Op::Rotate, 1, 1},
        {serve::Op::Rotate, 1, 3},
        {serve::Op::MatmulTile, 2, 1, 1},
        {serve::Op::MatmulTile, 2, 1, 2},
        {serve::Op::MatmulTile, 2, 1, 5},
        {serve::Op::Program, 2},
    };
    uint64_t session = 0;
    for (const Case &c : cases) {
        serve::Request req;
        req.op = c.op;
        req.rotate_step = c.rotate_step;
        req.matmul_tiles = c.tiles;
        if (c.op == serve::Op::Program) {
            req.program = circuit;
        }
        for (std::size_t i = 0; i < c.arity; ++i) {
            req.inputs.push_back(wire::serialize(
                rig.host.enc(rig.host.values(session + 100 * i))));
        }
        for (const auto hint :
             {serve::BackendHint::Host, serve::BackendHint::Gpu}) {
            req.session_id = session++;
            req.backend = hint;
            server.submit(req);
        }
    }

    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 2 * std::size(cases));
    std::vector<std::vector<uint8_t>> results(responses.size());
    for (const auto &resp : responses) {
        ASSERT_TRUE(resp.ok) << resp.error;
        ASSERT_FALSE(resp.result.empty());
        results.at(resp.session_id) = resp.result;
    }
    for (std::size_t k = 0; k < std::size(cases); ++k) {
        EXPECT_EQ(results[2 * k], results[2 * k + 1])
            << serve::op_name(cases[k].op) << " case " << k
            << ": host and GPU lanes disagree";
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.host_requests, std::size(cases));
    EXPECT_EQ(stats.fallbacks, 0u);
}

// ---------------------------------------------------------------------------
// Serving fallback: degrade to host, count it, stay bit-exact
// ---------------------------------------------------------------------------

TEST(HeFallback, ServerDegradesToHostWithoutRequestErrors) {
    DisabledGuard guard("gpu");
    Rig rig;
    serve::ServerConfig cfg;
    cfg.compile_programs = false;  // host path == raw routine program
    serve::InferenceServer server(rig.host.context, xgpu::device1(),
                                  core::GpuOptions{}, cfg);
    EXPECT_FALSE(server.gpu_pool_active());
    EXPECT_GE(server.lane_count(), 1u);
    server.set_keys(rig.relin, rig.galois);

    const auto ct_a = rig.host.enc(rig.host.values(21));
    const auto ct_b = rig.host.enc(rig.host.values(22));

    serve::Request mul;
    mul.session_id = 1;
    mul.op = serve::Op::MulLinRS;
    mul.inputs.push_back(wire::serialize(ct_a));
    mul.inputs.push_back(wire::serialize(ct_b));
    server.submit(wire::serialize(mul));

    serve::Request rot;
    rot.session_id = 2;
    rot.op = serve::Op::Rotate;
    rot.rotate_step = 1;
    rot.inputs.push_back(wire::serialize(ct_a));
    server.submit(wire::serialize(rot));

    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 2u);
    for (const auto &resp : responses) {
        EXPECT_TRUE(resp.ok) << resp.error;
        EXPECT_FALSE(resp.result.empty());
        EXPECT_LE(resp.enqueue_ns, resp.dispatch_ns);
        EXPECT_LT(resp.dispatch_ns, resp.complete_ns);
    }

    const auto stats = server.stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.fallbacks, 2u);
    EXPECT_EQ(stats.host_requests, 2u);

    // Bit-exact against the independent host-backend oracle.
    he::HostBackend oracle(rig.host.context);
    const ckks::Ciphertext mul_in[2] = {ct_a, ct_b};
    const ckks::Ciphertext rot_in[1] = {ct_a};
    const auto expect_mul = run_on(
        oracle, core::routine_program(core::Routine::MulLinRS), mul_in,
        rig.keys());
    const auto expect_rot = run_on(
        oracle, core::routine_program(core::Routine::Rotate), rot_in,
        rig.keys());
    for (const auto &resp : responses) {
        EXPECT_EQ(resp.result, resp.session_id == 1 ? expect_mul[0]
                                                    : expect_rot[0]);
    }
}

TEST(HeFallback, GpuPinnedRequestFallsBackWhenDisabled) {
    DisabledGuard guard("gpu");
    Rig rig;
    serve::InferenceServer server(rig.host.context, xgpu::device1(),
                                  core::GpuOptions{}, serve::ServerConfig{});
    server.set_keys(rig.relin, rig.galois);
    serve::Request req;
    req.op = serve::Op::SqrLinRS;
    req.backend = serve::BackendHint::Gpu;  // pinned, still must not fail
    req.inputs.push_back(wire::serialize(rig.host.enc(rig.host.values(31))));
    server.submit(wire::serialize(req));
    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_TRUE(responses[0].ok) << responses[0].error;
    EXPECT_EQ(server.stats().fallbacks, 1u);
}

TEST(HeFallback, GpuSwitchedOffMidRunDegradesEveryRequest) {
    // The server comes up with its GPU pool; "gpu" is switched off after
    // submission and before run(), so every GPU lane's construction
    // refuses and each request degrades to host, counted, bit-exact.
    Rig rig;
    serve::ServerConfig cfg;
    cfg.compile_programs = false;  // host path == raw routine program
    std::optional<serve::InferenceServer> server;
    {
        DisabledGuard on("gpu", /*disabled=*/false);
        server.emplace(rig.host.context, xgpu::device1(), core::GpuOptions{},
                       cfg);
    }
    ASSERT_TRUE(server->gpu_pool_active());
    server->set_keys(rig.relin, rig.galois);

    const ckks::Ciphertext cts[2] = {rig.host.enc(rig.host.values(61)),
                                     rig.host.enc(rig.host.values(62))};
    const struct {
        serve::Op op;
        core::Routine routine;
    } cases[] = {{serve::Op::MulLinRS, core::Routine::MulLinRS},
                 {serve::Op::SqrLinRS, core::Routine::SqrLinRS},
                 {serve::Op::Rotate, core::Routine::Rotate}};
    for (std::size_t k = 0; k < std::size(cases); ++k) {
        const he::Program &program = core::routine_program(cases[k].routine);
        serve::Request req;
        req.session_id = k;
        req.op = cases[k].op;
        req.backend = serve::BackendHint::Gpu;
        for (std::size_t i = 0; i < program.num_inputs; ++i) {
            req.inputs.push_back(wire::serialize(cts[i]));
        }
        server->submit(wire::serialize(req));
    }

    DisabledGuard off("gpu");
    const auto responses = server->run();
    ASSERT_EQ(responses.size(), std::size(cases));
    he::HostBackend oracle(rig.host.context);
    for (const auto &resp : responses) {
        ASSERT_TRUE(resp.ok) << resp.error;
        const core::Routine r = cases[resp.session_id].routine;
        EXPECT_EQ(resp.result, run_on(oracle, core::routine_program(r), cts,
                                      rig.keys())[0])
            << core::routine_name(r);
    }
    const auto stats = server->stats();
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.fallbacks, std::size(cases));
    EXPECT_EQ(stats.host_requests, std::size(cases));
}

TEST(HeFallback, MissingKeyIsExecErrorOnBothLanes) {
    // A cost-only request whose program needs a key the session lacks:
    // the host lane charges cost-only work without executing it, so only
    // a key check ahead of execution gives it the GPU lane's answer.
    Rig rig;
    serve::ServerConfig cfg;
    cfg.functional = false;
    serve::InferenceServer server(rig.host.context, xgpu::device1(),
                                  core::GpuOptions{}, cfg);
    const struct {
        serve::Op op;
        int rotate_step;
    } cases[] = {{serve::Op::MulLin, 1}, {serve::Op::Rotate, 1}};
    uint64_t session = 0;
    for (const auto &c : cases) {
        for (const auto hint :
             {serve::BackendHint::Host, serve::BackendHint::Gpu}) {
            serve::Request req;
            req.session_id = session++;
            req.op = c.op;
            req.rotate_step = c.rotate_step;
            req.cost_only = true;
            req.backend = hint;
            server.submit(req);
        }
    }
    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 2 * std::size(cases));
    for (const auto &resp : responses) {
        EXPECT_EQ(resp.code, serve::Status::ExecError)
            << "session " << resp.session_id << ": " << resp.error;
        EXPECT_NE(resp.error.find("needs"), std::string::npos) << resp.error;
    }

    // With relinearization keys but a Galois key for step 1 only, a
    // rotation by 2 fails the same way on both lanes.
    server.set_keys(rig.relin, rig.galois);
    for (const auto hint :
         {serve::BackendHint::Host, serve::BackendHint::Gpu}) {
        serve::Request req;
        req.op = serve::Op::Rotate;
        req.rotate_step = 2;
        req.cost_only = true;
        req.backend = hint;
        server.submit(req);
    }
    for (const auto &resp : server.run()) {
        EXPECT_EQ(resp.code, serve::Status::ExecError) << resp.error;
        EXPECT_NE(resp.error.find("missing galois key"), std::string::npos)
            << resp.error;
    }
}

TEST(HeFallback, HostHintRoutesWithoutFallbackCount) {
    DisabledGuard gpu_on("gpu", /*disabled=*/false);  // routing needs both
    Rig rig;
    serve::InferenceServer server(rig.host.context, xgpu::device1(),
                                  core::GpuOptions{}, serve::ServerConfig{});
    ASSERT_TRUE(server.gpu_pool_active());
    server.set_keys(rig.relin, rig.galois);

    const auto ct = rig.host.enc(rig.host.values(41));
    serve::Request host_pinned;
    host_pinned.session_id = 1;
    host_pinned.op = serve::Op::SqrLinRS;
    host_pinned.backend = serve::BackendHint::Host;
    host_pinned.inputs.push_back(wire::serialize(ct));
    server.submit(wire::serialize(host_pinned));

    serve::Request gpu_auto;
    gpu_auto.session_id = 2;
    gpu_auto.op = serve::Op::SqrLinRS;
    gpu_auto.inputs.push_back(wire::serialize(ct));
    server.submit(wire::serialize(gpu_auto));

    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 2u);
    std::vector<uint8_t> host_result, gpu_result;
    for (const auto &resp : responses) {
        ASSERT_TRUE(resp.ok) << resp.error;
        (resp.session_id == 1 ? host_result : gpu_result) = resp.result;
    }
    const auto stats = server.stats();
    // An explicit Host hint is routing, not degradation.
    EXPECT_EQ(stats.fallbacks, 0u);
    EXPECT_EQ(stats.host_requests, 1u);
    // And the two backends agreed bit-exactly on the same job.
    EXPECT_EQ(host_result, gpu_result);
}

}  // namespace
}  // namespace xehe::test
