// he::Program — the wire-executable circuit IR: canonical routine
// programs interpreted over GpuBackend are bit-identical to the direct
// GpuEvaluator routine calls (the acceptance differential, fused and
// unfused), programs agree across backends and with raw session calls,
// structural validation and missing keys throw, wire round trips are
// exact and corruption is rejected (truncation/bit-flip fuzz), the
// RoutineBench input accessor bounds-checks, and Op::Program requests
// serve arbitrary client circuits bit-exactly with per-request fault
// isolation.
#include "test_common.h"

#include "he/session.h"
#include "serve/server.h"
#include "xehe/routines.h"
#include "xgpu/device.h"

namespace xehe::test {
namespace {

using serve::InferenceServer;
using serve::Op;
using serve::Request;
using serve::ServerConfig;

struct ProgramRig {
    CkksBench host;
    ckks::RelinKeys relin;
    ckks::GaloisKeys galois;

    explicit ProgramRig(std::size_t n = 1024, std::size_t levels = 4)
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

std::vector<double> random_reals(std::size_t count, uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> v(count);
    for (auto &x : v) {
        x = dist(rng);
    }
    return v;
}

void expect_bit_identical(const ckks::Ciphertext &x,
                          const ckks::Ciphertext &y, const char *what) {
    ASSERT_EQ(x.size, y.size) << what;
    ASSERT_EQ(x.rns, y.rns) << what;
    EXPECT_DOUBLE_EQ(x.scale, y.scale) << what;
    EXPECT_EQ(x.data, y.data) << what;
}

TEST(HeProgram, CanonicalProgramsMatchDirectRoutineCallsBitExact) {
    ProgramRig rig;
    const auto ct_a = rig.host.enc(rig.host.values(1));
    const auto ct_b = rig.host.enc(rig.host.values(2));
    const auto ct_c = rig.host.enc(rig.host.values(3));

    for (const bool fuse : {true, false}) {
        SCOPED_TRACE(fuse ? "fused" : "unfused");
        core::GpuOptions options;
        options.fuse_dyadic = fuse;
        core::GpuContext gpu(rig.host.context, xgpu::device1(), options);
        core::GpuEvaluator evaluator(gpu);
        const auto a = core::upload(gpu, ct_a);
        const auto b = core::upload(gpu, ct_b);
        const auto c = core::upload(gpu, ct_c);

        const auto direct = [&](core::Routine r) -> core::GpuCiphertext {
            switch (r) {
                case core::Routine::MulLin:
                    return evaluator.relinearize(evaluator.multiply(a, b),
                                                 rig.relin);
                case core::Routine::MulLinRS:
                    return evaluator.rescale(evaluator.relinearize(
                        evaluator.multiply(a, b), rig.relin));
                case core::Routine::SqrLinRS:
                    return evaluator.rescale(evaluator.relinearize(
                        evaluator.square(a), rig.relin));
                case core::Routine::MulLinRSModSwAdd:
                    return evaluator.mod_switch_add(
                        evaluator.rescale(evaluator.relinearize(
                            evaluator.multiply(a, b), rig.relin)),
                        c);
                case core::Routine::Rotate:
                    return evaluator.rotate(a, 1, rig.galois);
            }
            return {};
        };

        for (const core::Routine r : core::kAllRoutines) {
            SCOPED_TRACE(core::routine_name(r));
            he::GpuBackend backend(gpu, evaluator);
            const he::Program &program = core::routine_program(r);
            const he::Cipher inputs[3] = {backend.wrap(a), backend.wrap(b),
                                          backend.wrap(c)};
            const auto outputs = he::run_program(
                program, backend,
                std::span<const he::Cipher>(inputs).first(program.num_inputs),
                rig.keys());
            ASSERT_EQ(outputs.size(), 1u);
            expect_bit_identical(
                core::download(gpu, backend.native(outputs[0])),
                core::download(gpu, direct(r)), core::routine_name(r));
        }
    }
}

TEST(HeProgram, CanonicalProgramsAgreeAcrossBackends) {
    ProgramRig rig;
    const auto ct_a = rig.host.enc(rig.host.values(4));
    const auto ct_b = rig.host.enc(rig.host.values(5));
    const auto ct_c = rig.host.enc(rig.host.values(6));

    he::HostBackend host_backend(rig.host.context);
    core::GpuContext gpu(rig.host.context, xgpu::device1(),
                         core::GpuOptions{});
    core::GpuEvaluator evaluator(gpu);
    he::GpuBackend gpu_backend(gpu, evaluator);

    for (const core::Routine r : core::kAllRoutines) {
        SCOPED_TRACE(core::routine_name(r));
        const he::Program &program = core::routine_program(r);
        const auto run = [&](he::Backend &backend) {
            const he::Cipher inputs[3] = {backend.upload(ct_a),
                                          backend.upload(ct_b),
                                          backend.upload(ct_c)};
            auto outputs = he::run_program(
                program, backend,
                std::span<const he::Cipher>(inputs).first(program.num_inputs),
                rig.keys());
            return backend.download(outputs.at(0));
        };
        expect_bit_identical(run(host_backend), run(gpu_backend),
                             core::routine_name(r));
    }
}

TEST(HeProgram, InterpreterMatchesRawBackendCalls) {
    ProgramRig rig;
    core::GpuContext gpu(rig.host.context, xgpu::device1(),
                         core::GpuOptions{});
    core::GpuEvaluator evaluator(gpu);
    he::GpuBackend backend(gpu, evaluator);
    he::Session session(backend);

    const auto va = random_reals(rig.host.encoder.slots(), 7);
    const auto vb = random_reals(rig.host.encoder.slots(), 8);
    const auto a = session.encrypt(va);
    const auto b = session.encrypt(vb);

    // Program: rotate(rescale(relin(a * b)), 1) + modsw-adopted b.
    he::ProgramBuilder builder(2);
    const auto prod = builder.rescale(
        builder.relinearize(builder.multiply(builder.input(0),
                                             builder.input(1))));
    const auto rotated = builder.rotate(prod, 1);
    builder.output(
        builder.add(rotated, builder.mod_switch_adopt(builder.input(1),
                                                      rotated)));
    const he::Program program = builder.build();

    const he::Cipher inputs[2] = {a, b};
    const auto by_program = session.run(program, inputs);
    ASSERT_EQ(by_program.size(), 1u);

    // The same ops as raw (unmanaged) Backend calls.
    const auto r = backend.rotate(
        backend.rescale(
            backend.relinearize(backend.multiply(a, b), session.relin_keys())),
        1, session.galois_keys());
    const auto by_hand = backend.add(r, backend.mod_switch(b, r.scale()));
    expect_bit_identical(backend.download(by_program[0]),
                         backend.download(by_hand), "program vs raw calls");
}

TEST(HeProgram, ValidationRejectsMalformedPrograms) {
    // Builder-level misuse.
    he::ProgramBuilder builder(1);
    EXPECT_THROW(builder.input(1), std::invalid_argument);

    // No outputs.
    {
        he::Program p;
        p.num_inputs = 1;
        EXPECT_THROW(p.validate(), std::invalid_argument);
    }
    // Forward / out-of-range operand.
    {
        he::Program p;
        p.num_inputs = 1;
        p.nodes.push_back({he::OpCode::Negate, 1, 0, 0});
        p.outputs.push_back(1);
        EXPECT_THROW(p.validate(), std::invalid_argument);
    }
    // Constant where a ciphertext is required.
    {
        he::Program p;
        p.num_inputs = 1;
        p.constants.emplace_back();
        p.nodes.push_back({he::OpCode::Add, 0, 1, 0});
        p.outputs.push_back(2);
        EXPECT_THROW(p.validate(), std::invalid_argument);
    }
    // Ciphertext where a constant is required.
    {
        he::Program p;
        p.num_inputs = 2;
        p.nodes.push_back({he::OpCode::AddPlain, 0, 1, 0});
        p.outputs.push_back(2);
        EXPECT_THROW(p.validate(), std::invalid_argument);
    }
    // Immediate on an op that takes none.
    {
        he::Program p;
        p.num_inputs = 1;
        p.nodes.push_back({he::OpCode::Square, 0, 0, 3});
        p.outputs.push_back(1);
        EXPECT_THROW(p.validate(), std::invalid_argument);
    }
    // Accumulation counts outside [1, 2^20], by hand and through the
    // builder; both bounds themselves are legal.
    for (const int32_t count : {0, -1, (1 << 20) + 1}) {
        he::Program p;
        p.num_inputs = 2;
        p.nodes.push_back({he::OpCode::MultiplyAcc, 0, 1, count});
        p.outputs.push_back(2);
        EXPECT_THROW(p.validate(), std::invalid_argument) << count;
    }
    EXPECT_THROW(he::matmul_tile_program(0), std::invalid_argument);
    EXPECT_THROW(he::matmul_tile_program((1u << 20) + 1),
                 std::invalid_argument);
    EXPECT_NO_THROW(he::matmul_tile_program(1));
    EXPECT_NO_THROW(he::matmul_tile_program(1u << 20));
    // Output naming a constant.
    {
        he::Program p;
        p.num_inputs = 1;
        p.constants.emplace_back();
        p.outputs.push_back(1);
        EXPECT_THROW(p.validate(), std::invalid_argument);
    }
}

TEST(HeProgram, InterpreterRequiresKeysAndMatchingInputs) {
    ProgramRig rig;
    he::HostBackend backend(rig.host.context);
    const he::Cipher a = backend.upload(rig.host.enc(rig.host.values(9)));
    const he::Cipher b = backend.upload(rig.host.enc(rig.host.values(10)));
    const he::Program program = he::mul_lin_program();

    const he::Cipher both[2] = {a, b};
    const he::Cipher one[1] = {a};
    // Wrong input count.
    EXPECT_THROW(he::run_program(program, backend, one, {}),
                 std::invalid_argument);
    // Missing relin keys.
    EXPECT_THROW(he::run_program(program, backend, both, {}),
                 std::invalid_argument);
    // Missing galois keys.
    const he::Program rot = he::rotate_program(1);
    he::ProgramKeys relin_only;
    relin_only.relin = &rig.relin;
    EXPECT_THROW(he::run_program(rot, backend, one, relin_only),
                 std::invalid_argument);
}

TEST(HeProgram, WireRoundTripPreservesStructureAndResults) {
    ProgramRig rig;
    // A program exercising every field kind: constants, a rotate and an
    // accumulation-count immediate, multiple outputs.
    he::ProgramBuilder builder(2);
    const auto half = builder.constant(
        rig.host.encoder.encode(0.5, kScale));
    const auto prod = builder.rescale(builder.relinearize(
        builder.multiply(builder.input(0), builder.input(1))));
    const auto scaled = builder.multiply_plain(builder.input(0), half);
    builder.output(prod);
    builder.output(builder.rotate(scaled, -2));
    builder.output(builder.multiply_acc(builder.input(0), builder.input(1),
                                        3));
    const he::Program program = builder.build();

    const auto bytes = wire::serialize(program);
    EXPECT_EQ(bytes.size(), wire::serialized_bytes(program));
    const he::Program reloaded = he::load_program(bytes, rig.host.context);
    ASSERT_EQ(reloaded.num_inputs, program.num_inputs);
    ASSERT_EQ(reloaded.constants.size(), program.constants.size());
    EXPECT_EQ(reloaded.constants[0].data, program.constants[0].data);
    ASSERT_EQ(reloaded.nodes.size(), program.nodes.size());
    for (std::size_t i = 0; i < program.nodes.size(); ++i) {
        EXPECT_EQ(static_cast<int>(reloaded.nodes[i].op),
                  static_cast<int>(program.nodes[i].op));
        EXPECT_EQ(reloaded.nodes[i].a, program.nodes[i].a);
        EXPECT_EQ(reloaded.nodes[i].b, program.nodes[i].b);
        EXPECT_EQ(reloaded.nodes[i].imm, program.nodes[i].imm);
    }
    EXPECT_EQ(reloaded.outputs, program.outputs);

    // Reloaded programs execute identically.
    he::HostBackend backend(rig.host.context);
    const int steps[] = {-2};
    ckks::GaloisKeys galois = rig.host.keygen.create_galois_keys(steps);
    he::ProgramKeys keys;
    keys.relin = &rig.relin;
    keys.galois = &galois;
    const he::Cipher inputs[2] = {
        backend.upload(rig.host.enc(rig.host.values(11))),
        backend.upload(rig.host.enc(rig.host.values(12)))};
    const auto original = he::run_program(program, backend, inputs, keys);
    const auto again = he::run_program(reloaded, backend, inputs, keys);
    ASSERT_EQ(original.size(), 3u);
    ASSERT_EQ(again.size(), 3u);
    for (std::size_t i = 0; i < original.size(); ++i) {
        expect_bit_identical(backend.download(original[i]),
                             backend.download(again[i]), "reloaded output");
    }
}

TEST(HeProgram, WireFuzzRejectsCorruption) {
    ProgramRig rig;
    he::ProgramBuilder builder(2);
    const auto one = builder.constant(rig.host.encoder.encode(1.0, kScale));
    const auto prod = builder.rescale(builder.relinearize(
        builder.multiply(builder.input(0), builder.input(1))));
    builder.output(builder.add_plain(prod, one));
    const auto bytes = wire::serialize(builder.build());

    EXPECT_THROW(
        he::load_program(std::span<const uint8_t>{}, rig.host.context),
        wire::WireError);
    const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 257);
    for (std::size_t len = 0; len < bytes.size(); len += stride) {
        EXPECT_THROW(he::load_program(std::span<const uint8_t>(bytes.data(),
                                                               len),
                                      rig.host.context),
                     wire::WireError)
            << "truncated to " << len << " of " << bytes.size();
    }
    std::vector<uint8_t> mutated = bytes;
    const std::size_t total_bits = bytes.size() * 8;
    for (std::size_t i = 0; i < 331; ++i) {
        const std::size_t bit = (i * 2654435761u) % total_bits;
        mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        EXPECT_THROW(he::load_program(mutated, rig.host.context),
                     wire::WireError)
            << "bit flip at " << bit;
        mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
}

TEST(HeProgram, InterpreterReleasesDeadIntermediatesOnLongChains) {
    // A long single-live-value chain with dead side nodes: the
    // interpreter's liveness release keeps its footprint at the chain's
    // live width (a wire-bounds program must not pin one ciphertext per
    // node), and released intermediates must not be needed again.
    ProgramRig rig;
    he::HostBackend backend(rig.host.context);
    he::ProgramBuilder builder(1);
    auto v = builder.input(0);
    for (int i = 0; i < 500; ++i) {
        builder.add(v, v);  // dead: never consumed, released immediately
        v = builder.negate(v);
    }
    builder.output(v);
    const he::Program program = builder.build();

    const auto ct = rig.host.enc(rig.host.values(77));
    const he::Cipher inputs[1] = {backend.upload(ct)};
    const auto outputs = he::run_program(program, backend, inputs);
    ASSERT_EQ(outputs.size(), 1u);
    // 500 negations = identity.
    EXPECT_EQ(backend.download(outputs[0]).data, ct.data);
}

TEST(HeProgram, RoutineBenchInputAccessorBoundsChecked) {
    ProgramRig rig;
    core::RoutineBench bench(rig.host.context, xgpu::device1(),
                             core::GpuOptions{}, /*functional=*/false);
    // Valid indices return the three distinct inputs...
    EXPECT_NE(&bench.input(0), &bench.input(1));
    EXPECT_NE(&bench.input(1), &bench.input(2));
    EXPECT_NE(&bench.input(0), &bench.input(2));
    // ...anything else throws instead of silently aliasing input c
    // (regression: i >= 2 used to return input 2).
    EXPECT_THROW(bench.input(3), std::invalid_argument);
    EXPECT_THROW(bench.input(99), std::invalid_argument);
}

TEST(HeProgram, ServedProgramMatchesFixedFunctionRoutineBitExact) {
    ProgramRig rig;
    const auto ct_a = rig.host.enc(rig.host.values(21));
    const auto ct_b = rig.host.enc(rig.host.values(22));

    const auto serve_one = [&](Request req) {
        InferenceServer server(rig.host.context, xgpu::device1(),
                               core::GpuOptions{}, ServerConfig{});
        server.set_keys(rig.relin, rig.galois);
        server.submit(wire::serialize(req));
        auto responses = server.run();
        EXPECT_EQ(responses.size(), 1u);
        return responses.at(0);
    };

    Request fixed;
    fixed.op = Op::MulLinRS;
    fixed.inputs.push_back(wire::serialize(ct_a));
    fixed.inputs.push_back(wire::serialize(ct_b));
    const auto fixed_resp = serve_one(fixed);
    ASSERT_TRUE(fixed_resp.ok) << fixed_resp.error;

    Request programmed;
    programmed.op = Op::Program;
    programmed.program = wire::serialize(he::mul_lin_rs_program());
    programmed.inputs.push_back(wire::serialize(ct_a));
    programmed.inputs.push_back(wire::serialize(ct_b));
    const auto program_resp = serve_one(programmed);
    ASSERT_TRUE(program_resp.ok) << program_resp.error;

    expect_bit_identical(
        wire::load_ciphertext(program_resp.result, rig.host.context),
        wire::load_ciphertext(fixed_resp.result, rig.host.context),
        "served program vs fixed-function");
}

TEST(HeProgram, ServedClientCircuitBeyondTheFixedRoutines) {
    // The point of the redesign: a circuit the server never hard-coded —
    // rotate(a*b, 1) + a^2 — served end to end from bytes and decoding to
    // the expected values.
    ProgramRig rig;
    const auto va = rig.host.values(31);
    const auto vb = rig.host.values(32);

    he::ProgramBuilder builder(2);
    const auto prod = builder.relinearize(
        builder.multiply(builder.input(0), builder.input(1)));
    const auto rot = builder.rotate(prod, 1);
    const auto sq = builder.relinearize(
        builder.multiply(builder.input(0), builder.input(0)));
    builder.output(builder.add(rot, sq));
    const he::Program circuit = builder.build();

    InferenceServer server(rig.host.context, xgpu::device1(),
                           core::GpuOptions{}, ServerConfig{});
    server.set_keys(rig.relin, rig.galois);
    Request req;
    req.op = Op::Program;
    req.program = wire::serialize(circuit);
    req.inputs.push_back(wire::serialize(rig.host.enc(va)));
    req.inputs.push_back(wire::serialize(rig.host.enc(vb)));
    server.submit(wire::serialize(req));
    auto responses = server.run();
    ASSERT_EQ(responses.size(), 1u);
    ASSERT_TRUE(responses[0].ok) << responses[0].error;

    const auto result =
        wire::load_ciphertext(responses[0].result, rig.host.context);
    const auto decoded = rig.host.dec(result);
    const std::size_t slots = rig.host.encoder.slots();
    std::vector<complexd> expect(slots);
    for (std::size_t i = 0; i < slots; ++i) {
        expect[i] = va[(i + 1) % slots] * vb[(i + 1) % slots] +
                    va[i] * va[i];
    }
    expect_close(decoded, expect, 1e-3, "served circuit decode");
}

TEST(HeProgram, ServedProgramFaultIsolation) {
    ProgramRig rig;
    InferenceServer server(rig.host.context, xgpu::device1(),
                           core::GpuOptions{}, ServerConfig{});
    server.set_keys(rig.relin, rig.galois);

    // Corrupt program bytes fail that request only.
    Request bad;
    bad.session_id = 1;
    bad.op = Op::Program;
    bad.program = wire::serialize(he::mul_lin_rs_program());
    bad.program[bad.program.size() / 2] ^= 0x40;
    bad.inputs.push_back(wire::serialize(rig.host.enc(rig.host.values(41))));
    bad.inputs.push_back(wire::serialize(rig.host.enc(rig.host.values(42))));
    server.submit(bad);

    // Arity mismatch between program and shipped inputs fails typed.
    Request mismatched;
    mismatched.session_id = 2;
    mismatched.op = Op::Program;
    mismatched.program = wire::serialize(he::sqr_lin_rs_program());
    mismatched.inputs.push_back(
        wire::serialize(rig.host.enc(rig.host.values(43))));
    mismatched.inputs.push_back(
        wire::serialize(rig.host.enc(rig.host.values(44))));
    server.submit(mismatched);

    // A healthy request on the same server still succeeds.
    Request good;
    good.session_id = 3;
    good.op = Op::Program;
    good.program = wire::serialize(he::sqr_lin_rs_program());
    good.inputs.push_back(
        wire::serialize(rig.host.enc(rig.host.values(45))));
    server.submit(good);

    auto responses = server.run();
    ASSERT_EQ(responses.size(), 3u);
    std::size_t ok = 0;
    for (const auto &resp : responses) {
        if (resp.session_id == 3) {
            EXPECT_TRUE(resp.ok) << resp.error;
            ++ok;
        } else {
            EXPECT_FALSE(resp.ok);
            EXPECT_FALSE(resp.error.empty());
        }
    }
    EXPECT_EQ(ok, 1u);
}

TEST(HeProgram, CostOnlyProgramRequestCharges) {
    ProgramRig rig;
    ServerConfig cfg;
    cfg.functional = false;
    InferenceServer server(rig.host.context, xgpu::device1(),
                           core::GpuOptions{}, cfg);
    server.set_keys(rig.relin, rig.galois);
    Request req;
    req.op = Op::Program;
    req.cost_only = true;
    req.program = wire::serialize(he::mul_lin_rs_program());
    server.submit(wire::serialize(req));
    auto responses = server.run();
    ASSERT_EQ(responses.size(), 1u);
    ASSERT_TRUE(responses[0].ok) << responses[0].error;
    EXPECT_TRUE(responses[0].result.empty());
    EXPECT_GT(responses[0].complete_ns, responses[0].dispatch_ns);
}

}  // namespace
}  // namespace xehe::test
