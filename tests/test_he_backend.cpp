// Conformance suite for the unified he:: frontend: the same he::Session
// logic drives HostBackend (over the CPU oracle evaluator) and GpuBackend
// (over the simulated-GPU evaluator), and every managed op chain —
// scripted and randomized — must produce bit-identical ciphertexts on
// both, decode to the plaintext reference, and obey the automatic
// relinearize / rescale-waterline / level-and-scale-alignment semantics.
#include "test_common.h"

#include "he/analyze.h"
#include "he/compiler.h"
#include "he/session.h"
#include "xgpu/device.h"

namespace xehe::test {
namespace {

/// Both backends over one context, plus paired same-seed sessions.
struct BackendRig {
    ckks::CkksContext context;
    he::HostBackend host;
    core::GpuContext gpu_context;
    core::GpuEvaluator gpu_evaluator;
    he::GpuBackend gpu;

    explicit BackendRig(std::size_t n = 1024, std::size_t levels = 4,
                        core::GpuOptions options = {})
        : context(ckks::EncryptionParameters::create(n, levels)),
          host(context),
          gpu_context(context, xgpu::device1(), options),
          gpu_evaluator(gpu_context),
          gpu(gpu_context, gpu_evaluator) {}
};

std::vector<double> random_reals(std::size_t count, uint64_t seed,
                                 double magnitude = 1.0) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-magnitude, magnitude);
    std::vector<double> v(count);
    for (auto &x : v) {
        x = dist(rng);
    }
    return v;
}

void expect_bit_identical(const ckks::Ciphertext &host,
                          const ckks::Ciphertext &gpu, const char *what) {
    ASSERT_EQ(host.size, gpu.size) << what;
    ASSERT_EQ(host.rns, gpu.rns) << what;
    EXPECT_DOUBLE_EQ(host.scale, gpu.scale) << what;
    EXPECT_EQ(host.data, gpu.data) << what;
}

/// Runs `what` on both sessions and checks the downloaded ciphertexts are
/// bit-identical; returns the pair of handles.
template <typename OpFn>
std::pair<he::Cipher, he::Cipher> both(he::Session &hs, he::Session &gs,
                                       OpFn op, const char *what) {
    he::Cipher h = op(hs);
    he::Cipher g = op(gs);
    expect_bit_identical(hs.backend().download(h), gs.backend().download(g),
                         what);
    return {std::move(h), std::move(g)};
}

void expect_decodes_to(he::Session &s, const he::Cipher &c,
                       const std::vector<double> &expect, double tolerance,
                       const char *what) {
    const auto got = s.decrypt(c, expect.size());
    ASSERT_EQ(got.size(), expect.size()) << what;
    double max_err = 0.0;
    for (std::size_t i = 0; i < expect.size(); ++i) {
        max_err = std::max(max_err, std::abs(got[i] - expect[i]));
    }
    EXPECT_LT(max_err, tolerance) << what;
}

TEST(HeSession, EncryptDecryptRoundTripOnBothBackends) {
    BackendRig rig;
    const auto values = random_reals(rig.context.slots(), 7);
    for (he::Backend *backend :
         std::initializer_list<he::Backend *>{&rig.host, &rig.gpu}) {
        he::Session session(*backend);
        const auto ct = session.encrypt(values);
        EXPECT_EQ(ct.level(), rig.context.max_level());
        EXPECT_EQ(ct.size(), 2u);
        EXPECT_DOUBLE_EQ(ct.scale(), session.scale());
        expect_decodes_to(session, ct, values, 1e-4, backend->name());
    }
}

TEST(HeSession, ScriptedChainBitExactAcrossBackends) {
    BackendRig rig;
    he::Session hs(rig.host);
    he::Session gs(rig.gpu);
    const std::size_t slots = rig.context.slots();
    const auto va = random_reals(slots, 21);
    const auto vb = random_reals(slots, 22);
    const auto vc = random_reals(slots, 23);

    auto [ha, ga] = both(hs, gs, [&](he::Session &s) {
        return s.encrypt(va); }, "encrypt a");
    auto [hb, gb] = both(hs, gs, [&](he::Session &s) {
        return s.encrypt(vb); }, "encrypt b");
    auto [hc, gc] = both(hs, gs, [&](he::Session &s) {
        return s.encrypt(vc); }, "encrypt c");

    // The issue's motivating expression: s.add(s.multiply(a, b), c) with
    // mismatched operand levels.
    auto [hp, gp] = both(hs, gs, [&](he::Session &s) {
        const he::Cipher &a = &s == &hs ? ha : ga;
        const he::Cipher &b = &s == &hs ? hb : gb;
        const he::Cipher &c = &s == &hs ? hc : gc;
        return s.add(s.multiply(a, b), c);
    }, "add(mul(a,b), c)");
    std::vector<double> expect(slots);
    for (std::size_t i = 0; i < slots; ++i) {
        expect[i] = va[i] * vb[i] + vc[i];
    }
    expect_decodes_to(hs, hp, expect, 1e-4, "host decode");
    expect_decodes_to(gs, gp, expect, 1e-4, "gpu decode");

    // Rotate / conjugate / negate / sub / scalar ops, chained.
    auto [hq, gq] = both(hs, gs, [&](he::Session &s) {
        const he::Cipher &p = &s == &hs ? hp : gp;
        return s.multiply(s.rotate(p, 1), 0.5);
    }, "mul_plain(rotate(p,1), 0.5)");
    std::vector<double> expect_q(slots);
    for (std::size_t i = 0; i < slots; ++i) {
        expect_q[i] = 0.5 * expect[(i + 1) % slots];
    }
    expect_decodes_to(gs, gq, expect_q, 1e-4, "rotated scaled decode");

    both(hs, gs, [&](he::Session &s) {
        const he::Cipher &p = &s == &hs ? hp : gp;
        const he::Cipher &q = &s == &hs ? hq : gq;
        return s.sub(s.negate(s.conjugate(q)), s.add(p, 1.25));
    }, "sub(neg(conj(q)), add_plain(p))");

    // Deeper product chain: (a*b) * c, auto-aligned and auto-rescaled.
    auto [hd, gd] = both(hs, gs, [&](he::Session &s) {
        const he::Cipher &p = &s == &hs ? hp : gp;
        const he::Cipher &c = &s == &hs ? hc : gc;
        return s.multiply(p, s.square(c));
    }, "mul(p, square(c))");
    std::vector<double> expect_d(slots);
    for (std::size_t i = 0; i < slots; ++i) {
        expect_d[i] = expect[i] * vc[i] * vc[i];
    }
    expect_decodes_to(gs, gd, expect_d, 1e-3, "deep chain decode");
}

TEST(HeSession, RandomizedOpChainsBitExactAcrossBackends) {
    BackendRig rig;
    const std::size_t slots = rig.context.slots();
    for (const uint64_t seed : {101u, 202u, 303u}) {
        SCOPED_TRACE(seed);
        he::Session hs(rig.host);
        he::Session gs(rig.gpu);
        std::mt19937_64 rng(seed);

        // Value pool: pairs of handles (host, gpu) plus plain references.
        struct Entry {
            he::Cipher host, gpu;
            std::vector<double> plain;
        };
        std::vector<Entry> pool;
        for (int i = 0; i < 3; ++i) {
            auto v = random_reals(slots, seed * 17 + i, 0.5);
            auto h = hs.encrypt(v);
            auto g = gs.encrypt(v);
            pool.push_back({std::move(h), std::move(g), std::move(v)});
        }
        const auto pick = [&]() -> Entry & {
            return pool[rng() % pool.size()];
        };

        for (int step = 0; step < 20; ++step) {
            Entry &x = pick();
            Entry &y = pick();
            Entry out;
            const int op = static_cast<int>(rng() % 7);
            // Deep operands bottom out at level 1; skip further products.
            const bool can_multiply =
                std::min(x.host.level(), y.host.level()) >= 2;
            switch (can_multiply ? op : op % 4) {
                case 0:
                    out.host = hs.add(x.host, y.host);
                    out.gpu = gs.add(x.gpu, y.gpu);
                    out.plain.resize(slots);
                    for (std::size_t i = 0; i < slots; ++i) {
                        out.plain[i] = x.plain[i] + y.plain[i];
                    }
                    break;
                case 1:
                    out.host = hs.sub(x.host, y.host);
                    out.gpu = gs.sub(x.gpu, y.gpu);
                    out.plain.resize(slots);
                    for (std::size_t i = 0; i < slots; ++i) {
                        out.plain[i] = x.plain[i] - y.plain[i];
                    }
                    break;
                case 2:
                    out.host = hs.negate(x.host);
                    out.gpu = gs.negate(x.gpu);
                    out.plain.resize(slots);
                    for (std::size_t i = 0; i < slots; ++i) {
                        out.plain[i] = -x.plain[i];
                    }
                    break;
                case 3: {
                    out.host = hs.rotate(x.host, 1);
                    out.gpu = gs.rotate(x.gpu, 1);
                    out.plain.resize(slots);
                    for (std::size_t i = 0; i < slots; ++i) {
                        out.plain[i] = x.plain[(i + 1) % slots];
                    }
                    break;
                }
                case 4:
                    out.host = hs.multiply(x.host, y.host);
                    out.gpu = gs.multiply(x.gpu, y.gpu);
                    out.plain.resize(slots);
                    for (std::size_t i = 0; i < slots; ++i) {
                        out.plain[i] = x.plain[i] * y.plain[i];
                    }
                    break;
                case 5:
                    out.host = hs.square(x.host);
                    out.gpu = gs.square(x.gpu);
                    out.plain.resize(slots);
                    for (std::size_t i = 0; i < slots; ++i) {
                        out.plain[i] = x.plain[i] * x.plain[i];
                    }
                    break;
                default:
                    out.host = hs.multiply(x.host, 0.75);
                    out.gpu = gs.multiply(x.gpu, 0.75);
                    out.plain.resize(slots);
                    for (std::size_t i = 0; i < slots; ++i) {
                        out.plain[i] = 0.75 * x.plain[i];
                    }
                    break;
            }
            expect_bit_identical(hs.backend().download(out.host),
                                 gs.backend().download(out.gpu),
                                 "randomized step");
            pool[rng() % pool.size()] = std::move(out);
        }

        // Decode-level agreement at the end of the chain.  Level-1
        // entries are skipped: with the derived scale ≈ q_0, coefficient
        // magnitudes at the last level can exceed q_0/2 and wrap — a
        // parameter-budget limit, not a frontend defect (the per-step
        // bit-exactness above already covered them).
        for (auto &entry : pool) {
            if (entry.gpu.level() >= 2) {
                expect_decodes_to(gs, entry.gpu, entry.plain, 1e-2,
                                  "final decode");
            }
        }
    }
}

TEST(HeSession, AutoRelinearizeControlsResultSize) {
    BackendRig rig;
    he::Session session(rig.gpu);
    const auto a = session.encrypt(random_reals(rig.context.slots(), 31));
    const auto b = session.encrypt(random_reals(rig.context.slots(), 32));
    EXPECT_EQ(session.multiply(a, b).size(), 2u);

    // The raw backend product stays size 3 until relinearized.
    const auto prod = rig.gpu.multiply(a, b);
    EXPECT_EQ(prod.size(), 3u);
    const auto relinearized = rig.gpu.relinearize(prod, session.relin_keys());
    EXPECT_EQ(relinearized.size(), 2u);
    // A size-3 operand where size 2 is required throws instead of
    // silently relinearizing.
    EXPECT_THROW(rig.gpu.multiply(prod, a), std::invalid_argument);
    // The managed add keeps an equal-size pair as it is and relinearizes
    // the size-3 side of a mixed pair.
    EXPECT_EQ(session.add(prod, prod).size(), 3u);
    EXPECT_EQ(session.add(prod, relinearized).size(), 2u);
}

TEST(HeSession, AutoRescaleHoldsTheWaterlineAndSnaps) {
    BackendRig rig;
    he::Session session(rig.gpu);
    const auto a = session.encrypt(random_reals(rig.context.slots(), 41));
    const auto b = session.encrypt(random_reals(rig.context.slots(), 42));

    // One product: level drops, and the derived session scale makes the
    // rescale land exactly back on it (first rescale is exact, later ones
    // snap within the window).
    const auto prod = session.multiply(a, b);
    EXPECT_EQ(prod.level(), rig.context.max_level() - 1);
    EXPECT_LT(prod.scale(), session.waterline());
    EXPECT_DOUBLE_EQ(prod.scale(), session.scale());
    // And again: the snap keeps every depth at one exact scale.
    const auto prod2 = session.multiply(prod, session.rotate(prod, 1));
    EXPECT_DOUBLE_EQ(prod2.scale(), session.scale());

    // The raw backend product keeps its level and the squared scale.
    const auto rprod = rig.gpu.multiply(a, b);
    EXPECT_EQ(rprod.level(), rig.context.max_level());
    EXPECT_DOUBLE_EQ(rprod.scale(), session.scale() * session.scale());
}

TEST(HeSession, SetScaleOverridesMetadataOnly) {
    BackendRig rig;
    he::Session session(rig.gpu);
    const auto a = session.encrypt(random_reals(rig.context.slots(), 61));
    const auto b = session.backend().set_scale(a, 2.0 * a.scale());
    EXPECT_DOUBLE_EQ(b.scale(), 2.0 * a.scale());
    const auto da = session.backend().download(a);
    const auto db = session.backend().download(b);
    EXPECT_EQ(da.data, db.data);
    EXPECT_DOUBLE_EQ(db.scale, 2.0 * da.scale);
}

TEST(HeSession, MidRangeScaleGapRejected) {
    // Beyond the snap tolerance no alignment is accurate: add must throw,
    // not silently lose tens of percent.
    BackendRig rig;
    he::Session session(rig.gpu);
    const auto a = session.encrypt(random_reals(rig.context.slots(), 81));
    const auto b = session.backend().set_scale(a, 3.0 * a.scale());
    EXPECT_THROW(session.add(a, b), he::ProgramRejected);
    // So does a 2^10 gap, which no planner repair spans either.
    const auto c = session.backend().set_scale(a, 1024.0 * a.scale());
    EXPECT_THROW(session.add(a, c), he::ProgramRejected);
    // Multiplication has no scale constraint: levels align, scales
    // multiply exactly.
    const auto prod = session.multiply(a, b);
    EXPECT_EQ(prod.size(), 2u);
}

/// What Session::multiply does after the product: relinearize, then
/// rescale under the waterline, snapping onto the session scale when the
/// result lands within the session's snap window.
he::Cipher finish_product(he::Session &s, he::Cipher prod) {
    prod = s.backend().relinearize(prod, s.relin_keys());
    while (prod.scale() >= s.waterline() && prod.level() >= 2) {
        const double q = static_cast<double>(
            s.context().key_modulus()[prod.level() - 1].value());
        const bool snap =
            std::abs(prod.scale() / q / s.scale() - 1.0) <= s.snap_window();
        prod = s.backend().rescale(prod, snap ? s.scale() : 0.0);
    }
    return prod;
}

TEST(HeSession, ManagedBinaryOpsEqualTheirCompiledOneNodePrograms) {
    // Session::add, sub and multiply align through the compiler's planner:
    // each result is bit-identical to interpreting the one-node program
    // compiled for the operands' own facts, on both backends, over level
    // gaps 0-2 and scale gaps none / within the snap tolerance.
    BackendRig rig;
    he::Session hs(rig.host);
    he::Session gs(rig.gpu);
    const std::size_t slots = rig.context.slots();
    const auto va = random_reals(slots, 91, 0.5);
    const auto vb = random_reals(slots, 92, 0.5);
    const he::ProgramCompiler compiler(rig.context);
    for (const he::OpCode op :
         {he::OpCode::Add, he::OpCode::Sub, he::OpCode::Multiply}) {
        he::Program program;
        program.num_inputs = 2;
        program.nodes.push_back({op, 0, 1, 0});
        program.outputs = {2};
        for (std::size_t gap = 0; gap <= 2; ++gap) {
            for (const double scale_gap : {1.0, 1.1}) {
                SCOPED_TRACE(std::string(he::op_semantics(op).name) +
                             " level gap " + std::to_string(gap) +
                             " scale gap " + std::to_string(scale_gap));
                std::vector<ckks::Ciphertext> results;
                for (he::Session *s : {&hs, &gs}) {
                    const he::Cipher x = s->encrypt(va);
                    he::Cipher y = s->encrypt(vb);
                    for (std::size_t i = 0; i < gap; ++i) {
                        y = s->backend().mod_switch(y);
                    }
                    y = s->backend().set_scale(y, scale_gap * y.scale());
                    const he::Cipher managed =
                        op == he::OpCode::Add   ? s->add(x, y)
                        : op == he::OpCode::Sub ? s->sub(x, y)
                                                : s->multiply(x, y);
                    const he::InputFacts facts[] = {he::facts_of(x),
                                                    he::facts_of(y)};
                    const he::Cipher inputs[] = {x, y};
                    he::Cipher expect = he::run_program(
                        compiler.compile(program, facts).program,
                        s->backend(), inputs,
                        {&s->relin_keys(), &s->galois_keys()})[0];
                    if (op == he::OpCode::Multiply) {
                        expect = finish_product(*s, expect);
                    }
                    expect_bit_identical(s->backend().download(expect),
                                         s->backend().download(managed),
                                         "managed vs compiled program");
                    results.push_back(s->backend().download(managed));
                }
                expect_bit_identical(results[0], results[1],
                                     "host vs gpu");
            }
        }
    }
}

TEST(HeBackend, KeySwitchAndRescaleBitExactAtEveryLevel) {
    // Every key-switching primitive and rescale, on both backends, at each
    // level from the top down to 1.  At level 1 the key switch's only digit
    // is the diagonal one (the input limb reused without a transform); at
    // the top level its inner products sum the most digit products.
    BackendRig rig;
    he::Session keys(rig.host);
    const auto &relin = keys.relin_keys();
    const auto &galois = keys.galois_keys();
    ckks::Ciphertext ct =
        rig.host.download(keys.encrypt(random_reals(rig.context.slots(), 9)));
    for (std::size_t level = rig.context.max_level(); level > 0; --level) {
        SCOPED_TRACE(level);
        ASSERT_EQ(ct.rns, level);
        const he::Cipher h = rig.host.upload(ct);
        const he::Cipher g = rig.gpu.upload(ct);
        expect_bit_identical(
            rig.host.download(rig.host.relinearize(rig.host.square(h), relin)),
            rig.gpu.download(rig.gpu.relinearize(rig.gpu.square(g), relin)),
            "relinearize");
        expect_bit_identical(
            rig.host.download(rig.host.rotate(h, 1, galois)),
            rig.gpu.download(rig.gpu.rotate(g, 1, galois)), "rotate");
        expect_bit_identical(
            rig.host.download(rig.host.conjugate(h, galois)),
            rig.gpu.download(rig.gpu.conjugate(g, galois)), "conjugate");
        if (level > 1) {
            expect_bit_identical(rig.host.download(rig.host.rescale(h)),
                                 rig.gpu.download(rig.gpu.rescale(g)),
                                 "rescale");
            ct = rig.host.download(rig.host.mod_switch(h));
        }
    }
}

TEST(HeBackend, TruncatedKeySwitchKeysThrowOnBothBackendsAndAreRejected) {
    // A key-switching key one level deep, used at the top level: both
    // backends must refuse it (the GPU key switch used to read past the
    // key's end), and the strict analyzer must reject it up front.
    BackendRig rig;
    he::Session keys(rig.host);
    ckks::RelinKeys relin = keys.relin_keys();
    relin.key.keys.resize(1);
    ckks::GaloisKeys galois = keys.galois_keys();
    for (auto &[elt, key] : galois.keys) {
        key.keys.resize(1);
    }
    he::ProgramKeys program_keys;
    program_keys.relin = &relin;
    program_keys.galois = &galois;
    he::AnalyzerOptions opts;
    opts.set_keys(program_keys);
    const he::ProgramAnalyzer analyzer(rig.context, opts);

    he::ProgramBuilder relin_builder(2);
    relin_builder.output(relin_builder.relinearize(
        relin_builder.multiply(relin_builder.input(0),
                               relin_builder.input(1))));
    he::ProgramBuilder rotate_builder(2);
    rotate_builder.output(rotate_builder.rotate(rotate_builder.input(0), 1));
    he::ProgramBuilder conj_builder(2);
    conj_builder.output(conj_builder.conjugate(conj_builder.input(0)));
    const he::Program programs[] = {relin_builder.build(),
                                    rotate_builder.build(),
                                    conj_builder.build()};

    const ckks::Ciphertext ct =
        rig.host.download(keys.encrypt(random_reals(rig.context.slots(), 5)));
    const std::vector<he::InputFacts> facts(
        2, he::facts_of(rig.host.upload(ct)));
    for (const he::Program &p : programs) {
        SCOPED_TRACE(he::op_semantics(p.nodes.back().op).name);
        const he::AnalysisReport report = analyzer.analyze(p, facts);
        ASSERT_FALSE(report.ok());
        EXPECT_EQ(report.first_error()->kind, he::DiagKind::MissingKey);
        for (he::Backend *backend :
             std::initializer_list<he::Backend *>{&rig.host, &rig.gpu}) {
            SCOPED_TRACE(backend->name());
            const std::vector<he::Cipher> inputs = {backend->upload(ct),
                                                    backend->upload(ct)};
            EXPECT_THROW(he::run_program(p, *backend, inputs, program_keys),
                         std::invalid_argument);
        }
    }
}

TEST(HeBackend, ForeignAndEmptyHandlesRejected) {
    BackendRig rig;
    he::Session hs(rig.host);
    he::Session gs(rig.gpu);
    const auto host_ct = hs.encrypt(random_reals(rig.context.slots(), 71));
    const auto gpu_ct = gs.encrypt(random_reals(rig.context.slots(), 71));
    EXPECT_THROW(gs.backend().add(gpu_ct, host_ct), std::invalid_argument);
    EXPECT_THROW(hs.backend().negate(gpu_ct), std::invalid_argument);
    EXPECT_THROW(gs.backend().negate(he::Cipher{}), std::invalid_argument);
}

}  // namespace
}  // namespace xehe::test
