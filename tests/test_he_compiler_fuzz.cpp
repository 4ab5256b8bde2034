// he::ProgramCompiler randomized differential fuzz: a seeded,
// feasibility-tracked random-DAG generator produces raw-executable
// programs (operand sizes, levels and scales tracked symbolically so
// every emitted op satisfies the backends' preconditions), and every
// program is compiled and checked against its raw interpretation —
// decode-equal always, bit-identical whenever the planner changed
// nothing (PassReport::bit_exact()), GPU-vs-host agreement on a rotating
// subset of seeds, and deterministic generation and compilation (same
// seed, same bytes); golden digests pin the compiled bytes and the
// analyzer reports.  Runs under the ASan/UBSan CI matrix like the rest
// of the suite.
#include "test_common.h"

#include "he/analyze.h"
#include "he/compiler.h"
#include "xgpu/device.h"

namespace xehe::test {
namespace {

void expect_bit_identical(const ckks::Ciphertext &x,
                          const ckks::Ciphertext &y, const char *what) {
    ASSERT_EQ(x.size, y.size) << what;
    ASSERT_EQ(x.rns, y.rns) << what;
    EXPECT_DOUBLE_EQ(x.scale, y.scale) << what;
    EXPECT_EQ(x.data, y.data) << what;
}

/// Symbolic metadata the generator tracks per value so it only emits ops
/// the raw interpreter will accept.  The scale arithmetic mirrors the
/// backends' exactly (same double expressions), so the tracked scales
/// are bitwise what the interpreter will see.
struct VMeta {
    uint32_t index = 0;  ///< program value index
    std::size_t size = 2;
    std::size_t level = 0;
    double scale = 0.0;
    bool is_node = false;  ///< eligible as a program output
};

class Generator {
public:
    Generator(const CkksBench &host, uint64_t seed)
        : host_(&host), rng_(seed), num_inputs_(2 + rng_() % 3),
          builder_(num_inputs_) {}

    he::Program run() {
        const ckks::CkksContext &ctx = host_->context;
        base_ = static_cast<double>(
            ctx.key_modulus()[ctx.max_level() - 1].value());
        // Constants must all be declared before the first node, so the
        // pool is fixed up front: per level, one addend encoded at the
        // input scale and one scale-preserving multiplier at scale 1.
        for (std::size_t level = 1; level <= ctx.max_level(); ++level) {
            const double addend = static_cast<double>(rng_() % 7) * 0.125;
            add_consts_.push_back(builder_.constant(
                host_->encoder.encode(addend, base_, level)));
            const double factor = 1.0 + static_cast<double>(rng_() % 3);
            mul_consts_.push_back(builder_.constant(
                host_->encoder.encode(factor, 1.0, level)));
        }
        for (std::size_t i = 0; i < num_inputs_; ++i) {
            values_.push_back({static_cast<uint32_t>(i), 2, ctx.max_level(),
                               base_, /*is_node=*/false});
        }

        const std::size_t target = 4 + rng_() % 13;  // up to 16 nodes
        std::size_t emitted = 0;
        std::size_t attempts = 0;
        while (emitted < target && attempts < target * 20) {
            ++attempts;
            if (try_emit()) {
                ++emitted;
            }
        }

        // Outputs: one or two node values (occasionally the same one
        // twice — duplicate outputs are defined behavior).
        std::vector<uint32_t> nodes;
        for (const auto &v : values_) {
            if (v.is_node) {
                nodes.push_back(v.index);
            }
        }
        if (nodes.empty()) {
            const VMeta a = values_[0];
            push(builder_.negate({a.index}).index, a.size, a.level,
                 a.scale);
            nodes.push_back(values_.back().index);
        }
        const uint32_t out1 = nodes[rng_() % nodes.size()];
        builder_.output({out1});
        if (rng_() % 2 == 0) {
            const uint32_t out2 =
                rng_() % 8 == 0 ? out1 : nodes[rng_() % nodes.size()];
            builder_.output({out2});
        }
        return builder_.build();
    }

private:
    bool scales_close(double a, double b, double tol) const {
        return std::abs(a / b - 1.0) < tol;
    }

    VMeta pick() { return values_[rng_() % values_.size()]; }

    /// Coefficient headroom: scaled values must stay well inside the
    /// level's modulus product, and above encoding granularity.
    bool scale_fits(double scale, std::size_t level) const {
        double budget = 0.0;
        for (std::size_t i = 0; i < level; ++i) {
            budget += std::log2(static_cast<double>(
                host_->context.key_modulus()[i].value()));
        }
        return std::log2(scale) + 8.0 < budget - 4.0 && scale >= 1024.0;
    }

    void push(uint32_t index, std::size_t size, std::size_t level,
              double scale) {
        values_.push_back({index, size, level, scale, /*is_node=*/true});
    }

    bool try_emit() {
        const ckks::CkksContext &ctx = host_->context;
        switch (rng_() % 12) {
            case 0: {  // Add / Sub
                const VMeta a = pick();
                const VMeta b = pick();
                if (a.size != b.size || a.level != b.level ||
                    !scales_close(a.scale, b.scale, 1e-7)) {
                    return false;
                }
                const auto v = rng_() % 2 == 0
                                   ? builder_.sub({a.index}, {b.index})
                                   : builder_.add({a.index}, {b.index});
                push(v.index, a.size, a.level, a.scale);
                return true;
            }
            case 1: {  // Negate
                const VMeta a = pick();
                push(builder_.negate({a.index}).index, a.size, a.level,
                     a.scale);
                return true;
            }
            case 2: {  // AddPlain (pool constant at the input scale)
                const VMeta a = pick();
                if (a.scale != base_) {  // must match bitwise
                    return false;
                }
                push(builder_.add_plain({a.index},
                                        add_consts_[a.level - 1]).index,
                     a.size, a.level, a.scale);
                return true;
            }
            case 3: {  // MultiplyPlain (scale-preserving: plain scale 1)
                const VMeta a = pick();
                if (!scale_fits(a.scale * 2.0, a.level)) {
                    return false;
                }
                push(builder_.multiply_plain(
                         {a.index}, mul_consts_[a.level - 1]).index,
                     a.size, a.level, a.scale * 1.0);
                return true;
            }
            case 4: {  // Multiply
                const VMeta a = pick();
                const VMeta b = pick();
                if (a.size != 2 || b.size != 2 || a.level != b.level ||
                    !scale_fits(a.scale * b.scale, a.level)) {
                    return false;
                }
                push(builder_.multiply({a.index}, {b.index}).index, 3,
                     a.level, a.scale * b.scale);
                return true;
            }
            case 5: {  // Square
                const VMeta a = pick();
                if (a.size != 2 ||
                    !scale_fits(a.scale * a.scale, a.level)) {
                    return false;
                }
                push(builder_.square({a.index}).index, 3, a.level,
                     a.scale * a.scale);
                return true;
            }
            case 6: {  // Relinearize
                const VMeta a = pick();
                if (a.size != 3) {
                    return false;
                }
                push(builder_.relinearize({a.index}).index, 2, a.level,
                     a.scale);
                return true;
            }
            case 7: {  // Rescale (only when the result keeps headroom)
                const VMeta a = pick();
                if (a.level < 2) {
                    return false;
                }
                const double q = static_cast<double>(
                    ctx.key_modulus()[a.level - 1].value());
                const double scale = a.scale / q;
                if (scale < 1024.0) {
                    return false;
                }
                push(builder_.rescale({a.index}).index, a.size,
                     a.level - 1, scale);
                return true;
            }
            case 8: {  // ModSwitch
                const VMeta a = pick();
                if (a.level < 2) {
                    return false;
                }
                push(builder_.mod_switch({a.index}).index, a.size,
                     a.level - 1, a.scale);
                return true;
            }
            case 9: {  // ModSwitchAdopt (tiny fudge: ref within 1e-3)
                const VMeta a = pick();
                const VMeta ref = pick();
                if (a.level < 2 ||
                    !scales_close(a.scale, ref.scale, 1e-3)) {
                    return false;
                }
                push(builder_.mod_switch_adopt({a.index},
                                               {ref.index}).index,
                     a.size, a.level - 1, ref.scale);
                return true;
            }
            case 10: {  // Rotate by 1
                const VMeta a = pick();
                if (a.size != 2) {
                    return false;
                }
                push(builder_.rotate({a.index}, 1).index, 2, a.level,
                     a.scale);
                return true;
            }
            case 11: {  // structural duplicate, for CSE to find
                const VMeta a = pick();
                push(builder_.negate({a.index}).index, a.size, a.level,
                     a.scale);
                push(builder_.negate({a.index}).index, a.size, a.level,
                     a.scale);
                return true;
            }
        }
        return false;
    }

    const CkksBench *host_;
    std::mt19937_64 rng_;
    std::size_t num_inputs_;
    he::ProgramBuilder builder_;
    double base_ = 0.0;
    std::vector<he::ProgramBuilder::Value> add_consts_;  ///< [level-1]
    std::vector<he::ProgramBuilder::Value> mul_consts_;  ///< [level-1]
    std::vector<VMeta> values_;
};

TEST(HeCompilerFuzz, RandomDagsCompileAndAgreeWithRawInterpretation) {
    CkksBench host(1024, 4);
    ckks::RelinKeys relin = host.keygen.create_relin_keys();
    const int steps[] = {1};
    ckks::GaloisKeys galois = host.keygen.create_galois_keys(steps);
    he::ProgramKeys keys;
    keys.relin = &relin;
    keys.galois = &galois;
    const double input_scale = static_cast<double>(
        host.context.key_modulus()[host.context.max_level() - 1].value());

    he::HostBackend host_backend(host.context);
    core::GpuContext gpu(host.context, xgpu::device1(), core::GpuOptions{});
    core::GpuEvaluator evaluator(gpu);
    he::GpuBackend gpu_backend(gpu, evaluator);

    const he::ProgramCompiler compiler(host.context);

    std::size_t bit_exact_outputs = 0;
    std::size_t planned_outputs = 0;
    for (uint64_t seed = 1; seed <= 220; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const he::Program raw = Generator(host, seed).run();

        // Deterministic generation: the same seed rebuilds the same
        // program, byte for byte.
        const he::Program again = Generator(host, seed).run();
        ASSERT_TRUE(he::structurally_equal(raw, again));
        ASSERT_EQ(wire::serialize(raw), wire::serialize(again));

        // Deterministic compilation: compile twice, identical results.
        const auto compiled = compiler.compile(raw);
        const auto recompiled = compiler.compile(raw);
        ASSERT_TRUE(he::structurally_equal(compiled.program,
                                           recompiled.program));
        ASSERT_EQ(wire::serialize(compiled.program),
                  wire::serialize(recompiled.program));

        // Raw-valid by construction; the compiled form must run too.
        std::vector<he::Cipher> inputs;
        for (uint32_t i = 0; i < raw.num_inputs; ++i) {
            inputs.push_back(host_backend.upload(
                host.enc(host.values(seed * 16 + i, 0.5), input_scale)));
        }
        const auto raw_out =
            he::run_program(raw, host_backend, inputs, keys);
        const auto opt_out =
            he::run_program(compiled.program, host_backend, inputs, keys);
        ASSERT_EQ(raw_out.size(), opt_out.size());

        for (std::size_t o = 0; o < raw_out.size(); ++o) {
            const auto raw_ct = host_backend.download(raw_out[o]);
            const auto opt_ct = host_backend.download(opt_out[o]);
            if (compiled.report.bit_exact()) {
                ++bit_exact_outputs;
                expect_bit_identical(raw_ct, opt_ct, "bit-exact pipeline");
            } else {
                ++planned_outputs;
            }
            // Decode equality always: the planner preserves decoded
            // results even when it restructures alignment.
            EXPECT_LT(max_abs_diff(host.dec(raw_ct), host.dec(opt_ct)),
                      5e-2)
                << "output " << o;
        }

        // Cross-backend agreement on the compiled program, every 4th
        // seed (the GPU run costs more).
        if (seed % 4 == 0) {
            std::vector<he::Cipher> gpu_inputs;
            for (const auto &in : inputs) {
                gpu_inputs.push_back(
                    gpu_backend.upload(host_backend.download(in)));
            }
            const auto gpu_out = he::run_program(
                compiled.program, gpu_backend, gpu_inputs, keys);
            ASSERT_EQ(gpu_out.size(), opt_out.size());
            for (std::size_t o = 0; o < gpu_out.size(); ++o) {
                expect_bit_identical(host_backend.download(opt_out[o]),
                                     gpu_backend.download(gpu_out[o]),
                                     "gpu vs host compiled");
            }
        }
    }
    // The generator must exercise both regimes: programs the planner
    // leaves untouched and programs it restructures.
    EXPECT_GT(bit_exact_outputs, 0u);
    EXPECT_GT(planned_outputs, 0u);
}

/// Targeted breakages of a known-valid program: op swaps that shift
/// levels or sizes, unkeyed rotations, constant-level and constant-scale
/// perturbations, and operand rewires.  Each mutant stays a structurally
/// loadable Program (or fails validate(), which both the analyzer and
/// run_program reject), so the analyzer⇔interpreter verdicts must agree
/// on every one.
std::vector<he::Program> make_mutants(const he::Program &p,
                                      std::mt19937_64 &rng) {
    std::vector<he::Program> mutants;
    const uint32_t const_base = p.num_inputs;
    const uint32_t node_base =
        const_base + static_cast<uint32_t>(p.constants.size());

    const auto nodes_where = [&](auto pred) {
        std::vector<std::size_t> idx;
        for (std::size_t i = 0; i < p.nodes.size(); ++i) {
            if (pred(p.nodes[i])) {
                idx.push_back(i);
            }
        }
        return idx;
    };
    const auto mutate_one = [&](const std::vector<std::size_t> &idx,
                                auto edit) {
        if (idx.empty()) {
            return;
        }
        he::Program m = p;
        edit(m.nodes[idx[rng() % idx.size()]]);
        mutants.push_back(std::move(m));
    };
    const auto is_op = [](he::OpCode op) {
        return [op](const he::Program::Node &n) { return n.op == op; };
    };

    // Rescale <-> ModSwitch: same level drop, different scale handling.
    mutate_one(nodes_where(is_op(he::OpCode::Rescale)),
               [](auto &n) { n.op = he::OpCode::ModSwitch; });
    mutate_one(nodes_where(is_op(he::OpCode::ModSwitch)),
               [](auto &n) { n.op = he::OpCode::Rescale; });
    // Rotations the key set does not cover.
    mutate_one(nodes_where(is_op(he::OpCode::Rotate)),
               [](auto &n) { n.imm = 3; });
    mutate_one(nodes_where(is_op(he::OpCode::Rotate)), [](auto &n) {
        n.op = he::OpCode::Conjugate;
        n.imm = 0;
    });
    // Multiply -> Add trips the 1e-6 scale gate on product-scale operands;
    // Relinearize -> Negate lets a size-3 ciphertext flow downstream.
    mutate_one(nodes_where(is_op(he::OpCode::Multiply)),
               [](auto &n) { n.op = he::OpCode::Add; });
    mutate_one(nodes_where(is_op(he::OpCode::Relinearize)),
               [](auto &n) { n.op = he::OpCode::Negate; });
    // Re-point a plain op at a random pool constant (usually a different
    // level or scale, both of which the evaluator gates).
    mutate_one(nodes_where([&](const he::Program::Node &n) {
                   return n.op == he::OpCode::AddPlain ||
                          n.op == he::OpCode::MultiplyPlain;
               }),
               [&](auto &n) {
                   n.b = const_base +
                         static_cast<uint32_t>(rng() % p.constants.size());
               });
    // Nudge a referenced constant's scale just past the 1e-6 gate.
    {
        const auto plain_nodes =
            nodes_where(is_op(he::OpCode::AddPlain));
        if (!plain_nodes.empty()) {
            he::Program m = p;
            const auto &node =
                m.nodes[plain_nodes[rng() % plain_nodes.size()]];
            m.constants[node.b - const_base].scale *= 1.0 + 0x1p-10;
            mutants.push_back(std::move(m));
        }
    }
    // Rewire a node's first operand to a random earlier cipher value.
    if (!p.nodes.empty()) {
        he::Program m = p;
        const std::size_t i = rng() % m.nodes.size();
        const std::size_t ciphers = p.num_inputs + i;
        const std::size_t r = rng() % ciphers;
        m.nodes[i].a = static_cast<uint32_t>(
            r < p.num_inputs ? r : node_base + (r - p.num_inputs));
        mutants.push_back(std::move(m));
    }
    return mutants;
}

TEST(HeCompilerFuzz, StrictAnalyzerMatchesRawInterpreterOnSeedsAndMutants) {
    CkksBench host(1024, 4);
    ckks::RelinKeys relin = host.keygen.create_relin_keys();
    const int steps[] = {1};
    ckks::GaloisKeys galois = host.keygen.create_galois_keys(steps);
    he::ProgramKeys keys;
    keys.relin = &relin;
    keys.galois = &galois;
    const double input_scale = static_cast<double>(
        host.context.key_modulus()[host.context.max_level() - 1].value());

    he::HostBackend host_backend(host.context);

    he::AnalyzerOptions aopts;
    aopts.set_keys(keys);
    const he::ProgramAnalyzer analyzer(host.context, aopts);

    const auto interpreter_accepts =
        [&](const he::Program &p, std::span<const he::Cipher> inputs) {
            try {
                he::run_program(p, host_backend, inputs, keys);
                return true;
            } catch (const std::exception &) {
                return false;
            }
        };

    std::size_t accepted_mutants = 0;
    std::size_t rejected_mutants = 0;
    for (uint64_t seed = 1; seed <= 220; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const he::Program raw = Generator(host, seed).run();
        const std::vector<he::InputFacts> facts(
            raw.num_inputs,
            he::InputFacts{2, host.context.max_level(), input_scale});

        // Zero false rejects: the generator emits only raw-valid
        // programs, and with exact point facts strict analysis is
        // complete, so every seed must analyze clean.
        const he::AnalysisReport clean = analyzer.analyze(raw, facts);
        ASSERT_TRUE(clean.ok()) << clean.summary();

        std::vector<he::Cipher> inputs;
        for (uint32_t i = 0; i < raw.num_inputs; ++i) {
            inputs.push_back(host_backend.upload(
                host.enc(host.values(seed * 32 + i, 0.5), input_scale)));
        }
        ASSERT_TRUE(interpreter_accepts(raw, inputs));

        // Zero false accepts (and still zero false rejects): on every
        // mutant the static verdict must equal the runtime outcome.
        std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
        const auto mutants = make_mutants(raw, rng);
        for (std::size_t m = 0; m < mutants.size(); ++m) {
            const he::AnalysisReport report =
                analyzer.analyze(mutants[m], facts);
            const bool runs_clean =
                interpreter_accepts(mutants[m], inputs);
            ASSERT_EQ(report.ok(), runs_clean)
                << "mutant " << m << " of seed " << seed
                << (report.ok() ? " accepted but the interpreter threw"
                                : " rejected: " + report.summary());
            ++(runs_clean ? accepted_mutants : rejected_mutants);
        }
    }
    // The mutation pass must exercise both verdicts or the differential
    // is vacuous.
    EXPECT_GT(accepted_mutants, 0u);
    EXPECT_GT(rejected_mutants, 0u);
}

// The assume_alignment analyzer errs only where the planner cannot
// repair, so with exact facts its accept must mean the compiler plans the
// program: over the seeds and their mutants, every aligned accept
// compiles (he::Session::run relies on this to reject with a typed
// ProgramRejected instead of a compiler error).
TEST(HeCompilerFuzz, AlignedAnalyzerAcceptsOnlyWhatThePlannerCompiles) {
    CkksBench host(1024, 4);
    ckks::RelinKeys relin = host.keygen.create_relin_keys();
    const int steps[] = {1};
    ckks::GaloisKeys galois = host.keygen.create_galois_keys(steps);
    he::ProgramKeys keys;
    keys.relin = &relin;
    keys.galois = &galois;
    const double input_scale = static_cast<double>(
        host.context.key_modulus()[host.context.max_level() - 1].value());

    he::AnalyzerOptions aopts;
    aopts.assume_alignment = true;
    aopts.set_keys(keys);
    const he::ProgramAnalyzer aligned(host.context, aopts);
    const he::ProgramCompiler compiler(host.context);

    std::size_t accepted = 0;
    std::size_t rejected = 0;
    std::vector<std::string> failures;
    for (uint64_t seed = 1; seed <= 220; ++seed) {
        const he::Program raw = Generator(host, seed).run();
        const std::vector<he::InputFacts> facts(
            raw.num_inputs,
            he::InputFacts{2, host.context.max_level(), input_scale});
        std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
        std::vector<he::Program> programs = make_mutants(raw, rng);
        programs.insert(programs.begin(), raw);
        for (std::size_t m = 0; m < programs.size(); ++m) {
            if (!aligned.analyze(programs[m], facts).ok()) {
                ++rejected;
                continue;
            }
            ++accepted;
            try {
                compiler.compile(programs[m], facts);
            } catch (const std::exception &e) {
                failures.push_back("seed " + std::to_string(seed) +
                                   " program " + std::to_string(m) + ": " +
                                   e.what());
            }
        }
    }
    EXPECT_EQ(failures.size(), 0u)
        << "aligned accepts that failed to compile; first: "
        << (failures.empty() ? std::string() : failures.front());
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

/// FNV-1a, folded one 64-bit word (or byte run) at a time.
struct Fnv1a {
    uint64_t h = 0xcbf29ce484222325ull;

    void bytes(const void *data, std::size_t len) {
        const auto *p = static_cast<const uint8_t *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            h = (h ^ p[i]) * 0x100000001b3ull;
        }
    }
    template <typename T>
    void value(T v) {
        bytes(&v, sizeof(v));
    }
};

void digest_report(Fnv1a &d, const he::AnalysisReport &report) {
    d.value(report.diagnostics.size());
    for (const he::Diagnostic &diag : report.diagnostics) {
        d.value(diag.severity);
        d.value(diag.kind);
        d.value(diag.node);
    }
    d.value(report.values.size());
    for (const he::ValueFacts &f : report.values) {
        d.value(f.scale_lo);
        d.value(f.scale_hi);
        d.value(f.depth);
        d.value(f.mult_depth);
        d.value(f.size_min);
        d.value(f.size_max);
        d.value(f.level_min);
        d.value(f.level_max);
        d.value(f.live);
    }
}

// Golden digests of what the compiler emits (the 220 fuzz seeds and the
// five routine programs, wire-serialized) and what the analyzer
// concludes (every diagnostic's severity, kind and node, and every
// value's facts, on the seeds and their mutants, strict and aligned).
// Any change to either fails here loudly; re-pin only for an intended
// change.
TEST(HeCompilerFuzz, CompilerOutputAndAnalyzerVerdictsMatchGoldenDigests) {
    CkksBench host(1024, 4);
    ckks::RelinKeys relin = host.keygen.create_relin_keys();
    const int steps[] = {1};
    ckks::GaloisKeys galois = host.keygen.create_galois_keys(steps);
    he::ProgramKeys keys;
    keys.relin = &relin;
    keys.galois = &galois;
    const double input_scale = static_cast<double>(
        host.context.key_modulus()[host.context.max_level() - 1].value());

    const he::ProgramCompiler compiler(host.context);
    he::AnalyzerOptions strict_opts;
    strict_opts.set_keys(keys);
    he::AnalyzerOptions aligned_opts = strict_opts;
    aligned_opts.assume_alignment = true;
    const he::ProgramAnalyzer strict(host.context, strict_opts);
    const he::ProgramAnalyzer aligned(host.context, aligned_opts);

    Fnv1a compiled;
    Fnv1a analyzed;
    // The payload only: the envelope's version and checksum are framing,
    // not compiler output.
    const auto compile_into = [&](const he::Program &p) {
        const std::vector<uint8_t> bytes =
            wire::serialize(compiler.compile(p).program);
        compiled.bytes(bytes.data() + wire::kHeaderBytes,
                       bytes.size() - wire::kEnvelopeBytes);
    };
    for (uint64_t seed = 1; seed <= 220; ++seed) {
        const he::Program raw = Generator(host, seed).run();
        compile_into(raw);
        const std::vector<he::InputFacts> facts(
            raw.num_inputs,
            he::InputFacts{2, host.context.max_level(), input_scale});
        std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
        std::vector<he::Program> programs = make_mutants(raw, rng);
        programs.insert(programs.begin(), raw);
        for (const he::Program &p : programs) {
            digest_report(analyzed, strict.analyze(p, facts));
            digest_report(analyzed, aligned.analyze(p, facts));
        }
    }
    for (const he::Program &p :
         {he::mul_lin_program(), he::mul_lin_rs_program(),
          he::sqr_lin_rs_program(), he::mul_lin_rs_modsw_add_program(),
          he::rotate_program(1)}) {
        compile_into(p);
    }
    EXPECT_EQ(compiled.h, 0xbd035b9ebf24e96eull) << std::hex << compiled.h;
    EXPECT_EQ(analyzed.h, 0x9a89b1809ffcf7a7ull) << std::hex << analyzed.h;
}

}  // namespace
}  // namespace xehe::test
