// he::ProgramAnalyzer — unit coverage of the static verifier: every
// diagnostic kind fires on a minimal circuit that provokes it, strict and
// assume_alignment modes disagree exactly where the compiler's planner
// can repair (level/scale alignment, dead nodes), unknown input facts
// stay permissive, canonical routine programs analyze clean, and the
// Session::run admission gate throws typed he::ProgramRejected (where raw
// interpretation faults at run time).  A per-op conformance
// grid holds every row of he/semantics.h to both backends: the strict
// verdict equals whether they throw, and the result metadata equals the
// row's transfer function.
#include "test_common.h"

#include "he/analyze.h"
#include "he/compiler.h"
#include "he/session.h"
#include "xgpu/device.h"

namespace xehe::test {
namespace {

using he::AnalysisReport;
using he::AnalyzerOptions;
using he::DiagKind;
using he::Diagnostic;
using he::InputFacts;
using he::ProgramAnalyzer;
using he::ProgramBuilder;
using he::Severity;

/// Context + interpreter keys (relin, galois for step 1 only — no
/// conjugation key), mirroring the compiler/fuzz rigs.
struct AnalyzeRig {
    CkksBench bench;
    ckks::RelinKeys relin;
    ckks::GaloisKeys galois;

    AnalyzeRig() : bench(1024, 4) {
        relin = bench.keygen.create_relin_keys();
        const int steps[] = {1};
        galois = bench.keygen.create_galois_keys(steps);
    }

    const ckks::CkksContext &context() const { return bench.context; }

    /// The last data prime — the planner-default input scale.
    double base_scale() const {
        return static_cast<double>(
            context().key_modulus()[context().max_level() - 1].value());
    }

    he::ProgramKeys keys() const {
        he::ProgramKeys k;
        k.relin = &relin;
        k.galois = &galois;
        return k;
    }

    AnalyzerOptions keyed_options(bool aligned = false) const {
        AnalyzerOptions opts;
        opts.assume_alignment = aligned;
        opts.set_keys(keys());
        return opts;
    }
};

const Diagnostic *find_kind(const AnalysisReport &report, DiagKind kind) {
    for (const Diagnostic &d : report.diagnostics) {
        if (d.kind == kind) {
            return &d;
        }
    }
    return nullptr;
}

bool has_kind(const AnalysisReport &report, DiagKind kind) {
    return find_kind(report, kind) != nullptr;
}

TEST(HeAnalyze, CanonicalProgramsAnalyzeCleanWithPlannerDefaults) {
    AnalyzeRig rig;
    const he::Program programs[] = {
        he::mul_lin_program(), he::mul_lin_rs_program(),
        he::sqr_lin_rs_program(), he::mul_lin_rs_modsw_add_program(),
        he::rotate_program(1)};
    for (bool aligned : {false, true}) {
        SCOPED_TRACE(aligned ? "aligned" : "strict");
        ProgramAnalyzer analyzer(rig.context(), rig.keyed_options(aligned));
        for (const he::Program &p : programs) {
            const AnalysisReport report = analyzer.analyze(p);
            EXPECT_TRUE(report.ok()) << report.summary();
            EXPECT_EQ(report.error_count(), 0u);
            EXPECT_EQ(report.values.size(), p.value_count());
        }
    }
    // mult_depth counts cipher multiplies on the deepest output path.
    ProgramAnalyzer analyzer(rig.context());
    EXPECT_EQ(analyzer.analyze(he::mul_lin_rs_program()).mult_depth, 1u);
    EXPECT_EQ(analyzer.analyze(he::rotate_program(1)).mult_depth, 0u);
}

TEST(HeAnalyze, RescaleAtLastLevelIsLevelUnderflowInBothModes) {
    AnalyzeRig rig;
    const he::Program p = he::mul_lin_rs_program();
    for (bool aligned : {false, true}) {
        SCOPED_TRACE(aligned ? "aligned" : "strict");
        ProgramAnalyzer analyzer(rig.context(), rig.keyed_options(aligned));
        const AnalysisReport report =
            analyzer.analyze(p, InputFacts{2, 1, rig.base_scale()});
        ASSERT_FALSE(report.ok());
        const Diagnostic *e = find_kind(report, DiagKind::LevelUnderflow);
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(e->severity, Severity::Error);
        EXPECT_EQ(e->op, he::OpCode::Rescale);
        EXPECT_NE(e->node, Diagnostic::kProgram);
        EXPECT_NE(report.summary().find("LevelUnderflow"),
                  std::string::npos);
    }
}

TEST(HeAnalyze, SizeViolationsAreErrorsInBothModes) {
    AnalyzeRig rig;
    // multiply of a definitely-size-3 operand.
    ProgramBuilder mul3(2);
    const auto prod = mul3.multiply(mul3.input(0), mul3.input(1));
    mul3.output(mul3.multiply(prod, mul3.input(1)));
    const he::Program p_mul = mul3.build();
    // relinearize of a definitely-size-2 operand.
    ProgramBuilder relin2(1);
    relin2.output(relin2.relinearize(relin2.input(0)));
    const he::Program p_relin = relin2.build();

    for (bool aligned : {false, true}) {
        SCOPED_TRACE(aligned ? "aligned" : "strict");
        ProgramAnalyzer analyzer(rig.context(), rig.keyed_options(aligned));
        const AnalysisReport mul_report = analyzer.analyze(p_mul);
        ASSERT_FALSE(mul_report.ok());
        EXPECT_TRUE(has_kind(mul_report, DiagKind::SizeMismatch));

        const AnalysisReport relin_report = analyzer.analyze(p_relin);
        ASSERT_FALSE(relin_report.ok());
        EXPECT_TRUE(has_kind(relin_report, DiagKind::SizeMismatch));
    }
}

TEST(HeAnalyze, AddScaleGapIsStrictOnlyWithinTheSnapTolerance) {
    AnalyzeRig rig;
    ProgramBuilder b(2);
    b.output(b.add(b.input(0), b.input(1)));
    const he::Program p = b.build();
    const double base = rig.base_scale();
    const std::vector<InputFacts> near = {{2, 4, base}, {2, 4, base * 1.1}};
    const std::vector<InputFacts> far = {{2, 4, base},
                                         {2, 4, base * 1024.0}};

    ProgramAnalyzer strict(rig.context(), rig.keyed_options(false));
    for (const auto &facts : {near, far}) {
        const AnalysisReport report = strict.analyze(p, facts);
        ASSERT_FALSE(report.ok());
        EXPECT_TRUE(has_kind(report, DiagKind::ScaleMismatch));
    }

    // The planner repairs a gap within the snap tolerance by adoption, so
    // aligned mode accepts it; a wider gap it cannot repair.
    ProgramAnalyzer aligned(rig.context(), rig.keyed_options(true));
    EXPECT_TRUE(aligned.analyze(p, near).ok());
    const AnalysisReport far_report = aligned.analyze(p, far);
    ASSERT_FALSE(far_report.ok());
    EXPECT_TRUE(has_kind(far_report, DiagKind::ScaleMismatch));
}

TEST(HeAnalyze, AlignedModeErrsWhereThePlannerCannotRepair) {
    // Each program here fails ProgramCompiler::compile, so aligned mode
    // must reject it too.
    AnalyzeRig rig;
    const double base = rig.base_scale();
    const InputFacts top{2, 4, base};
    ProgramAnalyzer aligned(rig.context(), rig.keyed_options(true));
    const he::ProgramCompiler compiler(rig.context());
    const auto expect_rejected = [&](const he::Program &p,
                                     const InputFacts &facts, DiagKind kind) {
        const AnalysisReport report = aligned.analyze(p, facts);
        ASSERT_FALSE(report.ok());
        EXPECT_TRUE(has_kind(report, kind)) << report.summary();
        const std::vector<InputFacts> per_input(p.num_inputs, facts);
        EXPECT_THROW(compiler.compile(p, per_input), std::invalid_argument);
    };

    // A plaintext's scale cannot be adopted.
    ProgramBuilder plain(1);
    plain.output(plain.add_plain(
        plain.input(0),
        plain.constant(rig.bench.encoder.encode(0.5, base * 1.1, 4))));
    expect_rejected(plain.build(), top, DiagKind::ScaleMismatch);

    // An output mod-switch is pinned, so it cannot be stripped at level 1.
    ProgramBuilder drop(1);
    drop.output(drop.mod_switch(drop.input(0)));
    expect_rejected(drop.build(), InputFacts{2, 1, base},
                    DiagKind::LevelUnderflow);

    // A mod-switch a plain op reads is pinned too: the cipher then sits
    // below the constant's level.
    ProgramBuilder below(1);
    const auto constant =
        below.constant(rig.bench.encoder.encode(0.5, 1.0, 4));
    below.output(below.multiply_plain(below.mod_switch(below.input(0)),
                                      constant));
    expect_rejected(below.build(), top, DiagKind::LevelMismatch);
}

TEST(HeAnalyze, AddLevelMismatchIsStrictOnly) {
    AnalyzeRig rig;
    ProgramBuilder b(2);
    b.output(b.add(b.input(0), b.input(1)));
    const he::Program p = b.build();
    const double base = rig.base_scale();
    const std::vector<InputFacts> facts = {{2, 4, base}, {2, 3, base}};

    ProgramAnalyzer strict(rig.context(), rig.keyed_options(false));
    const AnalysisReport strict_report = strict.analyze(p, facts);
    ASSERT_FALSE(strict_report.ok());
    EXPECT_TRUE(has_kind(strict_report, DiagKind::LevelMismatch));

    ProgramAnalyzer aligned(rig.context(), rig.keyed_options(true));
    EXPECT_TRUE(aligned.analyze(p, facts).ok());
}

TEST(HeAnalyze, ModSwitchAddLevelRelationIsStrictOnly) {
    AnalyzeRig rig;
    ProgramBuilder b(2);
    b.output(b.mod_switch_add(b.input(0), b.input(1)));
    const he::Program p = b.build();
    const double base = rig.base_scale();
    // The addend must sit exactly one level above the accumulator.
    const std::vector<InputFacts> equal = {{2, 3, base}, {2, 3, base}};
    const std::vector<InputFacts> above = {{2, 3, base}, {2, 4, base}};

    ProgramAnalyzer strict(rig.context(), rig.keyed_options(false));
    const AnalysisReport bad = strict.analyze(p, equal);
    ASSERT_FALSE(bad.ok());
    EXPECT_TRUE(has_kind(bad, DiagKind::LevelMismatch));
    EXPECT_TRUE(strict.analyze(p, above).ok());

    ProgramAnalyzer aligned(rig.context(), rig.keyed_options(true));
    EXPECT_TRUE(aligned.analyze(p, equal).ok());
}

TEST(HeAnalyze, MissingKeysAreTypedErrors) {
    AnalyzeRig rig;
    ProgramBuilder mul(2);
    mul.output(mul.relinearize(mul.multiply(mul.input(0), mul.input(1))));
    const he::Program p_relin = mul.build();
    const he::Program p_rot = he::rotate_program(1);

    AnalyzerOptions no_relin;
    no_relin.relin_keys = false;
    const AnalysisReport r1 =
        ProgramAnalyzer(rig.context(), no_relin).analyze(p_relin);
    ASSERT_FALSE(r1.ok());
    EXPECT_TRUE(has_kind(r1, DiagKind::MissingKey));

    // Present but too short for the operand's level.
    AnalyzerOptions short_relin;
    short_relin.relin_keys = true;
    short_relin.relin_levels = 2;
    const AnalysisReport r2 =
        ProgramAnalyzer(rig.context(), short_relin).analyze(p_relin);
    ASSERT_FALSE(r2.ok());
    EXPECT_TRUE(has_kind(r2, DiagKind::MissingKey));

    AnalyzerOptions no_galois;
    no_galois.galois_keys = false;
    const AnalysisReport r3 =
        ProgramAnalyzer(rig.context(), no_galois).analyze(p_rot);
    ASSERT_FALSE(r3.ok());
    EXPECT_TRUE(has_kind(r3, DiagKind::MissingKey));

    // Unknown keys (nullopt) are assumed present.
    EXPECT_TRUE(ProgramAnalyzer(rig.context()).analyze(p_relin).ok());
    EXPECT_TRUE(ProgramAnalyzer(rig.context()).analyze(p_rot).ok());
}

TEST(HeAnalyze, MissingRotationMatchesTheKeyedElements) {
    AnalyzeRig rig;
    ProgramAnalyzer analyzer(rig.context(), rig.keyed_options());

    // Step 1 is keyed; step 3 is not; step 0 is the identity element and
    // needs no key at all.
    EXPECT_TRUE(analyzer.analyze(he::rotate_program(1)).ok());
    EXPECT_TRUE(analyzer.analyze(he::rotate_program(0)).ok());
    const AnalysisReport r3 = analyzer.analyze(he::rotate_program(3));
    ASSERT_FALSE(r3.ok());
    const Diagnostic *e = find_kind(r3, DiagKind::MissingRotation);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->op, he::OpCode::Rotate);

    // The rig's galois keys carry no conjugation key.
    ProgramBuilder conj(1);
    conj.output(conj.conjugate(conj.input(0)));
    const AnalysisReport rc = analyzer.analyze(conj.build());
    ASSERT_FALSE(rc.ok());
    EXPECT_TRUE(has_kind(rc, DiagKind::MissingRotation));
}

TEST(HeAnalyze, DeadMustFailNodeErrorsStrictButOnlyWarnsAligned) {
    AnalyzeRig rig;
    ProgramBuilder b(1);
    b.rescale(b.input(0));  // dead, and a must-fail at input level 1
    b.output(b.negate(b.input(0)));
    const he::Program p = b.build();
    const double base = rig.base_scale();

    // The raw interpreter executes dead nodes, so strict mode rejects.
    ProgramAnalyzer strict(rig.context(), rig.keyed_options(false));
    const AnalysisReport strict_report =
        strict.analyze(p, InputFacts{2, 1, base});
    ASSERT_FALSE(strict_report.ok());
    EXPECT_TRUE(has_kind(strict_report, DiagKind::LevelUnderflow));
    EXPECT_TRUE(has_kind(strict_report, DiagKind::DeadNode));

    // DCE strips the node before it can fail: warning only.
    ProgramAnalyzer aligned(rig.context(), rig.keyed_options(true));
    const AnalysisReport aligned_report =
        aligned.analyze(p, InputFacts{2, 1, base});
    EXPECT_TRUE(aligned_report.ok()) << aligned_report.summary();
    const Diagnostic *dead = find_kind(aligned_report, DiagKind::DeadNode);
    ASSERT_NE(dead, nullptr);
    EXPECT_EQ(dead->severity, Severity::Warning);
}

TEST(HeAnalyze, StructuralFailuresReportAtProgramScope) {
    AnalyzeRig rig;
    ProgramAnalyzer analyzer(rig.context());

    // An output naming a program input.
    he::Program aliasing;
    aliasing.num_inputs = 1;
    aliasing.nodes.push_back({he::OpCode::Negate, 0, 0, 0});
    aliasing.outputs = {0};
    const AnalysisReport ra = analyzer.analyze(aliasing);
    ASSERT_FALSE(ra.ok());
    const Diagnostic *alias = find_kind(ra, DiagKind::OutputAliasesInput);
    ASSERT_NE(alias, nullptr);
    EXPECT_EQ(alias->node, Diagnostic::kProgram);
    EXPECT_TRUE(ra.values.empty());  // fact walk never ran

    // An operand index past the value space.
    he::Program malformed;
    malformed.num_inputs = 1;
    malformed.nodes.push_back({he::OpCode::Negate, 5, 0, 0});
    malformed.outputs = {1};
    const AnalysisReport rm = analyzer.analyze(malformed);
    ASSERT_FALSE(rm.ok());
    EXPECT_TRUE(has_kind(rm, DiagKind::Malformed));

    // Wrong InputFacts arity is a caller error, also Malformed.
    ProgramBuilder b(1);
    b.output(b.negate(b.input(0)));
    const std::vector<InputFacts> two_facts(2);
    const AnalysisReport rf = analyzer.analyze(b.build(), two_facts);
    ASSERT_FALSE(rf.ok());
    EXPECT_TRUE(has_kind(rf, DiagKind::Malformed));
}

TEST(HeAnalyze, OversizeCipherFlowsAsWarningsNotErrors) {
    AnalyzeRig rig;
    ProgramBuilder b(2);
    b.output(b.negate(b.multiply(b.input(0), b.input(1))));
    const he::Program p = b.build();

    ProgramAnalyzer analyzer(rig.context(), rig.keyed_options());
    const AnalysisReport report = analyzer.analyze(p);
    EXPECT_TRUE(report.ok()) << report.summary();
    // Once at the negate, once for the size-3 program output.
    EXPECT_GE(report.warning_count(), 2u);
    EXPECT_TRUE(has_kind(report, DiagKind::OversizeCipher));
    const he::ValueFacts &out = report.values.back();
    EXPECT_TRUE(out.size_exact());
    EXPECT_EQ(out.size_min, 3u);
}

TEST(HeAnalyze, RescaleDriftOffTheSnapScaleWarns) {
    AnalyzeRig rig;
    ProgramBuilder b(1);
    b.output(b.rescale(b.input(0)));
    const he::Program p = b.build();
    const double base = rig.base_scale();

    AnalyzerOptions opts;
    opts.snap_scale = base;
    ProgramAnalyzer analyzer(rig.context(), opts);

    // base^2 / prime == base: lands exactly on the snap scale.
    EXPECT_FALSE(has_kind(analyzer.analyze(p, InputFacts{2, 4, base * base}),
                          DiagKind::ScaleDrift));
    // base * 137 / prime == 137: hopelessly off the snap range.
    const AnalysisReport drift =
        analyzer.analyze(p, InputFacts{2, 4, base * 137.0});
    EXPECT_TRUE(drift.ok());
    const Diagnostic *w = find_kind(drift, DiagKind::ScaleDrift);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->severity, Severity::Warning);
}

TEST(HeAnalyze, DepthPastTheLevelBudgetWarns) {
    AnalyzeRig rig;
    ProgramBuilder b(2);
    auto acc = b.relinearize(b.multiply(b.input(0), b.input(1)));
    for (int i = 0; i < 3; ++i) {
        acc = b.relinearize(b.multiply(acc, acc));
    }
    b.output(acc);
    const he::Program p = b.build();

    ProgramAnalyzer analyzer(rig.context(), rig.keyed_options());
    const AnalysisReport report = analyzer.analyze(p);
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.mult_depth, 4u);
    // max_level 4 affords only 3 rescales.
    const Diagnostic *w = find_kind(report, DiagKind::DepthBudget);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->node, Diagnostic::kProgram);
    EXPECT_EQ(w->severity, Severity::Warning);
}

TEST(HeAnalyze, UnknownInputFactsStayPermissive) {
    AnalyzeRig rig;
    // Rejected under exact level-1 facts, accepted when the caller knows
    // nothing: some level in [1, max] admits the rescale chain.
    const he::Program p = he::mul_lin_rs_program();
    ProgramAnalyzer analyzer(rig.context(), rig.keyed_options());
    ASSERT_FALSE(analyzer.analyze(p, InputFacts{2, 1, rig.base_scale()}).ok());
    const std::vector<InputFacts> unknown(p.num_inputs);
    const AnalysisReport report = analyzer.analyze(p, unknown);
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(HeAnalyze, SessionRunRejectsStaticallyAndRawRunFaultsAtRuntime) {
    ckks::CkksContext context(ckks::EncryptionParameters::create(1024, 4));
    he::HostBackend backend(context);

    // The default session keys rotations {1} (+ conjugation); step 5 has
    // no galois key, which the admission gate catches before execution.
    he::Session session(backend);
    ProgramBuilder b(1);
    b.output(b.rotate(b.input(0), 5));
    const he::Program p = b.build();

    std::vector<he::Cipher> inputs;
    inputs.push_back(session.encrypt(std::vector<double>{0.5, -0.25}));
    const InputFacts facts = he::facts_of(inputs[0]);
    EXPECT_EQ(facts.size, 2u);
    EXPECT_EQ(facts.level, context.max_level());
    EXPECT_DOUBLE_EQ(facts.scale, session.scale());

    try {
        session.run(p, inputs);
        FAIL() << "expected he::ProgramRejected";
    } catch (const he::ProgramRejected &e) {
        ASSERT_FALSE(e.diagnostics().empty());
        EXPECT_EQ(e.diagnostics()[0].kind, DiagKind::MissingRotation);
        EXPECT_NE(std::string(e.what()).find("MissingRotation"),
                  std::string::npos);
    }

    // Raw interpretation skips the analysis, so the same defect faults
    // mid-execution without diagnostics.
    try {
        he::run_program(p, backend, inputs,
                        {&session.relin_keys(), &session.galois_keys()});
        FAIL() << "expected a runtime fault";
    } catch (const he::ProgramRejected &) {
        FAIL() << "raw interpretation ran the analysis";
    } catch (const std::invalid_argument &) {
        // The evaluator's missing-key fault — the un-gated behavior.
    }
}

/// A ciphertext of the given shape with arbitrary (valid-residue)
/// contents: the backends' preconditions read only the metadata.
ckks::Ciphertext shaped_cipher(const ckks::CkksContext &ctx,
                               std::size_t size, std::size_t level,
                               double scale, uint64_t &seed) {
    ckks::Ciphertext ct;
    ct.resize(ctx.n(), size, level);
    ct.scale = scale;
    for (std::size_t p = 0; p < size; ++p) {
        for (std::size_t r = 0; r < level; ++r) {
            const auto limb = random_poly(ctx.n(), ctx.key_modulus()[r],
                                          seed++);
            std::copy(limb.begin(), limb.end(), ct.component(p, r).begin());
        }
    }
    return ct;
}

/// One point of the conformance grid: operand shapes and the key set.
struct GridCase {
    he::OpCode op;
    std::size_t size_a, size_b;
    std::size_t level_a, level_b;
    double gap;  ///< relative scale offset of the second operand
    const he::ProgramKeys *keys;
};

/// Every op over sizes 2/3, equal and off-by-one levels, scales equal /
/// 1e-7 / 1e-5 apart and, for key-switching ops, keys present / absent /
/// short.  Dimensions an op does not read are not varied.
std::vector<GridCase> shape_grid(
    std::initializer_list<const he::ProgramKeys *> key_sets) {
    std::vector<GridCase> cases;
    for (uint8_t code = 0; code <= he::kMaxOpCode; ++code) {
        const auto op = static_cast<he::OpCode>(code);
        const he::OpSemantics &row = he::op_semantics(op);
        const bool binary = row.arity == 2;
        const std::vector<std::size_t> sizes_b =
            binary && !row.const_operand ? std::vector<std::size_t>{2, 3}
                                         : std::vector<std::size_t>{2};
        const std::vector<int> deltas =
            binary ? std::vector<int>{-1, 0, 1} : std::vector<int>{0};
        const std::vector<double> gaps =
            binary ? std::vector<double>{0.0, 1e-7, 1e-5}
                   : std::vector<double>{0.0};
        std::vector<const he::ProgramKeys *> keys = {*key_sets.begin()};
        if (row.key != he::KeyNeed::None) {
            keys = key_sets;
        }
        for (const std::size_t size_a : {2, 3}) {
            for (const std::size_t size_b : sizes_b) {
                for (const std::size_t level_a : {1, 3}) {
                    for (const int delta : deltas) {
                        if (delta < 0 && level_a == 1) {
                            continue;
                        }
                        for (const double gap : gaps) {
                            for (const he::ProgramKeys *k : keys) {
                                cases.push_back({op, size_a, size_b, level_a,
                                                 level_a + delta, gap, k});
                            }
                        }
                    }
                }
            }
        }
    }
    return cases;
}

TEST(HeAnalyze, EveryOpRowMatchesBothBackendsOverTheShapeGrid) {
    AnalyzeRig rig;
    const ckks::CkksContext &ctx = rig.context();
    ckks::GaloisKeys galois = rig.galois;
    for (auto &entry : rig.bench.keygen.create_conjugation_keys().keys) {
        galois.keys.insert(std::move(entry));
    }
    // Short keys cover level 1 only.
    ckks::RelinKeys short_relin = rig.relin;
    short_relin.key.keys.resize(1);
    ckks::GaloisKeys short_galois = galois;
    for (auto &[elt, key] : short_galois.keys) {
        key.keys.resize(1);
    }
    const he::ProgramKeys present{&rig.relin, &galois};
    const he::ProgramKeys absent{};
    const he::ProgramKeys truncated{&short_relin, &short_galois};

    he::HostBackend host(ctx);
    core::GpuContext gpu_context(ctx, xgpu::device1(), core::GpuOptions{});
    core::GpuEvaluator gpu_evaluator(gpu_context);
    he::GpuBackend gpu(gpu_context, gpu_evaluator);

    const double base = rig.base_scale();
    uint64_t seed = 1;
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    std::vector<std::size_t> accepted_per_op(he::kMaxOpCode + 1, 0);
    for (const GridCase &c : shape_grid({&present, &absent, &truncated})) {
        const he::OpSemantics &row = he::op_semantics(c.op);
        const bool binary = row.arity == 2;
        const double scale_b = base * (1.0 + c.gap);
        SCOPED_TRACE(std::string(row.name) + " sizes " +
                     std::to_string(c.size_a) + "/" +
                     std::to_string(c.size_b) + " levels " +
                     std::to_string(c.level_a) + "/" +
                     std::to_string(c.level_b) + " gap " +
                     std::to_string(c.gap) + " keys " +
                     (c.keys == &present  ? "present"
                      : c.keys == &absent ? "absent"
                                          : "short"));

        // Inputs 0 and 1; a constant operand follows them.
        he::Program p;
        p.num_inputs = 2;
        if (row.const_operand) {
            p.constants.push_back(
                rig.bench.encoder.encode(0.25, scale_b, c.level_b));
        }
        const uint32_t b = row.const_operand ? 2 : 1;
        // An in-range immediate off the row: step 1 for Rotate, count 2
        // for MultiplyAcc (so the chain really accumulates), else 0.
        const int32_t imm = row.imm_min > 0 ? row.imm_min + 1
                                            : std::min(row.imm_max, 1);
        p.nodes.push_back({c.op, 0, binary ? b : 0u, imm});
        p.outputs = {2 + static_cast<uint32_t>(p.constants.size())};

        const std::vector<InputFacts> facts = {
            {c.size_a, c.level_a, base}, {c.size_b, c.level_b, scale_b}};
        const ckks::Ciphertext ct_a =
            shaped_cipher(ctx, c.size_a, c.level_a, base, seed);
        const ckks::Ciphertext ct_b =
            shaped_cipher(ctx, c.size_b, c.level_b, scale_b, seed);

        AnalyzerOptions opts;
        opts.set_keys(*c.keys);
        const AnalysisReport report =
            ProgramAnalyzer(ctx, opts).analyze(p, facts);
        const auto leaves = he::leaf_facts(p, facts, ctx.max_level());
        he::ValueFacts expect;
        he::transfer(row, leaves[0], binary ? leaves[b] : leaves[0], expect,
                     ctx);

        for (he::Backend *backend :
             std::initializer_list<he::Backend *>{&host, &gpu}) {
            SCOPED_TRACE(backend->name());
            const std::vector<he::Cipher> inputs = {backend->upload(ct_a),
                                                    backend->upload(ct_b)};
            std::vector<he::Cipher> out;
            try {
                out = he::run_program(p, *backend, inputs, *c.keys);
            } catch (const std::invalid_argument &) {
                // The verdict below compares against the throw.
            }
            ASSERT_EQ(report.ok(), !out.empty()) << report.summary();
            if (!out.empty()) {
                EXPECT_EQ(out[0].size(), expect.size_min);
                EXPECT_EQ(out[0].size(), expect.size_max);
                EXPECT_EQ(out[0].level(), expect.level_min);
                EXPECT_EQ(out[0].level(), expect.level_max);
                EXPECT_EQ(out[0].scale(), expect.scale_lo);
                EXPECT_EQ(out[0].scale(), expect.scale_hi);
            }
        }
        ++(report.ok() ? accepted : rejected);
        accepted_per_op[static_cast<uint8_t>(c.op)] += report.ok();
    }
    // Both verdicts occur, or the grid proves nothing.
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 100u);
    // And every op reached both backends at least once: an op whose
    // every case is rejected would leave its row untested.
    for (uint8_t code = 0; code <= he::kMaxOpCode; ++code) {
        EXPECT_GT(accepted_per_op[code], 0u)
            << he::op_semantics(static_cast<he::OpCode>(code)).name;
    }
}

}  // namespace
}  // namespace xehe::test
