// he::ProgramCompiler — the optimizing pass pipeline over the he::Program
// IR (EVA-style: rescale/mod-switch placement planned over the whole
// circuit instead of greedily at each op).
//
// Passes, in order:
//  1. canonicalize — commutative operands into a canonical order
//     (Multiply always: the modular product is bit-commutative; Add only
//     when the planner proves both operand scales identical, since the
//     result adopts the first operand's scale metadata), and
//     Multiply(x, x) rewritten to Square (bit-identical on both
//     backends: the host square IS multiply(a, a), and the GPU square's
//     cross term cross+cross equals multiply's a0b1+a1b0).
//  2. CSE — structurally identical nodes (op, operands, imm) merge; the
//     canonical operand order makes commutative duplicates structural.
//  3. DCE — nodes (and constants) no output transitively reads are
//     dropped.  Outputs are never dropped.
//  4. plan — the level/scale planner, driven by the op rows of
//     he/semantics.h.  Pure alignment nodes (rows marked `alignment`:
//     ModSwitch / ModSwitchAdopt / AdoptScale whose consumers are all
//     gated cipher-cipher ops — Add/Sub — or further alignment nodes,
//     and which are not outputs) are stripped, and alignment is
//     re-derived at each consumer from the row's size, level and scale
//     rules, tracking metadata with transfer() over exact (point) facts
//     — the same arithmetic the backends evaluate, bit for bit.  Size
//     violations are compile errors; level gaps repair with ModSwitch
//     chains; scale gaps at gated ops within kSnapTolerance repair
//     by adopting the partner's scale (folded into the last inserted
//     ModSwitch as a ModSwitchAdopt when possible, else an AdoptScale
//     copy); larger gaps are compile errors — a compiled program
//     therefore raw-interprets with no alignment left to do, and
//     consumes only the levels its data flow forces (a client
//     circuit that over-switched both operands comes out shallower).
//     Requires a bound context; without one the pass is skipped.
//  5. prefuse — maximal runs of consecutive, mutually independent
//     single-launch dyadic ops are annotated as Program::fusion_groups,
//     so the interpreter hands the GPU backend pre-planned
//     FusionBuilder groups instead of launching one kernel per node.
//
// Every pass always runs (plan only with a context).  With a context, the
// output is then checked by ProgramAnalyzer (strict mode, the planner's
// input facts): a must-fail node there is a compiler bug and throws
// std::logic_error.
//
// Every pass except plan is bit-exact by construction.  plan preserves
// decoded results; when it inserts or removes nothing
// (PassReport::bit_exact()), the compiled program's interpretation is
// bit-identical to the raw one.  The five canonical routine programs
// compile to themselves (tests/test_he_compiler.cpp pins this).
#pragma once

#include "he/program.h"

namespace xehe::he {

struct CompilerOptions {
    /// Level (active prime count) the planner assumes for every program
    /// input.  0 = the context's max level.
    std::size_t input_level = 0;
    /// Scale the planner assumes for every program input.  0 = the
    /// session default (the value of the last data prime).
    double input_scale = 0.0;
};

/// What the pipeline did — per-pass counters plus the bit-exactness
/// verdict the differential tests key on.
struct PassReport {
    std::size_t canonicalized = 0;   ///< nodes reordered or strength-reduced
    std::size_t cse_merged = 0;
    std::size_t dce_removed = 0;     ///< dead nodes dropped
    std::size_t constants_removed = 0;
    std::size_t plan_removed = 0;    ///< alignment nodes stripped
    std::size_t plan_inserted = 0;   ///< alignment nodes re-derived
    std::size_t fused_nodes = 0;     ///< nodes inside fusion groups
    /// True when the planner changed nothing: the compiled program's
    /// node-for-node interpretation is then bit-identical to raw (the
    /// other passes only merge, drop or reorder bit-commutative work).
    bool bit_exact() const noexcept {
        return plan_removed == 0 && plan_inserted == 0;
    }
};

struct CompiledProgram {
    Program program;
    ProgramStats before;
    ProgramStats after;
    PassReport report;
};

class ProgramCompiler {
public:
    /// Context-free compiler: canonicalize/CSE/DCE/prefuse only (the
    /// planner needs prime values to mirror rescale scale arithmetic).
    explicit ProgramCompiler(CompilerOptions options = {});
    /// Full pipeline bound to the scheme context.
    explicit ProgramCompiler(const ckks::CkksContext &context,
                             CompilerOptions options = {});

    const CompilerOptions &options() const noexcept { return options_; }

    /// Runs the pipeline, planning for the options' input level and scale
    /// on every input.  Throws std::invalid_argument on programs the
    /// planner cannot make raw-executable (scale gaps beyond
    /// kSnapTolerance, operand sizes off their row's contract, a prime
    /// dropped at the last level).
    CompiledProgram compile(const Program &program) const;
    /// The same, planning for one InputFacts per program input — the
    /// facts_of() of the ciphertexts it will run on, which may sit at
    /// different levels and scales (mirrors ProgramAnalyzer::analyze).
    CompiledProgram compile(const Program &program,
                            std::span<const InputFacts> inputs) const;

private:
    const ckks::CkksContext *context_ = nullptr;
    CompilerOptions options_;
};

/// The compiled-program cache of both frontends (he::Session::run and
/// serve::InferenceServer), keyed on the program and the per-input facts
/// it was planned for: fingerprint, then facts, then structural equality
/// (fingerprints can collide; a wrong program must never run).  Clears
/// when it holds kCapacity entries, so cycling circuits cannot grow it.
class CompileCache {
public:
    static constexpr std::size_t kCapacity = 256;

    explicit CompileCache(const ckks::CkksContext &ctx) : context_(&ctx) {}

    /// The cached compiled form of `program` for `inputs`, or null.
    std::shared_ptr<const Program> find(const Program &program,
                                        std::span<const InputFacts> inputs);
    /// Compiles `program` for `inputs` (throws like compile()), caches
    /// and returns it.
    std::shared_ptr<const Program> insert(const Program &program,
                                          std::span<const InputFacts> inputs);

    std::size_t size() const noexcept { return entries_.size(); }
    std::size_t hits() const noexcept { return hits_; }

private:
    struct Entry {
        uint64_t fingerprint;
        std::vector<InputFacts> facts;
        Program source;
        std::shared_ptr<const Program> compiled;
    };
    const ckks::CkksContext *context_;
    std::vector<Entry> entries_;
    std::size_t hits_ = 0;
};

}  // namespace xehe::he
