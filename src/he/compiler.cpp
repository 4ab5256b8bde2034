#include "he/compiler.h"

#include <algorithm>
#include <array>
#include <map>
#include <string>

#include "he/analyze.h"
#include "obs/trace.h"

namespace xehe::he {

namespace {

[[noreturn]] void fail(std::size_t node, OpCode op, const std::string &what) {
    throw std::invalid_argument("he: compiler: node " + std::to_string(node) +
                                " (" + op_semantics(op).name + "): " + what);
}

/// Best-effort exact facts for every value of `p` (used by canonicalize
/// to prove Add operands share a scale).  Never throws: inconsistent
/// programs — the ones the planner exists to repair — get approximate
/// facts, which only makes canonicalization more conservative.
std::vector<ValueFacts> simulate(const Program &p,
                                 const ckks::CkksContext &ctx,
                                 std::span<const InputFacts> inputs) {
    std::vector<ValueFacts> facts = leaf_facts(p, inputs, ctx.max_level());
    const uint32_t node_base =
        p.num_inputs + static_cast<uint32_t>(p.constants.size());
    for (std::size_t i = 0; i < p.nodes.size(); ++i) {
        const Program::Node &node = p.nodes[i];
        const OpSemantics &row = op_semantics(node.op);
        const ValueFacts &a = facts[node.a];
        ValueFacts &out = facts[node_base + i];
        if (row.level == LevelRule::Drop && a.level_min < 2) {
            out = a;  // bottomed out; keep going
            continue;
        }
        transfer(row, a, row.arity == 2 ? facts[node.b] : a, out, ctx);
    }
    return facts;
}

// ---------------------------------------------------------------------------
// canonicalize: commutative operand order + Multiply(x, x) -> Square
// ---------------------------------------------------------------------------

void canonicalize_pass(Program &p, const std::vector<ValueFacts> &meta,
                       PassReport &report) {
    for (Program::Node &node : p.nodes) {
        if (node.op == OpCode::Multiply && node.a == node.b) {
            // Bit-identical on both backends: the host square IS
            // multiply(a, a), and the GPU square's doubled cross term
            // equals multiply's a0*b1 + a1*b0.
            node.op = OpCode::Square;
            node.b = 0;
            ++report.canonicalized;
        } else if (node.op == OpCode::Multiply && node.a > node.b) {
            // The modular product commutes bitwise, and the result scale
            // (a double product) commutes too.
            std::swap(node.a, node.b);
            ++report.canonicalized;
        } else if (node.op == OpCode::Add && node.a > node.b &&
                   !meta.empty()) {
            // Add adopts the FIRST operand's scale metadata, so the swap
            // is only bit-safe when both operand scales are provably the
            // same double.
            const ValueFacts &a = meta[node.a], &b = meta[node.b];
            if (a.scale_lo == b.scale_lo && a.size_min == b.size_min &&
                a.level_min == b.level_min) {
                std::swap(node.a, node.b);
                ++report.canonicalized;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// CSE: structurally identical nodes merge
// ---------------------------------------------------------------------------

Program cse_pass(const Program &p, PassReport &report) {
    Program out;
    out.num_inputs = p.num_inputs;
    out.constants = p.constants;
    const uint32_t node_base =
        p.num_inputs + static_cast<uint32_t>(p.constants.size());
    std::vector<uint32_t> remap(p.value_count());
    for (uint32_t v = 0; v < node_base; ++v) {
        remap[v] = v;
    }
    std::map<std::array<uint64_t, 2>, uint32_t> seen;
    for (std::size_t i = 0; i < p.nodes.size(); ++i) {
        Program::Node node = p.nodes[i];
        node.a = remap[node.a];
        if (op_semantics(node.op).arity == 2) {
            node.b = remap[node.b];
        }
        const std::array<uint64_t, 2> key = {
            (static_cast<uint64_t>(node.op) << 32) |
                static_cast<uint32_t>(node.imm),
            (static_cast<uint64_t>(node.a) << 32) | node.b};
        const auto [it, inserted] = seen.try_emplace(
            key, node_base + static_cast<uint32_t>(out.nodes.size()));
        if (inserted) {
            out.nodes.push_back(node);
        } else {
            ++report.cse_merged;
        }
        remap[node_base + i] = it->second;
    }
    out.outputs.reserve(p.outputs.size());
    for (const uint32_t o : p.outputs) {
        out.outputs.push_back(remap[o]);
    }
    return out;
}

// ---------------------------------------------------------------------------
// DCE: drop nodes and constants no output transitively reads
// ---------------------------------------------------------------------------

Program dce_pass(const Program &p, PassReport &report) {
    const uint32_t const_base = p.num_inputs;
    const uint32_t node_base =
        const_base + static_cast<uint32_t>(p.constants.size());
    std::vector<char> live(p.value_count(), 0);
    mark_live(p, [&](std::size_t v) -> char & { return live[v]; });

    Program out;
    out.num_inputs = p.num_inputs;
    std::vector<uint32_t> remap(p.value_count());
    for (uint32_t v = 0; v < const_base; ++v) {
        remap[v] = v;
    }
    for (std::size_t c = 0; c < p.constants.size(); ++c) {
        if (live[const_base + c]) {
            remap[const_base + c] =
                const_base + static_cast<uint32_t>(out.constants.size());
            out.constants.push_back(p.constants[c]);
        } else {
            ++report.constants_removed;
        }
    }
    const uint32_t out_node_base =
        const_base + static_cast<uint32_t>(out.constants.size());
    for (std::size_t i = 0; i < p.nodes.size(); ++i) {
        if (!live[node_base + i]) {
            ++report.dce_removed;
            continue;
        }
        Program::Node node = p.nodes[i];
        node.a = remap[node.a];
        if (op_semantics(node.op).arity == 2) {
            node.b = remap[node.b];
        }
        remap[node_base + i] =
            out_node_base + static_cast<uint32_t>(out.nodes.size());
        out.nodes.push_back(node);
    }
    out.outputs.reserve(p.outputs.size());
    for (const uint32_t o : p.outputs) {
        out.outputs.push_back(remap[o]);
    }
    return out;
}

// ---------------------------------------------------------------------------
// plan: strip pure alignment, re-derive rescale/mod-switch placement
// ---------------------------------------------------------------------------

class Planner {
public:
    Planner(const Program &p, const ckks::CkksContext &ctx,
            std::span<const InputFacts> inputs, PassReport &report)
        : in_(p), ctx_(ctx), inputs_(inputs), report_(report) {
        node_base_ = in_.num_inputs +
                     static_cast<uint32_t>(in_.constants.size());
    }

    Program run() {
        find_strippable();
        out_.num_inputs = in_.num_inputs;
        out_.constants = in_.constants;
        remap_.assign(in_.value_count(), 0);
        for (uint32_t v = 0; v < node_base_; ++v) {
            remap_[v] = v;
        }
        meta_ = leaf_facts(in_, inputs_, ctx_.max_level());
        meta_.resize(node_base_);
        for (std::size_t i = 0; i < in_.nodes.size(); ++i) {
            plan_node(i);
        }
        out_.outputs.reserve(in_.outputs.size());
        for (const uint32_t o : in_.outputs) {
            out_.outputs.push_back(remap_[o]);
        }
        return std::move(out_);
    }

private:
    /// An alignment node is strippable unless it is pinned: an output, or
    /// read by anything but a gated cipher-cipher op (Add/Sub, where
    /// alignment is re-derived against the partner) or as the primary
    /// operand of a strippable alignment node.  A Multiply or ModSwitchAdd
    /// operand, the ref side of an adopt, a Rescale input — stripping any
    /// of them would change result metadata in ways no later repair
    /// re-establishes.  One backward pass: consumers follow their
    /// operands, so a node's own pin is final before its operands are
    /// visited (DCE ran first, so every consumer counts).
    void find_strippable() {
        std::vector<char> pinned(in_.value_count(), 0);
        for (const uint32_t o : in_.outputs) {
            pinned[o] = 1;
        }
        strippable_.assign(in_.nodes.size(), 0);
        for (std::size_t i = in_.nodes.size(); i-- > 0;) {
            const Program::Node &node = in_.nodes[i];
            const OpSemantics &row = op_semantics(node.op);
            const bool linear = row.scale_gate && !row.const_operand;
            strippable_[i] = row.alignment && !pinned[node_base_ + i];
            pinned[node.a] |= !linear && !strippable_[i];
            if (row.arity == 2) {
                pinned[node.b] |= !linear;
            }
        }
    }

    uint32_t emit(OpCode op, uint32_t a, uint32_t b, int32_t imm) {
        const OpSemantics &row = op_semantics(op);
        Program::Node node;
        node.op = op;
        node.a = a;
        node.b = row.arity == 2 ? b : 0;
        node.imm = imm;
        ValueFacts out;
        transfer(row, meta_[a], row.arity == 2 ? meta_[b] : meta_[a], out,
                 ctx_);
        meta_.push_back(out);
        out_.nodes.push_back(node);
        return node_base_ + static_cast<uint32_t>(out_.nodes.size()) - 1;
    }

    /// Mod-switches `v` down to `target` (one inserted node per level).
    uint32_t lower(uint32_t v, std::size_t target, std::size_t i,
                   OpCode op) {
        while (meta_[v].level_min > target) {
            if (meta_[v].level_min < 2) {
                fail(i, op, "cannot mod-switch below one prime");
            }
            v = emit(OpCode::ModSwitch, v, 0, 0);
            ++report_.plan_inserted;
        }
        return v;
    }

    /// Makes `v` adopt `ref`'s scale: folds into a ModSwitch this
    /// alignment episode just inserted (free — it becomes a
    /// ModSwitchAdopt), else emits an AdoptScale copy.
    uint32_t adopt(uint32_t v, uint32_t ref, std::size_t episode_start) {
        if (v >= node_base_) {
            const std::size_t def = v - node_base_;
            if (def >= episode_start &&
                out_.nodes[def].op == OpCode::ModSwitch) {
                out_.nodes[def].op = OpCode::ModSwitchAdopt;
                out_.nodes[def].b = ref;
                meta_[v].scale_lo = meta_[v].scale_hi = meta_[ref].scale_lo;
                return v;
            }
        }
        const uint32_t adopted = emit(OpCode::AdoptScale, v, ref, 0);
        ++report_.plan_inserted;
        return adopted;
    }

    /// Re-derives the node's alignment from its row: sizes are checked
    /// (never repaired), levels repaired by lowering, cipher-cipher scale
    /// gaps within the snap tolerance by adoption.
    void plan_node(std::size_t i) {
        const Program::Node &node = in_.nodes[i];
        const uint32_t old_value = node_base_ + static_cast<uint32_t>(i);
        if (strippable_[i]) {
            remap_[old_value] = remap_[node.a];
            ++report_.plan_removed;
            return;
        }

        const OpSemantics &row = op_semantics(node.op);
        const OpCode op = node.op;
        uint32_t x = remap_[node.a];
        uint32_t y = row.arity == 2 ? remap_[node.b] : x;
        const std::size_t episode = out_.nodes.size();
        if (size_must_fail(row, meta_[x], meta_[y])) {
            fail(i, op, "operand sizes violate the op's contract; "
                        "relinearize first");
        }
        switch (row.level) {
            case LevelRule::Same: break;
            case LevelRule::Equal:
                if (meta_[x].level_min > meta_[y].level_min) {
                    x = lower(x, meta_[y].level_min, i, op);
                } else {
                    y = lower(y, meta_[x].level_min, i, op);
                }
                break;
            case LevelRule::MatchConst:
                if (meta_[x].level_min < meta_[y].level_min) {
                    fail(i, op, "cipher sits below the constant's level");
                }
                x = lower(x, meta_[y].level_min, i, op);
                break;
            case LevelRule::AddendAbove:
                if (meta_[y].level_min < meta_[x].level_min + 1) {
                    fail(i, op, "addend must sit exactly one level above "
                                "the accumulator");
                }
                y = lower(y, meta_[x].level_min + 1, i, op);
                break;
            case LevelRule::Drop:
                if (meta_[x].level_min < 2) {
                    fail(i, op, "cannot drop below one prime");
                }
                break;
        }
        if (row.scale_gate &&
            !ckks::scales_match(meta_[x].scale_lo, meta_[y].scale_lo)) {
            // A plaintext's scale cannot be rewritten in place.
            if (row.const_operand) {
                fail(i, op, "cipher/constant scale gap");
            }
            if (!within_snap(meta_[x].scale_lo, meta_[y].scale_lo)) {
                fail(i, op, "operand scale gap (ratio " +
                                std::to_string(meta_[x].scale_lo /
                                               meta_[y].scale_lo) +
                                ") exceeds the snap tolerance");
            }
            // Adopt on the side this episode lowered (its nodes are
            // fresh), else on the second operand.
            if (x >= node_base_ && x - node_base_ >= episode) {
                x = adopt(x, y, episode);
            } else {
                y = adopt(y, x, episode);
            }
        }
        remap_[old_value] = emit(op, x, y, node.imm);
    }

    const Program &in_;
    const ckks::CkksContext &ctx_;
    const std::span<const InputFacts> inputs_;
    PassReport &report_;
    Program out_;
    uint32_t node_base_ = 0;
    std::vector<char> strippable_;
    std::vector<uint32_t> remap_;
    /// Exact facts of every output value (point intervals).
    std::vector<ValueFacts> meta_;
};

// ---------------------------------------------------------------------------
// prefuse: annotate maximal runs of independent dyadic nodes
// ---------------------------------------------------------------------------

void prefuse_pass(Program &p, PassReport &report) {
    p.fusion_groups.clear();
    const uint32_t node_base =
        p.num_inputs + static_cast<uint32_t>(p.constants.size());
    const auto reads_run = [&](const Program::Node &node, std::size_t start,
                               std::size_t i) {
        const auto in_run = [&](uint32_t v) {
            return v >= node_base + start && v < node_base + i;
        };
        // The ref side of an adopt only reads metadata, but splitting on
        // it too keeps the rule simple: a group member never references
        // another member.
        return in_run(node.a) ||
               (op_semantics(node.op).arity == 2 && in_run(node.b));
    };
    std::size_t start = 0;
    for (std::size_t i = 0; i <= p.nodes.size(); ++i) {
        const bool extend = i < p.nodes.size() &&
                            op_semantics(p.nodes[i].op).dyadic &&
                            !reads_run(p.nodes[i], start, i);
        if (extend) {
            continue;
        }
        if (i - start >= 2) {
            p.fusion_groups.push_back(
                {static_cast<uint32_t>(start), static_cast<uint32_t>(i)});
            report.fused_nodes += i - start;
        }
        start = (i < p.nodes.size() && op_semantics(p.nodes[i].op).dyadic)
                    ? i
                    : i + 1;
    }
}

/// The pass pipeline.  `canonical`: the facts canonicalize simulates;
/// `planned`: the facts the planner and the self-verify assume (one
/// element applies to every input).  Without a context only the
/// context-free passes run.
CompiledProgram run_passes(const ckks::CkksContext *context,
                           const Program &program,
                           std::span<const InputFacts> canonical,
                           std::span<const InputFacts> planned) {
    obs::Span compile_span("compile.program", obs::Category::Compile);
    program.validate();
    CompiledProgram result;
    result.before = program.stats();

    Program p = program;
    p.fusion_groups.clear();
    {
        obs::Span pass_span("compile.canonicalize", obs::Category::Compile);
        canonicalize_pass(
            p,
            context != nullptr ? simulate(p, *context, canonical)
                                : std::vector<ValueFacts>{},
            result.report);
    }
    {
        obs::Span pass_span("compile.cse", obs::Category::Compile);
        p = cse_pass(p, result.report);
    }
    {
        obs::Span pass_span("compile.dce", obs::Category::Compile);
        p = dce_pass(p, result.report);
    }
    if (context != nullptr) {
        obs::Span pass_span("compile.plan", obs::Category::Compile);
        p = Planner(p, *context, planned, result.report).run();
        // Re-derived alignment chains duplicate when one value aligns for
        // several consumers; merge them.
        p = cse_pass(p, result.report);
    }
    {
        obs::Span pass_span("compile.prefuse", obs::Category::Compile);
        prefuse_pass(p, result.report);
    }
    p.validate();
    if (context != nullptr) {
        // Compiler-bug tripwire: the planner's contract is that its
        // output raw-interprets cleanly under the facts it planned for,
        // so any must-fail node here is a pass pipeline defect, not a
        // user error.
        obs::Span pass_span("compile.verify", obs::Category::Compile);
        const ProgramAnalyzer analyzer(*context);
        const AnalysisReport verdict =
            planned.size() == p.num_inputs ? analyzer.analyze(p, planned)
                                           : analyzer.analyze(p, planned[0]);
        if (!verdict.ok()) {
            throw std::logic_error(
                "he: compiler: self-verify failed, pass output must-fail: " +
                verdict.summary());
        }
    }
    result.after = p.stats();
    result.program = std::move(p);
    if (compile_span.active()) {
        compile_span.set_detail(
            std::to_string(result.before.nodes) + " -> " +
            std::to_string(result.after.nodes) + " nodes");
    }
    return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// ProgramCompiler
// ---------------------------------------------------------------------------

ProgramCompiler::ProgramCompiler(CompilerOptions options)
    : options_(options) {}

ProgramCompiler::ProgramCompiler(const ckks::CkksContext &context,
                                 CompilerOptions options)
    : context_(&context), options_(options) {}

CompiledProgram ProgramCompiler::compile(const Program &program) const {
    if (context_ == nullptr) {
        return run_passes(context_, program, {}, {});
    }
    // Input sizes are the caller's.  Canonicalize may assume the usual 2
    // — an Add only runs when its operand sizes agree, so a swap proven
    // under that assumption stays bit-safe — but the planner leaves them
    // unknown, so it rejects only size defects no input can avoid.
    const InputFacts input = default_input_facts(
        *context_, options_.input_level, options_.input_scale);
    InputFacts planned = input;
    planned.size = 0;
    return run_passes(context_, program, {&input, 1}, {&planned, 1});
}

CompiledProgram ProgramCompiler::compile(
    const Program &program, std::span<const InputFacts> inputs) const {
    util::require(inputs.size() == program.num_inputs,
                  "he: compiler: one InputFacts per program input required");
    return run_passes(context_, program, inputs, inputs);
}

std::shared_ptr<const Program> CompileCache::find(
    const Program &program, std::span<const InputFacts> inputs) {
    const uint64_t fp = fingerprint(program);
    for (const Entry &entry : entries_) {
        if (entry.fingerprint == fp &&
            std::ranges::equal(entry.facts, inputs) &&
            structurally_equal(entry.source, program)) {
            ++hits_;
            return entry.compiled;
        }
    }
    return nullptr;
}

std::shared_ptr<const Program> CompileCache::insert(
    const Program &program, std::span<const InputFacts> inputs) {
    auto compiled = std::make_shared<const Program>(
        ProgramCompiler(*context_).compile(program, inputs).program);
    if (entries_.size() >= kCapacity) {
        entries_.clear();
    }
    entries_.push_back({fingerprint(program),
                        {inputs.begin(), inputs.end()}, program, compiled});
    return compiled;
}

}  // namespace xehe::he
