#include "he/analyze.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ckks/galois.h"
#include "ckks/keys.h"
#include "he/cipher.h"

namespace xehe::he {

namespace {

/// Size bound for inputs the caller knows nothing about.
constexpr std::size_t kSizeUnknownMax = 64;

bool levels_disjoint(const ValueFacts &a, const ValueFacts &b) {
    return a.level_max < b.level_min || b.level_max < a.level_min;
}

/// True when no scale in `a`'s interval can pass the gate against any
/// scale in `b`'s interval (a must-fail).  Point intervals take the
/// evaluators' own test, so point decisions match bitwise.
bool scale_must_mismatch(const ValueFacts &a, const ValueFacts &b) {
    if (a.scale_exact() && b.scale_exact()) {
        return !ckks::scales_match(a.scale_lo, b.scale_lo);
    }
    return a.scale_hi < b.scale_lo * (1.0 - ckks::kScaleGate) ||
           a.scale_lo > b.scale_hi * (1.0 + ckks::kScaleGate);
}

/// True when no scales the two intervals allow lie within kSnapTolerance
/// of each other, so the planner's scale adoption cannot close the gap.
bool snap_must_fail(const ValueFacts &a, const ValueFacts &b) {
    return (a.scale_hi < b.scale_lo && !within_snap(a.scale_hi, b.scale_lo)) ||
           (b.scale_hi < a.scale_lo && !within_snap(b.scale_hi, a.scale_lo));
}

/// The highest level a value may carry once the planner strips the
/// alignment nodes it may (aligned analysis).
uint8_t stripped_level_max(const ValueFacts &f) {
    return std::max(f.level_max, f.level_max_stripped);
}

/// Out-of-line and cold: diagnostics are the exceptional path, and the
/// in-situ cost of an admission analyze (right after a compile evicted
/// everything) is mostly its i-cache footprint — string construction
/// inlined at every check site would double the walk's code size.
__attribute__((cold, noinline)) void
push_diag(std::vector<Diagnostic> &diags, Severity sev, DiagKind kind,
          uint32_t node, OpCode op, const char *msg,
          std::optional<long long> num) {
    diags.push_back(Diagnostic{
        sev, kind, node, op,
        num ? msg + std::to_string(*num) : std::string(msg)});
}

}  // namespace

const char *diag_kind_name(DiagKind kind) {
    switch (kind) {
        case DiagKind::Malformed: return "Malformed";
        case DiagKind::OutputAliasesInput: return "OutputAliasesInput";
        case DiagKind::LevelMismatch: return "LevelMismatch";
        case DiagKind::LevelUnderflow: return "LevelUnderflow";
        case DiagKind::SizeMismatch: return "SizeMismatch";
        case DiagKind::ScaleMismatch: return "ScaleMismatch";
        case DiagKind::MissingKey: return "MissingKey";
        case DiagKind::MissingRotation: return "MissingRotation";
        case DiagKind::DeadNode: return "DeadNode";
        case DiagKind::OversizeCipher: return "OversizeCipher";
        case DiagKind::ScaleDrift: return "ScaleDrift";
        case DiagKind::DepthBudget: return "DepthBudget";
    }
    return "Unknown";
}

InputFacts facts_of(const Cipher &cipher) {
    return {cipher.size(), cipher.level(), cipher.scale()};
}

std::vector<ValueFacts> leaf_facts(const Program &p,
                                   std::span<const InputFacts> inputs,
                                   std::size_t max_level) {
    // Caller-supplied facts are size_t/double; clamp into the narrow
    // fact fields.
    const auto clamp8 = [](std::size_t x) {
        return static_cast<uint8_t>(std::min<std::size_t>(x, 0xff));
    };
    // Sized once up front (32-byte facts keep the zero-fill cheap); a
    // walk then writes each node slot in place, and operand references
    // stay stable with no per-node growth bookkeeping.
    std::vector<ValueFacts> vals(p.value_count());
    for (uint32_t v = 0; v < p.num_inputs; ++v) {
        const InputFacts &in = inputs[inputs.size() == 1 ? 0 : v];
        ValueFacts &f = vals[v];
        f.size_min = in.size > 0 ? clamp8(in.size) : 1;
        f.size_max = in.size > 0 ? clamp8(in.size) : kSizeUnknownMax;
        f.level_min = in.level > 0 ? clamp8(in.level) : 1;
        f.level_max = in.level > 0 ? clamp8(in.level) : clamp8(max_level);
        f.scale_lo = in.scale > 0.0 ? in.scale : 0.0;
        f.scale_hi = in.scale > 0.0 ? in.scale
                                    : std::numeric_limits<double>::infinity();
    }
    for (std::size_t c = 0; c < p.constants.size(); ++c) {
        ValueFacts &f = vals[p.num_inputs + c];
        f.size_min = f.size_max = 1;
        f.level_min = f.level_max = clamp8(p.constants[c].rns);
        f.scale_lo = f.scale_hi = p.constants[c].scale;
    }
    return vals;
}

void AnalyzerOptions::set_keys(const ProgramKeys &keys) {
    relin_keys = keys.relin != nullptr;
    relin_levels = keys.relin ? keys.relin->key.keys.size() : 0;
    galois_keys = keys.galois != nullptr;
    std::vector<uint64_t> elts;
    std::optional<std::size_t> shortest;
    if (keys.galois != nullptr) {
        elts.reserve(keys.galois->keys.size());
        for (const auto &[elt, key] : keys.galois->keys) {
            elts.push_back(elt);
            shortest = std::min(shortest.value_or(key.keys.size()),
                                key.keys.size());
        }
    }
    galois_elts = std::move(elts);
    galois_levels = shortest;
}

bool AnalysisReport::ok() const noexcept {
    return first_error() == nullptr;
}

const Diagnostic *AnalysisReport::first_error() const noexcept {
    for (const Diagnostic &d : diagnostics) {
        if (d.severity == Severity::Error) {
            return &d;
        }
    }
    return nullptr;
}

std::size_t AnalysisReport::error_count() const noexcept {
    std::size_t n = 0;
    for (const Diagnostic &d : diagnostics) {
        n += d.severity == Severity::Error;
    }
    return n;
}

std::size_t AnalysisReport::warning_count() const noexcept {
    return diagnostics.size() - error_count();
}

std::string AnalysisReport::summary() const {
    const Diagnostic *e = first_error();
    if (e == nullptr) {
        return {};
    }
    std::string s;
    if (e->node != Diagnostic::kProgram) {
        s = "node " + std::to_string(e->node) + " (" +
            op_semantics(e->op).name + "): ";
    }
    return s + diag_kind_name(e->kind) + ": " + e->message;
}

ProgramAnalyzer::ProgramAnalyzer(const ckks::CkksContext &context,
                                 AnalyzerOptions options)
    : context_(&context), options_(std::move(options)) {}

AnalysisReport ProgramAnalyzer::analyze(const Program &p) const {
    return analyze(p, default_input_facts(*context_));
}

AnalysisReport ProgramAnalyzer::analyze(
    const Program &p, std::span<const InputFacts> inputs) const {
    return analyze_impl(p, inputs, false);
}

AnalysisReport ProgramAnalyzer::analyze(const Program &p,
                                        const InputFacts &uniform) const {
    return analyze_impl(p, std::span<const InputFacts>(&uniform, 1), true);
}

AnalysisReport ProgramAnalyzer::analyze_impl(
    const Program &p, std::span<const InputFacts> inputs,
    bool broadcast) const {
    AnalysisReport report;
    const auto diag = [&](Severity sev, DiagKind kind, uint32_t node,
                          OpCode op, std::string msg) {
        report.diagnostics.push_back(
            Diagnostic{sev, kind, node, op, std::move(msg)});
    };

    // Structural validation first: the fact walk indexes the value space,
    // which only validate() makes safe.  Callers whose program already
    // validated (wire decode) opt out via assume_validated.
    try {
        if (!options_.assume_validated) {
            p.validate();
        }
    } catch (const std::exception &e) {
        bool aliases = false;
        for (const uint32_t o : p.outputs) {
            aliases = aliases || o < p.num_inputs;
        }
        diag(Severity::Error,
             aliases ? DiagKind::OutputAliasesInput : DiagKind::Malformed,
             Diagnostic::kProgram, OpCode::Add, e.what());
        return report;
    }
    if (!broadcast && inputs.size() != p.num_inputs) {
        diag(Severity::Error, DiagKind::Malformed, Diagnostic::kProgram,
             OpCode::Add, "one InputFacts per program input required");
        return report;
    }

    const uint32_t const_base = p.num_inputs;
    const uint32_t node_base =
        const_base + static_cast<uint32_t>(p.constants.size());
    const bool aligned = options_.assume_alignment;
    const ckks::GaloisTool galois_tool(context_->n());

    std::vector<ValueFacts> &vals = report.values;
    vals = leaf_facts(p, inputs, context_->max_level());
    // Liveness: which node results transitively feed an output.  Dead
    // nodes still *execute* (the raw interpreter runs every node), but
    // the compiler's DCE removes them, so in assume_alignment mode they
    // cannot fail at run time and only warrant a warning.  Marked
    // directly in the report's fact slots (resize zero-filled `live`),
    // so admission pays no side allocation.  Only two consumers exist —
    // DeadNode advisories and aligned-mode error suppression — and
    // errors_only drops the first, so there the backward pass waits for
    // the first error that needs it (rare on the accept path).  The
    // pass reads only static node structure and writes only the `live`
    // bits the forward walk never touches, so running it mid-walk is
    // safe.
    bool liveness_done = false;
    const auto compute_liveness = [&]() {
        if (!liveness_done) {
            liveness_done = true;
            mark_live(p, [&](std::size_t v) -> bool & {
                return vals[v].live;
            });
        }
    };
    if (!options_.errors_only) {
        compute_liveness();
    }

    // Programs rotate by few distinct steps; memoize the last step ->
    // galois element mapping so the per-node cost is one compare.
    int rotate_step = std::numeric_limits<int>::min();
    uint64_t rotate_elt = 0;
    const auto elt_of = [&](int step) {
        if (step != rotate_step) {
            rotate_step = step;
            rotate_elt = galois_tool.elt_from_step(step);
        }
        return rotate_elt;
    };

    // Aligned mode: some alignment node's drop fails if kept.
    bool drops_fail = false;
    for (std::size_t i = 0; i < p.nodes.size(); ++i) {
        const Program::Node &node = p.nodes[i];
        const uint32_t nid = static_cast<uint32_t>(i);
        // References, not copies: operands strictly precede the result
        // slot (validate() guarantees node.a, node.b < node_base + i), so
        // writing `out` in place never aliases them.
        ValueFacts &out = vals[node_base + i];
        const auto live_now = [&]() {
            compute_liveness();
            return out.live;
        };
        // A must-fail the planner repairs (level alignment, a scale gap
        // within kSnapTolerance) is an error in strict mode only; any
        // other is an error in both modes, in assume_alignment only on
        // live nodes (DCE strips the rest).  The message stays a const
        // char* until the cold push_diag, so the hot walk carries only a
        // test and a call per check site.
        const auto error = [&](bool repairable, DiagKind kind,
                               const char *msg,
                               std::optional<long long> num = {}) {
            if (!aligned || (!repairable && live_now())) {
                push_diag(report.diagnostics, Severity::Error, kind, nid,
                          node.op, msg, num);
            }
        };
        const auto warn = [&](DiagKind kind, const char *msg) {
            if (!options_.errors_only) {
                push_diag(report.diagnostics, Severity::Warning, kind, nid,
                          node.op, msg, {});
            }
        };
        if (!out.live) {
            // With errors_only the live bits may still be lazily unset,
            // but warn() drops DeadNode there anyway.
            warn(DiagKind::DeadNode, "result never reaches an output");
        }

        // Every check reads the op's row, a compile-time constant inside
        // the visitor, so each folds to the op's own code.
        visit_op(node.op, [&](auto code) {
            constexpr const OpSemantics &row =
                op_semantics(decltype(code)::value);
            constexpr bool binary = row.arity == 2;
            // Add/Sub, the only ops that may see an alignment operand
            // stripped; every other op keeps its operands.
            constexpr bool linear = row.scale_gate && !row.const_operand;
            const ValueFacts &A = vals[node.a];
            const ValueFacts &B = binary ? vals[node.b] : A;

            // Sizes are never repaired.  Ops without a size-2/3 contract
            // pass a size-3 ciphertext on (advisory).
            if ((row.size == SizeRule::Any || row.size == SizeRule::Equal) &&
                (A.size_min >= 3 ||
                 (binary && !row.const_operand && B.size_min >= 3))) {
                warn(DiagKind::OversizeCipher,
                     "size-3 ciphertext flows on without relinearization");
            }
            if (size_must_fail(row, A, B)) {
                error(false, DiagKind::SizeMismatch,
                      "operand sizes violate the op's contract; "
                      "relinearize first");
            }
            // Levels: the planner lowers operands and strips alignment
            // drops, but can never raise a level or drop the last prime.
            switch (row.level) {
                case LevelRule::Same: break;
                case LevelRule::Drop:
                    // Aligned, an alignment drop fails only once the
                    // planner keeps it (drop_fails, checked below).
                    if (A.level_max < 2 && !(aligned && row.alignment)) {
                        error(false, DiagKind::LevelUnderflow,
                              "cannot drop a prime at the last level");
                    }
                    break;
                case LevelRule::MatchConst:
                    if (p.constants[node.b - const_base].n !=
                        context_->n()) {
                        error(false, DiagKind::LevelMismatch,
                              "plaintext ring dimension mismatch");
                    }
                    if (aligned &&
                        (B.level_min < 1 || B.level_min > A.level_max)) {
                        error(false, DiagKind::LevelMismatch,
                              "cipher can never reach the constant's level ",
                              B.level_min);
                    }
                    [[fallthrough]];
                case LevelRule::Equal:
                    if (levels_disjoint(A, B)) {
                        error(true, DiagKind::LevelMismatch,
                              "operand levels can never agree");
                    }
                    break;
                case LevelRule::AddendAbove:
                    if (B.level_max < A.level_min + 1 ||
                        B.level_min > A.level_max + 1) {
                        error(true, DiagKind::LevelMismatch,
                              "addend must sit exactly one level above the "
                              "accumulator");
                    }
                    break;
            }
            // The planner adopts the partner's scale across a gap within
            // kSnapTolerance, but cannot rewrite a plaintext's scale.
            if (row.scale_gate && scale_must_mismatch(A, B)) {
                const bool beyond =
                    aligned && !row.const_operand && snap_must_fail(A, B);
                error(!row.const_operand && !beyond, DiagKind::ScaleMismatch,
                      beyond ? "operand scales lie beyond the snap tolerance"
                             : "operand scales can never pass the evaluators' "
                               "1e-6 gate");
            }
            // Keys: a key switch at level l needs a key at least l deep.
            // A rotation by the identity element switches no key at all.
            if (row.key != KeyNeed::None) {
                const bool relin = row.key == KeyNeed::Relin;
                const uint64_t elt = relin ? 0
                                     : row.key == KeyNeed::Galois
                                         ? elt_of(node.imm)
                                         : galois_tool.conjugation_elt();
                const auto &levels =
                    relin ? options_.relin_levels : options_.galois_levels;
                const auto &elts = options_.galois_elts;
                if ((relin ? options_.relin_keys : options_.galois_keys) ==
                    false) {
                    error(false, DiagKind::MissingKey,
                          relin ? "program needs relinearization keys"
                                : "program needs galois keys");
                } else if (!relin && elt != 1 && elts.has_value() &&
                           std::find(elts->begin(), elts->end(), elt) ==
                               elts->end()) {
                    error(false, DiagKind::MissingRotation,
                          "no galois key for element ",
                          static_cast<long long>(elt));
                } else if (elt != 1 && levels.has_value() &&
                           A.level_min > *levels) {
                    error(false, DiagKind::MissingKey,
                          "key-switching key too short for level ",
                          A.level_min);
                }
            }

            // Aligned, a node's facts are as the planner keeps it: an
            // alignment node as written (transfer(aligned) only covers
            // the planner's choices at gated and level-equal ops).
            transfer(row, A, B, out, *context_, aligned && !row.alignment);
            if (aligned && row.alignment) {
                // Stripping leaves the operand instead: its level goes
                // to level_max_stripped (read by Add/Sub), its scale is
                // hulled in.  The drop fails only once the node is kept.
                out.level_max_stripped = stripped_level_max(A);
                detail::hull_scale(out, out, A);
                out.drop_fails =
                    A.drop_fails ||
                    (row.level == LevelRule::Drop && A.level_max < 2);
                drops_fail = drops_fail || out.drop_fails;
            } else if (aligned && linear) {
                out.level_max = std::min(stripped_level_max(A),
                                         stripped_level_max(B));
            }
            // An adopt keeps its ref, and any other op but Add/Sub its
            // operands, failing with their drops.
            if (drops_fail && !linear &&
                ((!row.alignment && A.drop_fails) ||
                 (binary && B.drop_fails))) {
                error(false, DiagKind::LevelUnderflow,
                      "keeps an alignment operand that drops a prime at the "
                      "last level");
            }

            if (row.scale == ScaleRule::DivDropped &&
                options_.snap_scale > 0.0 && out.scale_exact() &&
                out.scale_lo > 0.0 &&
                !within_snap(out.scale_lo, options_.snap_scale)) {
                warn(DiagKind::ScaleDrift,
                     "rescale result drifts outside the snap range of the "
                     "session scale");
            }
        });
    }

    // Program-level facts and advisories.
    std::size_t input_level_max = 0;
    for (uint32_t v = 0; v < p.num_inputs; ++v) {
        input_level_max =
            std::max<std::size_t>(input_level_max, vals[v].level_max);
    }
    for (const uint32_t o : p.outputs) {
        const ValueFacts &f = vals[o];
        report.mult_depth =
            std::max<std::size_t>(report.mult_depth, f.mult_depth);
        if (f.drop_fails) {  // an output alignment node is kept
            diag(Severity::Error, DiagKind::LevelUnderflow, o - node_base,
                 p.nodes[o - node_base].op,
                 "output drops a prime at the last level");
        }
        if (!options_.errors_only && f.size_min >= 3 && o >= node_base) {
            diag(Severity::Warning, DiagKind::OversizeCipher,
                 o - node_base, p.nodes[o - node_base].op,
                 "program output is an unrelinearized size-3 ciphertext");
        }
    }
    // Each cipher multiply needs one rescale to hold the scale; the
    // chain can rescale at most (input level - 1) times.
    if (!options_.errors_only && p.num_inputs > 0 && input_level_max >= 1 &&
        report.mult_depth > input_level_max - 1) {
        diag(Severity::Warning, DiagKind::DepthBudget, Diagnostic::kProgram,
             OpCode::Add,
             "multiplicative depth " + std::to_string(report.mult_depth) +
                 " exceeds the level budget (" +
                 std::to_string(input_level_max - 1) +
                 " rescales available)");
    }
    return report;
}

}  // namespace xehe::he
