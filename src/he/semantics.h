// he/semantics.h — the op-semantics table of the Program IR.
//
// One constexpr row per OpCode states everything the IR's consumers need
// to know about an op: operand count and kinds, the immediate's range,
// the operand-size contract and result size, how the result's level and
// scale follow from the operands', whether the evaluators' 1e-6 scale
// gate applies, which key it needs, and how Program::stats() and the
// compiler classify it.
// The rows mirror the evaluators' preconditions (ckks/evaluator.cpp,
// xehe/gpu_evaluator.cpp); every other consumer reads the row instead of
// restating the rule:
//  * Program::validate() and stats() — arity, constant operand,
//    immediate range, dyadic, level drops, the stats bucket;
//  * ProgramCompiler — the canonicalize simulation and the planner run
//    transfer() over exact facts and repair what the row requires;
//  * ProgramAnalyzer — runs transfer() over interval facts and derives
//    each must-fail diagnostic from the row;
//  * the serving front door (serve/server.cpp) — lowers every request,
//    fixed-function ops included (serve::canonical_program), to a
//    Program and admits it only if the analyzer finds no must-fail.
//
// transfer() is the one metadata transfer function.  It works on
// interval facts (ValueFacts); exact metadata is the point interval, so
// the compiler's planning and the analyzer's verification share it.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>

#include "ckks/poly.h"

namespace xehe::he {

enum class OpCode : uint8_t {
    Add = 0,            ///< (cipher, cipher)
    Sub = 1,            ///< (cipher, cipher)
    Negate = 2,         ///< (cipher)
    AddPlain = 3,       ///< (cipher, constant)
    MultiplyPlain = 4,  ///< (cipher, constant)
    Multiply = 5,       ///< (cipher, cipher); operands size 2
    Square = 6,         ///< (cipher)
    Relinearize = 7,    ///< (cipher); needs relin keys
    Rescale = 8,        ///< (cipher)
    ModSwitch = 9,      ///< (cipher)
    /// (cipher a, cipher ref): mod-switch `a` one level and adopt `ref`'s
    /// scale metadata — the routines' approximate-scale bookkeeping
    /// (`c_down.scale = prod.scale`), with no extra kernel.
    ModSwitchAdopt = 10,
    Rotate = 11,     ///< (cipher), imm = step; needs galois keys
    Conjugate = 12,  ///< (cipher); needs the conjugation galois key
    /// (cipher a, cipher c): a + mod_switch(c) with c adopting a's scale
    /// — the MulLinRSModSwAdd tail as one op, which the GPU backend
    /// executes as a single fused gather+add launch.
    ModSwitchAdd = 13,
    /// (cipher a, cipher ref): copy of `a` carrying `ref`'s scale
    /// metadata — the compiler's scale-snap repair (Backend::set_scale,
    /// one copy kernel on the GPU backend).  Emitted by
    /// he::ProgramCompiler; pre-compiler wire readers reject the opcode,
    /// but the wire format itself is unchanged (no version bump).
    AdoptScale = 14,
    /// (cipher a, cipher b), imm = count: the sum of `count` copies of
    /// a * b, unrelinearized — the Section IV-E matmul tile, which the
    /// GPU backend executes as a chain of fused mad_mod launches.  Like
    /// AdoptScale, new to readers but not to the wire format.
    MultiplyAcc = 15,
};

inline constexpr uint8_t kMaxOpCode =
    static_cast<uint8_t>(OpCode::MultiplyAcc);

/// Immediate bounds: a rotation step in [-2^20, 2^20], an accumulation
/// count in [1, 2^20] (the serving wire applies the same bounds).
inline constexpr int32_t kMaxRotateStep = 1 << 20;
inline constexpr int32_t kMaxAccumulations = 1 << 20;

/// Static shape report of a program (Program::stats()): what the
/// interpreter will do without executing it.  Level figures count prime
/// drops relative to the inputs, so no context is needed.
struct ProgramStats {
    std::size_t nodes = 0;
    std::size_t constants = 0;
    std::size_t outputs = 0;
    std::size_t multiplies = 0;      ///< Multiply + Square + MultiplyAcc
    std::size_t plain_multiplies = 0;
    std::size_t key_switches = 0;    ///< Relinearize + Rotate + Conjugate
    std::size_t rescales = 0;
    std::size_t mod_switches = 0;    ///< ModSwitch + adopt/add variants
    /// Longest op chain from any input/constant to an output.
    std::size_t depth = 0;
    /// Maximum primes dropped along any input->output path — the level
    /// budget the circuit consumes.
    std::size_t levels_consumed = 0;
    std::size_t fusion_groups = 0;
    /// Top-level op dispatches the interpreter will make: one per node,
    /// minus the launches pre-planned dyadic groups merge away.
    std::size_t planned_launches = 0;
};

/// Operand-size contract on the cipher operands.
enum class SizeRule : uint8_t {
    Any,    ///< no constraint
    Equal,  ///< both cipher operands the same size
    Two,    ///< every cipher operand size 2
    Three,  ///< the operand size 3
};

/// Level contract, and the result's level.
enum class LevelRule : uint8_t {
    Same,         ///< result at the first operand's level
    Equal,        ///< both cipher operands at one level; result there
    MatchConst,   ///< cipher at the constant's level; result there
    Drop,         ///< one prime dropped; needs the operand at level >= 2
    AddendAbove,  ///< second operand exactly one level above the first;
                  ///< result at the first's
};

/// The result's scale.
enum class ScaleRule : uint8_t {
    First,               ///< the first operand's
    Product,             ///< first * second (first * first when unary)
    DivDropped,          ///< first / the dropped prime q[level - 1]
    AdoptRef,            ///< the second operand's
    AdoptRefIfPositive,  ///< the second operand's when > 0, else first's
};

/// Key material the op consumes.
enum class KeyNeed : uint8_t { None, Relin, Galois, Conjugation };

struct OpSemantics {
    const char *name;
    uint8_t arity;        ///< 1 or 2 operands
    bool const_operand;   ///< the second operand is a plaintext constant
    /// Allowed Node::imm range; [0, 0] for ops without an immediate.
    int32_t imm_min;
    int32_t imm_max;
    SizeRule size;
    uint8_t result_size;  ///< 0 = the first operand's size
    LevelRule level;
    ScaleRule scale;
    bool scale_gate;      ///< ckks::scales_match(first, second) must hold
    KeyNeed key;
    /// One elementwise launch on the GPU backend (no NTT, no key
    /// switch): may sit inside a pre-planned fusion group.
    bool dyadic;
    bool multiplicative;  ///< counts toward multiplicative depth
    /// Pure alignment: only drops a prime or rewrites scale metadata, so
    /// the planner may strip it and re-derive alignment at the consumer.
    bool alignment;
    std::size_t ProgramStats::*stat;  ///< stats bucket; nullptr = none
};

// clang-format off
/// Indexed by OpCode.  Columns: name, arity, constant operand, immediate
/// range, size rule, result size, level rule, scale rule, scale gate, key,
/// dyadic, multiplicative, alignment, stats bucket.
inline constexpr std::array<OpSemantics, kMaxOpCode + 1> kOpSemantics = [] {
    using S = SizeRule;
    using L = LevelRule;
    using C = ScaleRule;
    using K = KeyNeed;
    using P = ProgramStats;
    return std::array<OpSemantics, kMaxOpCode + 1>{{
        {"Add", 2, false, 0, 0, S::Equal, 0, L::Equal, C::First, true,
         K::None, true, false, false, nullptr},
        {"Sub", 2, false, 0, 0, S::Equal, 0, L::Equal, C::First, true,
         K::None, true, false, false, nullptr},
        {"Negate", 1, false, 0, 0, S::Any, 0, L::Same, C::First, false,
         K::None, true, false, false, nullptr},
        {"AddPlain", 2, true, 0, 0, S::Any, 0, L::MatchConst, C::First, true,
         K::None, true, false, false, nullptr},
        {"MultiplyPlain", 2, true, 0, 0, S::Any, 0, L::MatchConst,
         C::Product, false, K::None, true, false, false,
         &P::plain_multiplies},
        {"Multiply", 2, false, 0, 0, S::Two, 3, L::Equal, C::Product, false,
         K::None, false, true, false, &P::multiplies},
        {"Square", 1, false, 0, 0, S::Two, 3, L::Same, C::Product, false,
         K::None, true, true, false, &P::multiplies},
        {"Relinearize", 1, false, 0, 0, S::Three, 2, L::Same, C::First,
         false, K::Relin, false, false, false, &P::key_switches},
        {"Rescale", 1, false, 0, 0, S::Any, 0, L::Drop, C::DivDropped, false,
         K::None, false, false, false, &P::rescales},
        {"ModSwitch", 1, false, 0, 0, S::Any, 0, L::Drop, C::First, false,
         K::None, false, false, true, &P::mod_switches},
        {"ModSwitchAdopt", 2, false, 0, 0, S::Any, 0, L::Drop,
         C::AdoptRefIfPositive, false, K::None, false, false, true,
         &P::mod_switches},
        {"Rotate", 1, false, -kMaxRotateStep, kMaxRotateStep, S::Two, 2,
         L::Same, C::First, false, K::Galois, false, false, false,
         &P::key_switches},
        {"Conjugate", 1, false, 0, 0, S::Two, 2, L::Same, C::First, false,
         K::Conjugation, false, false, false, &P::key_switches},
        {"ModSwitchAdd", 2, false, 0, 0, S::Equal, 0, L::AddendAbove,
         C::First, false, K::None, false, false, false, &P::mod_switches},
        {"AdoptScale", 2, false, 0, 0, S::Any, 0, L::Same, C::AdoptRef,
         false, K::None, true, false, true, nullptr},
        {"MultiplyAcc", 2, false, 1, kMaxAccumulations, S::Two, 3, L::Equal,
         C::Product, false, K::None, false, true, false, &P::multiplies},
    }};
}();
// clang-format on

/// The row of a valid opcode (Program::validate() checks the range).
constexpr const OpSemantics &op_semantics(OpCode op) {
    return kOpSemantics[static_cast<uint8_t>(op)];
}

/// Calls `f(std::integral_constant<OpCode, op>{})`, so `f` can read the
/// row of `op` as a compile-time constant: a walk written against the
/// table then compiles to per-op code behind one indirect jump.
template <typename F>
void visit_op(OpCode op, F &&f) {
    [&]<std::size_t... I>(std::index_sequence<I...>) {
        using Thunk = void (*)(F &);
        static constexpr Thunk kThunks[] = {+[](F &g) {
            g(std::integral_constant<OpCode, static_cast<OpCode>(I)>{});
        }...};
        kThunks[static_cast<uint8_t>(op)](f);
    }(std::make_index_sequence<kMaxOpCode + 1>{});
}

/// What the caller knows about one program input.  Zero means unknown
/// (ProgramAnalyzer widens it to the full interval: size in [1, any],
/// level in [1, max_level], scale in (0, inf)).
struct InputFacts {
    std::size_t size = 0;
    std::size_t level = 0;
    double scale = 0.0;

    bool operator==(const InputFacts &) const = default;
};

/// Relative scale distance within which two scales count as one: the
/// planner repairs a gated cipher-cipher gap this small by adopting the
/// partner's scale.  (he::Session's rescale snap uses the much tighter
/// Session::snap_window(), derived from the prime chain.)
inline constexpr double kSnapTolerance = 0.25;

/// True when `a` and `b` lie within kSnapTolerance of each other, read
/// either way round (the planner's repair range).
inline bool within_snap(double a, double b) {
    const double ratio = a / b;
    return std::abs(ratio - 1.0) <= kSnapTolerance ||
           std::abs(1.0 / ratio - 1.0) <= kSnapTolerance;
}

/// The compiler's input assumptions: size 2 at `level` (0 = the context's
/// max level, and capped there) with `scale` (0 = the last data prime —
/// the session default).
inline InputFacts default_input_facts(const ckks::CkksContext &ctx,
                                      std::size_t level = 0,
                                      double scale = 0.0) {
    const std::size_t max_level = ctx.max_level();
    return {2, level > 0 ? std::min(level, max_level) : max_level,
            scale > 0.0
                ? scale
                : static_cast<double>(
                      ctx.key_modulus()[max_level - 1].value())};
}

/// Interval facts of one program value — the domain transfer() works in.
/// A point is the interval with lo == hi, on which every rule evaluates
/// the backends' own double expressions, so the compiler plans over
/// exact facts and the analyzer over wide ones with the same function.
/// Fields are the narrowest sound types, not size_t: sizes are <= 64,
/// levels fit a modulus chain (<= 255), depths are bounded by the node
/// limit (<= 2^16 nodes, so uint32_t), and the analyzer allocates one
/// per value, so width is admission-path memory traffic (32 bytes).
/// Caller-supplied facts are clamped into range on entry — sound,
/// because every in-range quantity compares identically against the
/// clamp.
struct ValueFacts {
    double scale_lo = 0.0;
    double scale_hi = 0.0;
    uint32_t depth = 0;       ///< longest op chain from the leaves
    uint32_t mult_depth = 0;  ///< multiplies along the deepest path
    uint8_t size_min = 1;
    uint8_t size_max = 1;
    uint8_t level_min = 1;
    uint8_t level_max = 1;
    bool live = false;        ///< transitively feeds an output
    /// assume_alignment analysis of an alignment node, whose facts are as
    /// the planner keeps it: the level_max the planner may leave by
    /// stripping it (0 elsewhere), and whether keeping it (with the
    /// alignment nodes behind it) drops a prime at the last level.
    uint8_t level_max_stripped = 0;
    bool drop_fails = false;

    bool size_exact() const noexcept { return size_min == size_max; }
    bool level_exact() const noexcept { return level_min == level_max; }
    bool scale_exact() const noexcept { return scale_lo == scale_hi; }
};

namespace detail {

inline bool size_can_be(const ValueFacts &f, std::size_t s) {
    return f.size_min <= s && s <= f.size_max;
}

/// Interval product that avoids 0 * inf = NaN at the unknown extremes.
inline double interval_mul(double x, double y) {
    return (x == 0.0 || y == 0.0) ? 0.0 : x * y;
}

/// Dropping one prime requires the operand at >= 2, so a successful drop
/// lands at >= 1.
inline uint8_t drop_one(uint8_t level) {
    return static_cast<uint8_t>(std::max<uint8_t>(level, 2) - 1);
}

inline void hull_scale(ValueFacts &out, const ValueFacts &a,
                       const ValueFacts &b) {
    out.scale_lo = std::min(a.scale_lo, b.scale_lo);
    out.scale_hi = std::max(a.scale_hi, b.scale_hi);
}

}  // namespace detail

/// True when no operand sizes the facts allow meet the row's size
/// contract (`b` is `a` again for unary ops) — a must-fail.  On exact
/// facts it is exactly the evaluators' size precondition.
inline bool size_must_fail(const OpSemantics &row, const ValueFacts &a,
                           const ValueFacts &b) {
    switch (row.size) {
        case SizeRule::Any: return false;
        case SizeRule::Equal:
            return a.size_max < b.size_min || b.size_max < a.size_min;
        case SizeRule::Two:
            return !detail::size_can_be(a, 2) || !detail::size_can_be(b, 2);
        case SizeRule::Three: return !detail::size_can_be(a, 3);
    }
    return false;
}

/// Writes into `out` the facts of a node with row `row` over operand
/// facts `a` and `b` (the constant's facts for a constant operand; `a`
/// again for unary ops), leaving its liveness and stripping bits alone.
/// Facts describe the result *if the op succeeds*; whether it can is the
/// consumer's check against the row.  `aligned`: the program will be
/// planned before it runs, so the result covers every alignment the
/// planner may choose at the node (the lower operand's level at a
/// level-equal op, either partner's scale at a gated op).  Inline: the
/// analyzer's walk calls it with the row as a compile-time constant
/// (visit_op), and the rules fold away.
inline void transfer(const OpSemantics &row, const ValueFacts &a,
                     const ValueFacts &b, ValueFacts &out,
                     const ckks::CkksContext &ctx, bool aligned = false) {
    // Field by field, not `out = a`: the slot's analysis bits stay, and
    // the admission walk measurably prefers the narrower stores.
    out.size_min = a.size_min;
    out.size_max = a.size_max;
    out.level_min = a.level_min;
    out.level_max = a.level_max;
    out.scale_lo = a.scale_lo;
    out.scale_hi = a.scale_hi;
    const bool binary = row.arity == 2;
    out.depth = 1 + std::max(a.depth, binary ? b.depth : 0);
    out.mult_depth = std::max(a.mult_depth, binary ? b.mult_depth : 0) +
                     (row.multiplicative ? 1 : 0);

    if (row.result_size != 0) {
        out.size_min = out.size_max = row.result_size;
    } else if (row.size == SizeRule::Equal &&
               std::max(a.size_min, b.size_min) <=
                   std::min(a.size_max, b.size_max)) {
        // Success implies equal sizes: intersect.
        out.size_min = std::max(a.size_min, b.size_min);
        out.size_max = std::min(a.size_max, b.size_max);
    }

    switch (row.level) {
        case LevelRule::Same:
        case LevelRule::AddendAbove: break;
        case LevelRule::Equal:
            if (aligned) {
                // The planner lowers the higher side.
                out.level_min = std::min(a.level_min, b.level_min);
                out.level_max = std::min(a.level_max, b.level_max);
            } else if (std::max(a.level_min, b.level_min) <=
                       std::min(a.level_max, b.level_max)) {
                out.level_min = std::max(a.level_min, b.level_min);
                out.level_max = std::min(a.level_max, b.level_max);
            }
            break;
        case LevelRule::MatchConst:
            out.level_min = out.level_max = std::max<uint8_t>(b.level_min, 1);
            break;
        case LevelRule::Drop:
            out.level_min = detail::drop_one(a.level_min);
            out.level_max = detail::drop_one(a.level_max);
            break;
    }

    switch (row.scale) {
        case ScaleRule::First:
            // At a gated cipher-cipher op the planner may adopt either
            // side's scale.
            if (aligned && row.scale_gate && !row.const_operand) {
                detail::hull_scale(out, a, b);
            }
            break;
        case ScaleRule::Product:
            out.scale_lo = detail::interval_mul(a.scale_lo, b.scale_lo);
            out.scale_hi = detail::interval_mul(a.scale_hi, b.scale_hi);
            break;
        case ScaleRule::DivDropped:
            if (a.level_exact() && a.level_min >= 2 &&
                std::size_t{a.level_min} - 1 < ctx.key_modulus().size()) {
                const double q = static_cast<double>(
                    ctx.key_modulus()[a.level_min - 1].value());
                out.scale_lo = a.scale_lo / q;
                out.scale_hi = a.scale_hi / q;
            } else {
                out.scale_lo = 0.0;
                out.scale_hi = std::numeric_limits<double>::infinity();
            }
            break;
        case ScaleRule::AdoptRef:
            out.scale_lo = b.scale_lo;
            out.scale_hi = b.scale_hi;
            break;
        case ScaleRule::AdoptRefIfPositive:
            if (!b.scale_exact()) {
                detail::hull_scale(out, a, b);
            } else if (b.scale_lo > 0.0) {
                out.scale_lo = out.scale_hi = b.scale_lo;
            }
            break;
    }
}

}  // namespace xehe::he
