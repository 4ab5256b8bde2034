// he::ProgramAnalyzer — static verification of he::Program circuits.
//
// An abstract interpreter over the Program IR: it runs the op list once,
// forward, carrying per-value interval facts (ciphertext size, level,
// scale, depth) instead of ciphertexts, and emits typed Diagnostics for
// everything the real interpreter would throw on — level underflow past
// the modulus chain, operand level/scale/size mismatches, rotations with
// no matching galois key — plus advisory warnings (dead nodes, size-3
// ciphertexts flowing past relinearization, rescale results drifting off
// the snap scale, multiplicative depth beyond the parameter budget).
//
// Soundness contract.  An *error* diagnostic means the node MUST fail for
// every concrete value allowed by the operand intervals, so a rejected
// program is guaranteed to throw when executed (the interpreter runs all
// nodes in order; the first must-fail node reached throws).  With exact
// input facts (strict mode, point intervals) the analysis is also
// complete.  It holds no op rules of its own: result facts come from
// he/semantics.h's transfer() over an interval domain, and each check is
// derived from the op's row there — the same rows the evaluators'
// preconditions are stated in, with the scale gate evaluated by the
// evaluators' own ckks::scales_match on the same doubles.  So accept <=>
// clean execution, which tests/test_he_analyze.cpp checks op by op and
// tests/test_he_compiler_fuzz.cpp holds differentially.
//
// Two modes:
//  * strict (default): facts mirror the raw interpreter.  Use with exact
//    input facts for precise accept/reject, or with unknown facts (wide
//    intervals) for a conservative front-door check.
//  * assume_alignment: the program will go through ProgramCompiler with
//    planning enabled before running.  The planner strips alignment ops
//    and repairs level gaps and scale gaps within kSnapTolerance, so only
//    defects it provably cannot repair are errors, and only on nodes that
//    survive DCE (dead nodes cannot fail at run time).  With exact input
//    facts an accept means the program compiles.
#pragma once

#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "he/program.h"

namespace xehe::he {

enum class Severity : uint8_t {
    Warning = 0,  ///< advisory; never fails analysis
    Error = 1,    ///< the program cannot execute cleanly
};

enum class DiagKind : uint8_t {
    Malformed = 0,          ///< Program::validate() failure
    OutputAliasesInput = 1, ///< an output names a program input
    LevelMismatch = 2,      ///< operand levels can never agree
    LevelUnderflow = 3,     ///< rescale/mod-switch below one prime
    SizeMismatch = 4,       ///< operand sizes violate the op's contract
    ScaleMismatch = 5,      ///< operand scales can never pass the 1e-6 gate
    MissingKey = 6,         ///< relin/galois keys absent (or too short)
    MissingRotation = 7,    ///< no galois key for this step's element
    DeadNode = 8,           ///< result never reaches an output
    OversizeCipher = 9,     ///< size-3 ciphertext past a non-relinearize op
    ScaleDrift = 10,        ///< rescale result outside the snap range
    DepthBudget = 11,       ///< multiplicative depth exceeds the levels
};

const char *diag_kind_name(DiagKind kind);

struct Diagnostic {
    /// `node` value for program-level diagnostics (no single node).
    static constexpr uint32_t kProgram = 0xffffffffu;

    Severity severity = Severity::Error;
    DiagKind kind = DiagKind::Malformed;
    uint32_t node = kProgram;  ///< node index into Program::nodes
    OpCode op = OpCode::Add;   ///< meaningful when node != kProgram
    std::string message;
};

/// Exact facts of a live handle.
InputFacts facts_of(const Cipher &cipher);

/// Facts of every value of `program`, sized for a forward walk: the
/// inputs from `inputs` (one per input, or one for all), widened where
/// unknown; each constant exact at its embedded level and scale; node
/// slots default-initialized.
std::vector<ValueFacts> leaf_facts(const Program &program,
                                   std::span<const InputFacts> inputs,
                                   std::size_t max_level);

struct AnalyzerOptions {
    /// The program will be compiled with planning before execution; see
    /// the mode notes above.
    bool assume_alignment = false;

    /// Skip the Program::validate() structural pass.  Only set when the
    /// program provably validated already — wire::load_program validates
    /// on decode, so server admission re-checking it would walk the nodes
    /// twice.  On an unvalidated program the fact walk indexes out of the
    /// value space; the default re-validates.
    bool assume_validated = false;

    /// Collect error diagnostics only: advisory warnings (dead nodes,
    /// oversize ciphertexts, scale drift, depth budget) are neither
    /// computed nor recorded.  The admission front door sets this — it
    /// acts on ok() and the first error, so building warning messages
    /// per request is pure overhead there.  Liveness goes lazy too: the
    /// backward pass runs only if an error needs it (aligned mode must
    /// suppress errors on DCE-dead nodes), so on a clean accept the
    /// report's `values[].live` bits are left unset.
    bool errors_only = false;

    /// nullopt = unknown (assume present): relinearization keys, and the
    /// level depth they cover (evaluator: key.keys.size() >= rns).
    std::optional<bool> relin_keys;
    std::optional<std::size_t> relin_levels;
    /// nullopt = unknown.  `galois_elts` lists the *galois elements* (not
    /// steps) keys exist for, mirroring GaloisKeys::has(); `galois_levels`
    /// is the level depth the shortest of them covers (a key set mixing
    /// lengths is judged by its shortest key).
    std::optional<bool> galois_keys;
    std::optional<std::vector<uint64_t>> galois_elts;
    std::optional<std::size_t> galois_levels;

    /// When > 0, Rescale results outside kSnapTolerance of snap_scale get
    /// a ScaleDrift warning (advisory only).
    double snap_scale = 0.0;

    /// Fills the key fields from the interpreter's key set.
    void set_keys(const ProgramKeys &keys);
};

struct AnalysisReport {
    std::vector<Diagnostic> diagnostics;
    /// Per-value facts, indexed like the program's value space; empty
    /// when structural validation failed before the fact walk.
    std::vector<ValueFacts> values;
    /// Deepest multiply chain feeding any output.
    std::size_t mult_depth = 0;

    bool ok() const noexcept;
    const Diagnostic *first_error() const noexcept;
    std::size_t error_count() const noexcept;
    std::size_t warning_count() const noexcept;
    /// "node 3 (Multiply): SizeMismatch: ..." — first error, or empty.
    std::string summary() const;
};

/// Thrown by the analyzing entry points (Session::run pre-check, server
/// admission) when a program is statically rejected.  Derives from
/// std::invalid_argument so existing catch sites keep working.
class ProgramRejected : public std::invalid_argument {
public:
    ProgramRejected(const std::string &what, std::vector<Diagnostic> diags)
        : std::invalid_argument(what), diagnostics_(std::move(diags)) {}

    const std::vector<Diagnostic> &diagnostics() const noexcept {
        return diagnostics_;
    }

private:
    std::vector<Diagnostic> diagnostics_;
};

class ProgramAnalyzer {
public:
    explicit ProgramAnalyzer(const ckks::CkksContext &context,
                             AnalyzerOptions options = {});

    const AnalyzerOptions &options() const noexcept { return options_; }

    /// Analyzes with one InputFacts per program input.
    AnalysisReport analyze(const Program &program,
                           std::span<const InputFacts> inputs) const;
    /// One InputFacts applied to every program input (the admission
    /// shape: the server knows the serving level, nothing per-input),
    /// with no per-call facts allocation.
    AnalysisReport analyze(const Program &program,
                           const InputFacts &uniform) const;
    /// Planner-default facts: size 2, max level, last-prime scale — the
    /// assumptions ProgramCompiler plans against.
    AnalysisReport analyze(const Program &program) const;

private:
    /// `broadcast`: `inputs` holds one element applied to every program
    /// input (the uniform overloads — no per-call facts allocation).
    AnalysisReport analyze_impl(const Program &program,
                                std::span<const InputFacts> inputs,
                                bool broadcast) const;

    const ckks::CkksContext *context_;
    AnalyzerOptions options_;
};

}  // namespace xehe::he
