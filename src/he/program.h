// he::Program — a compact, wire-serializable circuit IR over the Backend
// primitives.
//
// A program is an op list over a single value space: indices
// [0, num_inputs) are the caller's ciphertext inputs, the next
// [num_inputs, num_inputs + constants.size()) are embedded plaintext
// constants, and every node appends one ciphertext value.  `outputs`
// names the values the program returns.  Ops are the raw Backend
// primitives — the interpreter performs no automatic management, so a
// program's kernel stream (and therefore its ciphertext bits) is exactly
// the op sequence it spells out; he::Session is the managed surface.
//
// Programs serialize through the src/wire envelope (Tag::Program) and are
// the payload of serve::Op::Program requests: clients ship arbitrary
// circuits instead of picking from the fixed-function ops.  The five
// Section IV-C routines and the Section IV-E matmul tile are themselves
// the canonical programs below; the routine harness interprets those, and
// the server lowers every fixed-function request to one of them at
// admission, so there is exactly one execution path.
#pragma once

#include "he/backend.h"
#include "he/semantics.h"
#include "wire/wire.h"

namespace xehe::he {

struct Program {
    struct Node {
        OpCode op = OpCode::Add;
        uint32_t a = 0;  ///< first operand (value index)
        uint32_t b = 0;  ///< second operand; 0 and unused for unary ops
        int32_t imm = 0; ///< Rotate step, MultiplyAcc count, else 0
    };

    /// A contiguous node range [first, last) of mutually independent
    /// dyadic ops the interpreter executes as one pre-planned
    /// FusionBuilder group (one launch on a fusing GPU backend).
    struct FusionGroup {
        uint32_t first = 0;
        uint32_t last = 0;
    };

    uint32_t num_inputs = 0;
    std::vector<ckks::Plaintext> constants;
    std::vector<Node> nodes;
    std::vector<uint32_t> outputs;
    /// Transient annotation written by the compiler's fusion
    /// pre-lowering pass.  Not part of the wire format: save() skips it
    /// and load() leaves it empty, so shipped programs are re-planned on
    /// the receiving side.
    std::vector<FusionGroup> fusion_groups;

    std::size_t value_count() const noexcept {
        return num_inputs + constants.size() + nodes.size();
    }
    bool is_constant(uint32_t index) const noexcept {
        return index >= num_inputs && index < num_inputs + constants.size();
    }

    /// Structural validation: operand indices in range and already
    /// defined, cipher/plaintext kinds where each op expects them, at
    /// least one output, every output a *node* value.  An output naming
    /// an input is rejected: the interpreter would echo the caller's own
    /// handle back as if computed (and the server would serve a client's
    /// input bytes as a result), so the case is defined out.  The same
    /// node named twice in `outputs` is explicitly legal and returns the
    /// shared handle twice — CSE can merge two structurally identical
    /// output nodes into one.  Fusion-group annotations, when present,
    /// must be sorted, disjoint, in range, and cover only dyadic ops.
    /// Throws std::invalid_argument; wire loads run this before
    /// returning.
    void validate() const;

    /// Static shape report (node mix, depth, levels consumed, planned
    /// launches) — see ProgramStats.
    ProgramStats stats() const;
};

/// Marks every value some output transitively reads, walking the nodes
/// backwards; `live(v)` returns a reference to value v's flag.
template <typename Live>
void mark_live(const Program &p, Live &&live) {
    for (const uint32_t o : p.outputs) {
        live(o) = true;
    }
    const std::size_t node_base = p.num_inputs + p.constants.size();
    for (std::size_t i = p.nodes.size(); i-- > 0;) {
        if (live(node_base + i)) {
            live(p.nodes[i].a) = true;
            if (op_semantics(p.nodes[i].op).arity == 2) {
                live(p.nodes[i].b) = true;
            }
        }
    }
}

/// Structural equality: same inputs, constants (shape, scale and data),
/// nodes and outputs.  Fusion-group annotations are ignored (they are
/// derived, not semantic).
bool structurally_equal(const Program &a, const Program &b);

/// FNV-1a fingerprint over the same structure structurally_equal
/// compares — a cheap cache precheck (collisions must still be confirmed
/// with structurally_equal).
uint64_t fingerprint(const Program &program);

/// Incremental builder with index bookkeeping; `Value` is just a checked
/// value index.
class ProgramBuilder {
public:
    struct Value {
        uint32_t index;
    };

    explicit ProgramBuilder(std::size_t num_inputs);

    Value input(std::size_t i) const;
    Value constant(ckks::Plaintext plain);

    Value add(Value a, Value b) { return node(OpCode::Add, a, b); }
    Value sub(Value a, Value b) { return node(OpCode::Sub, a, b); }
    Value negate(Value a) { return node(OpCode::Negate, a); }
    Value add_plain(Value a, Value c) { return node(OpCode::AddPlain, a, c); }
    Value multiply_plain(Value a, Value c) {
        return node(OpCode::MultiplyPlain, a, c);
    }
    Value multiply(Value a, Value b) { return node(OpCode::Multiply, a, b); }
    Value square(Value a) { return node(OpCode::Square, a); }
    Value relinearize(Value a) { return node(OpCode::Relinearize, a); }
    Value rescale(Value a) { return node(OpCode::Rescale, a); }
    Value mod_switch(Value a) { return node(OpCode::ModSwitch, a); }
    Value mod_switch_adopt(Value a, Value ref) {
        return node(OpCode::ModSwitchAdopt, a, ref);
    }
    Value mod_switch_add(Value a, Value c) {
        return node(OpCode::ModSwitchAdd, a, c);
    }
    Value adopt_scale(Value a, Value ref) {
        return node(OpCode::AdoptScale, a, ref);
    }
    Value rotate(Value a, int step);
    Value multiply_acc(Value a, Value b, uint32_t count);
    Value conjugate(Value a) { return node(OpCode::Conjugate, a); }

    void output(Value v);

    /// Validates and returns the finished program.
    Program build();

private:
    Value node(OpCode op, Value a, Value b = {0});

    Program program_;
};

/// Keys the interpreter hands to key-consuming ops; a needed-but-missing
/// key throws.
struct ProgramKeys {
    const ckks::RelinKeys *relin = nullptr;
    const ckks::GaloisKeys *galois = nullptr;
};

/// Interprets `program` over `backend` on the given inputs (one Cipher
/// per program input, on that backend) and returns the output handles in
/// `program.outputs` order.  Raw execution: ops map 1:1 onto Backend
/// calls, in node order.
std::vector<Cipher> run_program(const Program &program, Backend &backend,
                                std::span<const Cipher> inputs,
                                const ProgramKeys &keys = {});

// ---------------------------------------------------------------------------
// Canonical programs of the fixed-function ops: the five Section IV-C
// routines and the Section IV-E matmul tile.  Interpreted over GpuBackend
// the routines are bit-identical to the direct GpuEvaluator routine calls
// (tests/test_he_program.cpp proves it differentially).
// ---------------------------------------------------------------------------

Program mul_lin_program();             ///< relin(a * b)
Program mul_lin_rs_program();          ///< rescale(relin(a * b))
Program sqr_lin_rs_program();          ///< rescale(relin(a^2))
Program mul_lin_rs_modsw_add_program();///< rescale(relin(a*b)) + modsw(c)
Program rotate_program(int step);      ///< rotate(a, step)
Program matmul_tile_program(uint32_t count);  ///< count copies of a*b

// ---------------------------------------------------------------------------
// Wire serialization (picked up by wire::serialize / load_enveloped via
// ADL).  Loading validates structurally and needs the context for the
// embedded plaintext constants.
// ---------------------------------------------------------------------------

void save(wire::Writer &w, const Program &program);
void load(wire::Reader &r, const ckks::CkksContext &ctx, Program &program);

Program load_program(std::span<const uint8_t> buffer,
                     const ckks::CkksContext &ctx);

}  // namespace xehe::he
