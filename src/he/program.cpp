#include "he/program.h"

#include <algorithm>
#include <cstring>
#include <string>

namespace xehe::he {

namespace {

// Wire-level sanity bounds: generous for real circuits, tight enough that
// a corrupt length field cannot drive allocation or validation cost.
constexpr std::size_t kMaxInputs = 64;
constexpr std::size_t kMaxConstants = 1024;
constexpr std::size_t kMaxNodes = 1 << 16;
constexpr std::size_t kMaxOutputs = 64;

void check(bool condition, const char *what) {
    if (!condition) {
        throw std::invalid_argument(std::string("he: ") + what);
    }
}

}  // namespace

void Program::validate() const {
    check(num_inputs <= kMaxInputs, "too many program inputs");
    check(constants.size() <= kMaxConstants, "too many program constants");
    check(nodes.size() <= kMaxNodes, "too many program nodes");
    check(!outputs.empty(), "program has no outputs");
    check(outputs.size() <= kMaxOutputs, "too many program outputs");

    const uint32_t const_base = num_inputs;
    const uint32_t node_base =
        const_base + static_cast<uint32_t>(constants.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const Node &node = nodes[i];
        const uint32_t defined = node_base + static_cast<uint32_t>(i);
        check(static_cast<uint8_t>(node.op) <= kMaxOpCode, "bad opcode");
        check(node.a < defined, "operand references an undefined value");
        check(!is_constant(node.a), "first operand must be a ciphertext");
        const OpSemantics &row = op_semantics(node.op);
        if (row.arity == 2) {
            check(node.b < defined, "operand references an undefined value");
            check(is_constant(node.b) == row.const_operand,
                  row.const_operand ? "second operand must be a constant"
                                    : "second operand must be a ciphertext");
        } else {
            check(node.b == 0, "unary op with a second operand");
        }
        check(node.imm >= row.imm_min && node.imm <= row.imm_max,
              row.imm_max == 0 ? "immediate on an op that takes none"
                               : "immediate out of range");
    }
    for (const uint32_t out : outputs) {
        check(out < value_count(), "output references an undefined value");
        check(!is_constant(out), "output must be a ciphertext value");
        // An output must name a computed node: echoing an input back as a
        // result is defined out (the interpreter would return the
        // caller's own handle, and the server would serve request bytes
        // back as a "result").  Duplicate output entries, by contrast,
        // are legal: they return the same shared handle twice, which CSE
        // relies on when it merges structurally identical output nodes.
        check(out >= node_base, "output must name a computed node, "
                                "not a program input");
    }
    // Fusion-group annotations are derived (compiler-written), but a
    // malformed annotation would make the interpreter open unbalanced or
    // non-dyadic FusionBuilder groups — validate them like everything
    // else.
    uint32_t previous_end = 0;
    for (const FusionGroup &group : fusion_groups) {
        check(group.first >= previous_end, "fusion groups must be sorted "
                                           "and disjoint");
        check(group.first < group.last, "empty fusion group");
        check(group.last <= nodes.size(), "fusion group out of range");
        for (uint32_t i = group.first; i < group.last; ++i) {
            check(op_semantics(nodes[i].op).dyadic,
                  "fusion group covers a non-dyadic op");
        }
        previous_end = group.last;
    }
}

ProgramStats Program::stats() const {
    ProgramStats s;
    s.nodes = nodes.size();
    s.constants = constants.size();
    s.outputs = outputs.size();
    s.fusion_groups = fusion_groups.size();
    s.planned_launches = nodes.size();
    for (const FusionGroup &group : fusion_groups) {
        s.planned_launches -= (group.last - group.first) - 1;
    }

    // Depth and level drops per value, relative to the inputs (constants
    // sit wherever their embedded level puts them; they contribute no
    // drops of their own).
    const uint32_t node_base =
        num_inputs + static_cast<uint32_t>(constants.size());
    std::vector<std::size_t> depth(value_count(), 0);
    std::vector<std::size_t> drop(value_count(), 0);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const Node &node = nodes[i];
        const OpSemantics &row = op_semantics(node.op);
        const uint32_t v = node_base + static_cast<uint32_t>(i);
        const bool binary_cipher = row.arity == 2 && !row.const_operand;
        depth[v] = 1 + std::max(depth[node.a],
                                binary_cipher ? depth[node.b] : 0);
        if (row.stat != nullptr) {
            ++(s.*row.stat);
        }
        if (row.level == LevelRule::Drop) {
            drop[v] = drop[node.a] + 1;
        } else if (row.level == LevelRule::AddendAbove) {
            // Result stays at a's level; the addend c drops one.
            drop[v] = std::max(drop[node.a], drop[node.b] + 1);
        } else {
            drop[v] = binary_cipher ? std::max(drop[node.a], drop[node.b])
                                    : drop[node.a];
        }
    }
    for (const uint32_t out : outputs) {
        s.depth = std::max(s.depth, depth[out]);
        s.levels_consumed = std::max(s.levels_consumed, drop[out]);
    }
    return s;
}

bool structurally_equal(const Program &a, const Program &b) {
    if (a.num_inputs != b.num_inputs || a.outputs != b.outputs ||
        a.nodes.size() != b.nodes.size() ||
        a.constants.size() != b.constants.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.nodes.size(); ++i) {
        const Program::Node &x = a.nodes[i], &y = b.nodes[i];
        if (x.op != y.op || x.a != y.a || x.b != y.b || x.imm != y.imm) {
            return false;
        }
    }
    for (std::size_t i = 0; i < a.constants.size(); ++i) {
        const ckks::Plaintext &p = a.constants[i], &q = b.constants[i];
        if (p.n != q.n || p.rns != q.rns || p.scale != q.scale ||
            p.ntt_form != q.ntt_form || p.data != q.data) {
            return false;
        }
    }
    return true;
}

uint64_t fingerprint(const Program &program) {
    uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](uint64_t v) {
        for (int shift = 0; shift < 64; shift += 8) {
            h = (h ^ ((v >> shift) & 0xff)) * 0x100000001b3ull;
        }
    };
    mix(program.num_inputs);
    mix(program.constants.size());
    for (const auto &plain : program.constants) {
        mix(plain.rns);
        uint64_t scale_bits;
        static_assert(sizeof(scale_bits) == sizeof(plain.scale));
        std::memcpy(&scale_bits, &plain.scale, sizeof(scale_bits));
        mix(scale_bits);
        for (const uint64_t word : plain.data) {
            mix(word);
        }
    }
    mix(program.nodes.size());
    for (const auto &node : program.nodes) {
        mix(static_cast<uint64_t>(node.op));
        mix(node.a);
        mix(node.b);
        mix(static_cast<uint64_t>(static_cast<uint32_t>(node.imm)));
    }
    for (const uint32_t out : program.outputs) {
        mix(out);
    }
    return h;
}

// ---------------------------------------------------------------------------
// ProgramBuilder
// ---------------------------------------------------------------------------

ProgramBuilder::ProgramBuilder(std::size_t num_inputs) {
    check(num_inputs <= kMaxInputs, "too many program inputs");
    program_.num_inputs = static_cast<uint32_t>(num_inputs);
}

ProgramBuilder::Value ProgramBuilder::input(std::size_t i) const {
    check(i < program_.num_inputs, "program input index out of range");
    return Value{static_cast<uint32_t>(i)};
}

ProgramBuilder::Value ProgramBuilder::constant(ckks::Plaintext plain) {
    check(program_.nodes.empty(),
          "constants must be declared before the first node");
    check(program_.constants.size() < kMaxConstants,
          "too many program constants");
    program_.constants.push_back(std::move(plain));
    return Value{program_.num_inputs +
                 static_cast<uint32_t>(program_.constants.size()) - 1};
}

ProgramBuilder::Value ProgramBuilder::node(OpCode op, Value a, Value b) {
    Program::Node node;
    node.op = op;
    node.a = a.index;
    node.b = op_semantics(op).arity == 2 ? b.index : 0;
    program_.nodes.push_back(node);
    return Value{program_.num_inputs +
                 static_cast<uint32_t>(program_.constants.size()) +
                 static_cast<uint32_t>(program_.nodes.size()) - 1};
}

ProgramBuilder::Value ProgramBuilder::rotate(Value a, int step) {
    Value v = node(OpCode::Rotate, a);
    program_.nodes.back().imm = step;
    return v;
}

ProgramBuilder::Value ProgramBuilder::multiply_acc(Value a, Value b,
                                                   uint32_t count) {
    Value v = node(OpCode::MultiplyAcc, a, b);
    // A count past INT32_MAX wraps negative; validate() rejects it.
    program_.nodes.back().imm = static_cast<int32_t>(count);
    return v;
}

void ProgramBuilder::output(Value v) {
    program_.outputs.push_back(v.index);
}

Program ProgramBuilder::build() {
    program_.validate();
    return std::move(program_);
}

// ---------------------------------------------------------------------------
// Interpreter
// ---------------------------------------------------------------------------

std::vector<Cipher> run_program(const Program &program, Backend &backend,
                                std::span<const Cipher> inputs,
                                const ProgramKeys &keys) {
    program.validate();
    util::require(inputs.size() == program.num_inputs,
                  "he: program input count mismatch");

    const uint32_t const_base = program.num_inputs;
    const uint32_t node_base =
        const_base + static_cast<uint32_t>(program.constants.size());
    // One slot per value; constant slots stay empty (validate() guarantees
    // they are only reached through plain-operand positions).
    std::vector<Cipher> values(program.value_count());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        values[i] = inputs[i];
    }
    // Liveness: release each ciphertext after its last consumer, so the
    // interpreter's footprint is the program's live width, not its length
    // — a wire-bounds program (64K chained nodes) must not hold 64K
    // ciphertexts (and OOM the server) when only a handful are live.
    constexpr std::size_t kKeep = static_cast<std::size_t>(-1);
    std::vector<std::size_t> last_use(program.value_count(), 0);
    for (std::size_t i = 0; i < program.nodes.size(); ++i) {
        last_use[program.nodes[i].a] = i + 1;
        if (op_semantics(program.nodes[i].op).arity == 2) {
            last_use[program.nodes[i].b] = i + 1;
        }
    }
    for (const uint32_t out : program.outputs) {
        last_use[out] = kKeep;
    }
    const auto plain_at = [&](uint32_t index) -> const ckks::Plaintext & {
        return program.constants[index - const_base];
    };
    const auto relin = [&]() -> const ckks::RelinKeys & {
        util::require(keys.relin != nullptr,
                      "he: program needs relinearization keys");
        return *keys.relin;
    };
    const auto galois = [&]() -> const ckks::GaloisKeys & {
        util::require(keys.galois != nullptr, "he: program needs galois keys");
        return *keys.galois;
    };

    // Pre-planned fusion groups: the compiler's dyadic runs execute
    // inside one backend fusion group (one launch on a fusing GPU
    // backend).  While a group is open, operand releases are deferred —
    // the recorded kernel bodies read the operand buffers only when the
    // group submits, and an early release would let the memory cache
    // recycle them underneath the launch.
    std::size_t next_group = 0;
    bool in_group = false;
    // If a backend op throws mid-group (shape/scale preconditions), the
    // group must still be closed on the way out or the backend's recorder
    // would leak into the caller's next program.
    struct GroupGuard {
        Backend *backend;
        const bool *open;
        ~GroupGuard() {
            if (*open) {
                backend->end_fusion_group();
            }
        }
    } group_guard{&backend, &in_group};
    std::vector<uint32_t> deferred_releases;
    const auto release = [&](uint32_t index) {
        if (in_group) {
            deferred_releases.push_back(index);
        } else {
            values[index] = Cipher{};
        }
    };

    for (std::size_t i = 0; i < program.nodes.size(); ++i) {
        if (next_group < program.fusion_groups.size() &&
            i == program.fusion_groups[next_group].first) {
            backend.begin_fusion_group();
            in_group = true;
        }
        const Program::Node &node = program.nodes[i];
        const Cipher &a = values[node.a];
        Cipher out;
        switch (node.op) {
            case OpCode::Add:
                out = backend.add(a, values[node.b]);
                break;
            case OpCode::Sub:
                out = backend.sub(a, values[node.b]);
                break;
            case OpCode::Negate:
                out = backend.negate(a);
                break;
            case OpCode::AddPlain:
                out = backend.add_plain(a, plain_at(node.b));
                break;
            case OpCode::MultiplyPlain:
                out = backend.multiply_plain(a, plain_at(node.b));
                break;
            case OpCode::Multiply:
                out = backend.multiply(a, values[node.b]);
                break;
            case OpCode::Square:
                out = backend.square(a);
                break;
            case OpCode::Relinearize:
                out = backend.relinearize(a, relin());
                break;
            case OpCode::Rescale:
                out = backend.rescale(a);
                break;
            case OpCode::ModSwitch:
                out = backend.mod_switch(a);
                break;
            case OpCode::ModSwitchAdopt:
                out = backend.mod_switch(a, values[node.b].scale());
                break;
            case OpCode::ModSwitchAdd:
                out = backend.mod_switch_add(a, values[node.b]);
                break;
            case OpCode::AdoptScale:
                out = backend.set_scale(a, values[node.b].scale());
                break;
            case OpCode::Rotate:
                out = backend.rotate(a, node.imm, galois());
                break;
            case OpCode::Conjugate:
                out = backend.conjugate(a, galois());
                break;
            case OpCode::MultiplyAcc:
                out = backend.multiply_acc(a, values[node.b],
                                           static_cast<uint64_t>(node.imm));
                break;
        }
        values[node_base + i] = std::move(out);
        // Drop operands this node consumed last, and the result itself if
        // nothing (and no output) ever reads it.
        if (last_use[node.a] == i + 1) {
            release(node.a);
        }
        if (op_semantics(node.op).arity == 2 && last_use[node.b] == i + 1) {
            release(node.b);
        }
        if (last_use[node_base + i] == 0) {
            release(node_base + static_cast<uint32_t>(i));
        }
        if (in_group && i + 1 == program.fusion_groups[next_group].last) {
            backend.end_fusion_group();
            in_group = false;
            ++next_group;
            for (const uint32_t index : deferred_releases) {
                values[index] = Cipher{};
            }
            deferred_releases.clear();
        }
    }

    std::vector<Cipher> outputs;
    outputs.reserve(program.outputs.size());
    for (const uint32_t out : program.outputs) {
        outputs.push_back(values[out]);
    }
    return outputs;
}

// ---------------------------------------------------------------------------
// Canonical routine programs (Section IV-C)
// ---------------------------------------------------------------------------

Program mul_lin_program() {
    ProgramBuilder b(2);
    b.output(b.relinearize(b.multiply(b.input(0), b.input(1))));
    return b.build();
}

Program mul_lin_rs_program() {
    ProgramBuilder b(2);
    b.output(b.rescale(b.relinearize(b.multiply(b.input(0), b.input(1)))));
    return b.build();
}

Program sqr_lin_rs_program() {
    ProgramBuilder b(1);
    b.output(b.rescale(b.relinearize(b.square(b.input(0)))));
    return b.build();
}

Program mul_lin_rs_modsw_add_program() {
    ProgramBuilder b(3);
    const auto prod =
        b.rescale(b.relinearize(b.multiply(b.input(0), b.input(1))));
    // The fused tail: the addend mod-switches down, adopts the product's
    // scale (the routine's approximate-scale bookkeeping), and adds — one
    // launch on the GPU backend, no materialized intermediate.
    b.output(b.mod_switch_add(prod, b.input(2)));
    return b.build();
}

Program rotate_program(int step) {
    ProgramBuilder b(1);
    b.output(b.rotate(b.input(0), step));
    return b.build();
}

Program matmul_tile_program(uint32_t count) {
    ProgramBuilder b(2);
    b.output(b.multiply_acc(b.input(0), b.input(1), count));
    return b.build();
}

// ---------------------------------------------------------------------------
// Wire serialization
// ---------------------------------------------------------------------------

void save(wire::Writer &w, const Program &program) {
    w.u8(static_cast<uint8_t>(wire::Tag::Program));
    w.u32(program.num_inputs);
    w.u32(static_cast<uint32_t>(program.constants.size()));
    for (const auto &plain : program.constants) {
        wire::save(w, plain);
    }
    w.u32(static_cast<uint32_t>(program.nodes.size()));
    for (const auto &node : program.nodes) {
        w.u8(static_cast<uint8_t>(node.op));
        w.u32(node.a);
        w.u32(node.b);
        w.u32(static_cast<uint32_t>(node.imm));
    }
    w.u32(static_cast<uint32_t>(program.outputs.size()));
    for (const uint32_t out : program.outputs) {
        w.u32(out);
    }
}

void load(wire::Reader &r, const ckks::CkksContext &ctx, Program &program) {
    const auto fail = [](const char *what) -> void {
        throw wire::WireError(std::string("wire: ") + what);
    };
    if (r.u8() != static_cast<uint8_t>(wire::Tag::Program)) {
        fail("expected Program");
    }
    program = Program{};
    program.num_inputs = r.u32();
    const uint32_t const_count = r.u32();
    if (const_count > kMaxConstants) {
        fail("bad program constant count");
    }
    program.constants.resize(const_count);
    for (auto &plain : program.constants) {
        wire::load(r, ctx, plain);
    }
    const uint32_t node_count = r.u32();
    if (node_count > kMaxNodes) {
        fail("bad program node count");
    }
    program.nodes.resize(node_count);
    for (auto &node : program.nodes) {
        node.op = static_cast<OpCode>(r.u8());
        node.a = r.u32();
        node.b = r.u32();
        node.imm = static_cast<int32_t>(r.u32());
    }
    const uint32_t output_count = r.u32();
    if (output_count > kMaxOutputs) {
        fail("bad program output count");
    }
    program.outputs.resize(output_count);
    for (auto &out : program.outputs) {
        out = r.u32();
    }
    // Structural validation behind the same typed error the rest of the
    // wire layer throws: a corrupt program never reaches the interpreter.
    try {
        program.validate();
    } catch (const std::exception &e) {
        throw wire::WireError(std::string("wire: invalid program: ") +
                              e.what());
    }
}

Program load_program(std::span<const uint8_t> buffer,
                     const ckks::CkksContext &ctx) {
    return wire::load_enveloped<Program>(buffer, ctx);
}

}  // namespace xehe::he
