#include "he/session.h"

#include <algorithm>
#include <cmath>

#include "he/analyze.h"

namespace xehe::he {

namespace {

/// Key-generation and encryption seed.
constexpr uint64_t kSeed = 0x5EA55107;
constexpr int kRotations[] = {1};

/// `op(in0, in1)`: the managed add, sub and multiply, which run() plans
/// like any other circuit.
Program one_node_program(OpCode op) {
    Program p;
    p.num_inputs = 2;
    p.nodes.push_back({op, 0, 1, 0});
    p.outputs = {2};
    return p;
}

/// Twice the widest relative gap between a data prime and `scale`: a
/// product of two `scale` operands, rescaled by any data prime, lands
/// within it, while a real scale error (a set_scale, a foreign client
/// scale) lands far outside it and keeps its exact scale.
double snap_window_for(const ckks::CkksContext &ctx, double scale) {
    double widest = 0.0;
    for (std::size_t i = 0; i < ctx.max_level(); ++i) {
        const double q = static_cast<double>(ctx.key_modulus()[i].value());
        widest = std::max(widest, std::abs(q / scale - 1.0));
    }
    return 2.0 * widest;
}

}  // namespace

Session::Session(Backend &backend)
    : backend_(&backend), compile_cache_(backend.context()),
      scale_(default_input_facts(backend.context()).scale),
      waterline_(16.0 * scale_),
      snap_window_(snap_window_for(backend.context(), scale_)),
      encoder_(backend.context()),
      keygen_(backend.context(), kSeed),
      public_key_(keygen_.create_public_key()),
      encryptor_(backend.context(), public_key_, kSeed ^ 0xE4C12F7ull),
      decryptor_(backend.context(), keygen_.secret_key()),
      relin_(keygen_.create_relin_keys()),
      galois_(keygen_.create_galois_keys(kRotations)) {
    for (auto &entry : keygen_.create_conjugation_keys().keys) {
        galois_.keys.insert(std::move(entry));
    }
}

// ---------------------------------------------------------------------------
// Client boundary
// ---------------------------------------------------------------------------

Cipher Session::encrypt(std::span<const double> values) {
    return backend_->upload(
        encryptor_.encrypt(encoder_.encode(values, scale_)));
}

Cipher Session::encrypt(double value) {
    return backend_->upload(
        encryptor_.encrypt(encoder_.encode(value, scale_)));
}

std::vector<double> Session::decrypt(const Cipher &c, std::size_t count) {
    const auto decoded =
        encoder_.decode(decryptor_.decrypt(backend_->download(c)));
    const std::size_t n = count == 0 ? decoded.size()
                                     : std::min(count, decoded.size());
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = decoded[i].real();
    }
    return out;
}

// ---------------------------------------------------------------------------
// Automatic management
// ---------------------------------------------------------------------------

Cipher Session::as_size2(Cipher a) {
    return a.size() <= 2 ? a : backend_->relinearize(a, relin_);
}

Cipher Session::finish_product(Cipher prod) {
    prod = as_size2(std::move(prod));
    while (prod.scale() >= waterline_ && prod.level() >= 2) {
        const double divisor = static_cast<double>(
            context().key_modulus()[prod.level() - 1].value());
        // Snap to the session scale when the rescale lands within the
        // prime chain's own spread of it, so chained products keep one
        // exact scale.
        const bool snap =
            std::abs(prod.scale() / divisor / scale_ - 1.0) <= snap_window_;
        prod = backend_->rescale(prod, snap ? scale_ : 0.0);
    }
    return prod;
}

Cipher Session::run_pair(const Program &program, const Cipher &a,
                         const Cipher &b) {
    // The planner never repairs sizes: a mixed pair relinearizes its
    // size-3 side first; an equal pair (3/3 included) runs as it is.
    const bool mixed = a.size() != b.size();
    const Cipher inputs[] = {mixed ? as_size2(a) : a, mixed ? as_size2(b) : b};
    return std::move(run(program, inputs).front());
}

// ---------------------------------------------------------------------------
// Managed operations
// ---------------------------------------------------------------------------

Cipher Session::add(const Cipher &a, const Cipher &b) {
    static const Program program = one_node_program(OpCode::Add);
    return run_pair(program, a, b);
}

Cipher Session::sub(const Cipher &a, const Cipher &b) {
    static const Program program = one_node_program(OpCode::Sub);
    return run_pair(program, a, b);
}

Cipher Session::negate(const Cipher &a) {
    return backend_->negate(a);
}

Cipher Session::multiply(const Cipher &a, const Cipher &b) {
    static const Program program = one_node_program(OpCode::Multiply);
    return finish_product(run_pair(program, as_size2(a), as_size2(b)));
}

Cipher Session::square(const Cipher &a) {
    return finish_product(backend_->square(as_size2(a)));
}

Cipher Session::add(const Cipher &a, double value) {
    return backend_->add_plain(a, encoder_.encode(value, a.scale(), a.level()));
}

Cipher Session::sub(const Cipher &a, double value) {
    return add(a, -value);
}

Cipher Session::multiply(const Cipher &a, double value) {
    return finish_product(backend_->multiply_plain(
        a, encoder_.encode(value, scale_, a.level())));
}

Cipher Session::rotate(const Cipher &a, int step) {
    return backend_->rotate(as_size2(a), step, galois_);
}

Cipher Session::conjugate(const Cipher &a) {
    return backend_->conjugate(as_size2(a), galois_);
}

std::vector<Cipher> Session::run(const Program &program,
                                 std::span<const Cipher> inputs) {
    const ProgramKeys keys{&relin_, &galois_};
    std::vector<InputFacts> facts;
    facts.reserve(inputs.size());
    for (const Cipher &c : inputs) {
        facts.push_back(facts_of(c));
    }
    std::shared_ptr<const Program> compiled =
        compile_cache_.find(program, facts);
    if (!compiled) {
        AnalyzerOptions aopts;
        aopts.assume_alignment = true;
        aopts.set_keys(keys);
        aopts.snap_scale = scale_;
        AnalysisReport report =
            ProgramAnalyzer(backend_->context(), std::move(aopts))
                .analyze(program, facts);
        if (!report.ok()) {
            // Sequenced before the move: function-argument evaluation
            // order is unspecified, and summary() reads the diagnostics.
            std::string what = "he: program rejected: " + report.summary();
            throw ProgramRejected(std::move(what),
                                  std::move(report.diagnostics));
        }
        compiled = compile_cache_.insert(program, facts);
    }
    return run_program(*compiled, *backend_, inputs, keys);
}

}  // namespace xehe::he
