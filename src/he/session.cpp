#include "he/session.h"

#include <algorithm>
#include <cmath>

#include "he/analyze.h"
#include "he/compiler.h"

namespace xehe::he {

namespace {

/// The evaluators accept scales within 1e-6 relative; below this the
/// session treats scales as already equal.
constexpr double kScaleEqualTol = 1e-9;

/// Minimum scale ratio for the multiply-by-one correction: the encoded
/// correction coefficient rounds to an integer, so the applied factor
/// carries a relative error of up to 0.5/factor — 256 caps it at ~0.2%.
/// Natural gaps (a prime-to-scale ratio, ~2^10) clear this comfortably.
constexpr double kMinCorrectionFactor = 256.0;

bool close(double a, double b, double tol) {
    return std::abs(a / b - 1.0) <= tol;
}

}  // namespace

Session::Session(Backend &backend, SessionOptions options)
    : backend_(&backend), options_(std::move(options)),
      encoder_(backend.context()),
      keygen_(backend.context(), options_.seed),
      public_key_(keygen_.create_public_key()),
      encryptor_(backend.context(), public_key_,
                 options_.seed ^ 0xE4C12F7ull),
      decryptor_(backend.context(), keygen_.secret_key()) {
    const ckks::CkksContext &ctx = backend.context();
    util::require(options_.scale >= 0.0 && options_.waterline >= 0.0 &&
                      options_.snap_tolerance >= 0.0,
                  "he: negative session option");
    scale_ = options_.scale > 0.0
                 ? options_.scale
                 : static_cast<double>(
                       ctx.key_modulus()[ctx.max_level() - 1].value());
    waterline_ = options_.waterline > 0.0 ? options_.waterline : 16.0 * scale_;
    util::require(waterline_ > scale_,
                  "he: waterline must sit above the session scale");

    relin_ = keygen_.create_relin_keys();
    galois_ = keygen_.create_galois_keys(options_.rotations);
    if (options_.conjugation) {
        auto conj = keygen_.create_conjugation_keys();
        for (auto &entry : conj.keys) {
            galois_.keys.insert(std::move(entry));
        }
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

ckks::Plaintext Session::encode_const(double value, double at_scale,
                                      std::size_t level) const {
    return encoder_.encode(value, at_scale, level);
}

Cipher Session::as_size2(Cipher a) {
    if (a.size() <= 2) {
        return a;
    }
    util::require(options_.auto_relinearize,
                  "he: size-3 operand with auto-relinearize disabled");
    return backend_->relinearize(a, relin_);
}

void Session::align_levels(Cipher &a, Cipher &b) {
    // Mod-switch the higher operand down (scale is preserved).
    while (a.level() > b.level()) {
        a = backend_->mod_switch(a);
    }
    while (b.level() > a.level()) {
        b = backend_->mod_switch(b);
    }
}

void Session::align(Cipher &a, Cipher &b) {
    align_levels(a, b);
    if (close(a.scale(), b.scale(), kScaleEqualTol)) {
        return;
    }
    Cipher &low = a.scale() < b.scale() ? a : b;
    const Cipher &high = a.scale() < b.scale() ? b : a;
    const double factor = high.scale() / low.scale();
    if (factor - 1.0 <= options_.snap_tolerance) {
        // Close enough: adopt the larger scale as metadata (the relative
        // value error is the gap itself, within the session's tolerance).
        low = backend_->set_scale(low, high.scale());
    } else {
        // Genuine gap: multiply by an encoding of 1.0 at the ratio, which
        // raises the scale to match without dropping a level.  The
        // encoder rounds the correction coefficient to an integer, so the
        // applied factor is off by at most 0.5/factor — the minimum bound
        // keeps that under ~0.2%, and rules out the mid-range gaps
        // (between the snap tolerance and the bound) where neither
        // mechanism is accurate.
        util::require(factor >= kMinCorrectionFactor,
                      "he: scale gap too large to snap and too small for "
                      "an accurate multiply-by-one correction");
        low = backend_->multiply_plain(
            low, encode_const(1.0, factor, low.level()));
    }
}

Cipher Session::finish_product(Cipher prod) {
    if (options_.auto_relinearize && prod.size() > 2) {
        prod = backend_->relinearize(prod, relin_);
    }
    if (options_.auto_rescale) {
        while (prod.scale() >= waterline_ && prod.level() >= 2) {
            const std::size_t last = prod.level() - 1;
            const double divisor = static_cast<double>(
                context().key_modulus()[last].value());
            const double computed = prod.scale() / divisor;
            // Snap to the session scale when the rescale lands close to
            // it, so chained products keep one exact scale.
            const bool snap = close(computed, scale_,
                                    options_.snap_tolerance);
            prod = backend_->rescale(prod, snap ? scale_ : 0.0);
        }
    }
    return prod;
}

// ---------------------------------------------------------------------------
// Managed operations
// ---------------------------------------------------------------------------

Cipher Session::add(const Cipher &a, const Cipher &b) {
    auto [x, y] = aligned(a, b);
    return backend_->add(x, y);
}

Cipher Session::sub(const Cipher &a, const Cipher &b) {
    auto [x, y] = aligned(a, b);
    return backend_->sub(x, y);
}

Cipher Session::negate(const Cipher &a) {
    return backend_->negate(a);
}

Cipher Session::multiply(const Cipher &a, const Cipher &b) {
    Cipher x = as_size2(a);
    Cipher y = as_size2(b);
    // Levels only: multiplication is exact across unequal scales (the
    // product's scale is their product), so no snap or correction — and
    // none of the accuracy cost either.
    align_levels(x, y);
    return finish_product(backend_->multiply(x, y));
}

Cipher Session::square(const Cipher &a) {
    return finish_product(backend_->square(as_size2(a)));
}

Cipher Session::add(const Cipher &a, double value) {
    return backend_->add_plain(
        a, encode_const(value, a.scale(), a.level()));
}

Cipher Session::sub(const Cipher &a, double value) {
    return backend_->add_plain(
        a, encode_const(-value, a.scale(), a.level()));
}

Cipher Session::multiply(const Cipher &a, double value) {
    return finish_product(backend_->multiply_plain(
        a, encode_const(value, scale_, a.level())));
}

Cipher Session::rotate(const Cipher &a, int step) {
    return backend_->rotate(as_size2(a), step, galois_);
}

Cipher Session::conjugate(const Cipher &a) {
    return backend_->conjugate(as_size2(a), galois_);
}

// ---------------------------------------------------------------------------
// Raw escapes
// ---------------------------------------------------------------------------

Cipher Session::relinearize(const Cipher &a) {
    return backend_->relinearize(a, relin_);
}

Cipher Session::rescale(const Cipher &a) {
    return backend_->rescale(a);
}

Cipher Session::mod_switch(const Cipher &a) {
    return backend_->mod_switch(a);
}

Cipher Session::set_scale(const Cipher &a, double scale) {
    return backend_->set_scale(a, scale);
}

std::pair<Cipher, Cipher> Session::aligned(const Cipher &a, const Cipher &b) {
    Cipher x = a;
    Cipher y = b;
    // Equal sizes add as-is (including a 3/3 pair when auto-relinearize
    // is off); mixed sizes are reconciled by relinearizing the size-3 one.
    if (x.size() != y.size()) {
        x = as_size2(std::move(x));
        y = as_size2(std::move(y));
    }
    align(x, y);
    return {std::move(x), std::move(y)};
}

std::vector<Cipher> Session::run(const Program &program,
                                 std::span<const Cipher> inputs) {
    ProgramKeys keys;
    keys.relin = &relin_;
    keys.galois = &galois_;
    // The planner assumes one level and scale for every input, so it only
    // runs when the inputs share theirs; otherwise the program must run as
    // written and the analyzer checks it strictly.
    const bool uniform = std::all_of(
        inputs.begin(), inputs.end(), [&](const Cipher &c) {
            return c.level() == inputs[0].level() &&
                   c.scale() == inputs[0].scale();
        });
    const bool compile = options_.compile_programs && uniform;
    const std::size_t level = inputs.empty() ? 0 : inputs[0].level();
    const double scale = inputs.empty() ? scale_ : inputs[0].scale();
    if (options_.analyze_programs) {
        AnalyzerOptions aopts;
        aopts.assume_alignment = compile;
        aopts.set_keys(keys);
        aopts.snap_scale = scale_;
        aopts.snap_tolerance = options_.snap_tolerance;
        std::vector<InputFacts> facts;
        facts.reserve(inputs.size());
        for (const Cipher &c : inputs) {
            facts.push_back(facts_of(c));
        }
        ProgramAnalyzer analyzer(backend_->context(), std::move(aopts));
        AnalysisReport report = analyzer.analyze(program, facts);
        if (!report.ok()) {
            // Sequenced before the move: function-argument evaluation
            // order is unspecified, and summary() reads the diagnostics.
            std::string what = "he: program rejected: " + report.summary();
            throw ProgramRejected(std::move(what),
                                  std::move(report.diagnostics));
        }
    }
    if (!compile) {
        return run_program(program, *backend_, inputs, keys);
    }

    const uint64_t fp = fingerprint(program);
    for (const auto &entry : compiled_cache_) {
        if (entry.fingerprint == fp && entry.level == level &&
            entry.scale == scale && structurally_equal(entry.source, program)) {
            return run_program(*entry.compiled, *backend_, inputs, keys);
        }
    }
    CompilerOptions copts;
    copts.snap_tolerance = options_.snap_tolerance;
    copts.input_level = level;
    copts.input_scale = scale;
    ProgramCompiler compiler(backend_->context(), copts);
    auto compiled =
        std::make_shared<const Program>(compiler.compile(program).program);
    constexpr std::size_t kCacheCap = 64;
    if (compiled_cache_.size() >= kCacheCap) {
        compiled_cache_.clear();
    }
    compiled_cache_.push_back({fp, level, scale, program, compiled});
    return run_program(*compiled, *backend_, inputs, keys);
}

}  // namespace xehe::he
