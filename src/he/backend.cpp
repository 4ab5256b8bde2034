#include "he/backend.h"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string_view>

#include "util/mutex.h"

namespace xehe::he {

namespace {

std::set<std::string> parse_disabled_env() {
    const char *env = std::getenv("XEHE_DISABLE_BACKENDS");
    const std::string_view list = env != nullptr ? env : "";
    std::set<std::string> names;
    for (std::size_t pos = 0; pos < list.size();) {
        const std::size_t end =
            std::min(list.find_first_of(",; \t", pos), list.size());
        if (end > pos) {
            names.emplace(list.substr(pos, end - pos));
        }
        pos = end + 1;
    }
    return names;
}

struct DisableSwitch {
    util::Mutex mutex;
    std::set<std::string> names GUARDED_BY(mutex) = parse_disabled_env();
};

DisableSwitch &disable_switch() {
    static DisableSwitch instance;
    return instance;
}

}  // namespace

bool backend_disabled(const std::string &name) {
    DisableSwitch &sw = disable_switch();
    const util::MutexLock lock(sw.mutex);
    return sw.names.count(name) != 0;
}

void set_backend_disabled(const std::string &name, bool disabled) {
    DisableSwitch &sw = disable_switch();
    const util::MutexLock lock(sw.mutex);
    if (disabled) {
        sw.names.insert(name);
    } else {
        sw.names.erase(name);
    }
}

void require_backend(const std::string &name) {
    if (backend_disabled(name)) {
        throw BackendUnavailable(
            name, "disabled (XEHE_DISABLE_BACKENDS or set_backend_disabled)");
    }
}

Cipher Backend::multiply_acc(const Cipher &a, const Cipher &b,
                             uint64_t count) {
    util::require(count >= 1, "he: multiply_acc needs count >= 1");
    const Cipher product = multiply(a, b);
    Cipher acc = product;
    for (uint64_t t = 1; t < count; ++t) {
        acc = add(acc, product);
    }
    return acc;
}

// ---------------------------------------------------------------------------
// HostBackend
// ---------------------------------------------------------------------------

Cipher HostBackend::wrap(ckks::Ciphertext ct) {
    const std::size_t size = ct.size;
    const std::size_t level = ct.rns;
    const double scale = ct.scale;
    return make_cipher(
        std::make_shared<const ckks::Ciphertext>(std::move(ct)), size, level,
        scale);
}

Cipher HostBackend::add(const Cipher &a, const Cipher &b) {
    return wrap(evaluator_.add(native(a), native(b)));
}

Cipher HostBackend::sub(const Cipher &a, const Cipher &b) {
    return wrap(evaluator_.sub(native(a), native(b)));
}

Cipher HostBackend::negate(const Cipher &a) {
    return wrap(evaluator_.negate(native(a)));
}

Cipher HostBackend::add_plain(const Cipher &a, const ckks::Plaintext &p) {
    return wrap(evaluator_.add_plain(native(a), p));
}

Cipher HostBackend::multiply_plain(const Cipher &a, const ckks::Plaintext &p) {
    return wrap(evaluator_.multiply_plain(native(a), p));
}

Cipher HostBackend::multiply(const Cipher &a, const Cipher &b) {
    return wrap(evaluator_.multiply(native(a), native(b)));
}

Cipher HostBackend::square(const Cipher &a) {
    return wrap(evaluator_.square(native(a)));
}

Cipher HostBackend::relinearize(const Cipher &a, const ckks::RelinKeys &keys) {
    return wrap(evaluator_.relinearize(native(a), keys));
}

Cipher HostBackend::rescale(const Cipher &a, double snap_scale) {
    ckks::Ciphertext out = evaluator_.rescale(native(a));
    if (snap_scale > 0.0) {
        out.scale = snap_scale;
    }
    return wrap(std::move(out));
}

Cipher HostBackend::mod_switch(const Cipher &a, double adopt_scale) {
    ckks::Ciphertext out = evaluator_.mod_switch(native(a));
    if (adopt_scale > 0.0) {
        out.scale = adopt_scale;
    }
    return wrap(std::move(out));
}

Cipher HostBackend::mod_switch_add(const Cipher &a, const Cipher &c) {
    ckks::Ciphertext down = evaluator_.mod_switch(native(c));
    down.scale = native(a).scale;
    return wrap(evaluator_.add(native(a), down));
}

Cipher HostBackend::rotate(const Cipher &a, int step,
                           const ckks::GaloisKeys &keys) {
    return wrap(evaluator_.rotate(native(a), step, keys));
}

Cipher HostBackend::conjugate(const Cipher &a, const ckks::GaloisKeys &keys) {
    return wrap(evaluator_.conjugate(native(a), keys));
}

Cipher HostBackend::set_scale(const Cipher &a, double scale) {
    ckks::Ciphertext out = native(a);
    out.scale = scale;
    return wrap(std::move(out));
}

Cipher HostBackend::upload(const ckks::Ciphertext &ct) {
    return wrap(ct);
}

ckks::Ciphertext HostBackend::download(const Cipher &a) {
    return native(a);
}

// ---------------------------------------------------------------------------
// GpuBackend
// ---------------------------------------------------------------------------

Cipher GpuBackend::adopt(core::GpuCiphertext ct) {
    const std::size_t size = ct.size;
    const std::size_t level = ct.rns;
    const double scale = ct.scale;
    return make_cipher(
        std::make_shared<const core::GpuCiphertext>(std::move(ct)), size,
        level, scale);
}

Cipher GpuBackend::wrap(const core::GpuCiphertext &ct) {
    // Aliasing handle: no ownership, no copy; the caller guarantees `ct`
    // outlives every handle derived from it.
    return make_cipher(
        std::shared_ptr<const core::GpuCiphertext>(
            std::shared_ptr<const void>(), &ct),
        ct.size, ct.rns, ct.scale);
}

Cipher GpuBackend::add(const Cipher &a, const Cipher &b) {
    return adopt(evaluator_->add(native(a), native(b)));
}

Cipher GpuBackend::sub(const Cipher &a, const Cipher &b) {
    return adopt(evaluator_->sub(native(a), native(b)));
}

Cipher GpuBackend::negate(const Cipher &a) {
    return adopt(evaluator_->negate(native(a)));
}

Cipher GpuBackend::add_plain(const Cipher &a, const ckks::Plaintext &p) {
    return adopt(evaluator_->add_plain(native(a), p));
}

Cipher GpuBackend::multiply_plain(const Cipher &a, const ckks::Plaintext &p) {
    return adopt(evaluator_->multiply_plain(native(a), p));
}

Cipher GpuBackend::multiply(const Cipher &a, const Cipher &b) {
    return adopt(evaluator_->multiply(native(a), native(b)));
}

Cipher GpuBackend::square(const Cipher &a) {
    return adopt(evaluator_->square(native(a)));
}

Cipher GpuBackend::relinearize(const Cipher &a, const ckks::RelinKeys &keys) {
    return adopt(evaluator_->relinearize(native(a), keys));
}

Cipher GpuBackend::rescale(const Cipher &a, double snap_scale) {
    core::GpuCiphertext out = evaluator_->rescale(native(a));
    if (snap_scale > 0.0) {
        out.scale = snap_scale;
    }
    return adopt(std::move(out));
}

Cipher GpuBackend::mod_switch(const Cipher &a, double adopt_scale) {
    core::GpuCiphertext out = evaluator_->mod_switch(native(a));
    if (adopt_scale > 0.0) {
        out.scale = adopt_scale;
    }
    return adopt(std::move(out));
}

Cipher GpuBackend::mod_switch_add(const Cipher &a, const Cipher &c) {
    return adopt(evaluator_->mod_switch_add(native(a), native(c)));
}

Cipher GpuBackend::rotate(const Cipher &a, int step,
                          const ckks::GaloisKeys &keys) {
    return adopt(evaluator_->rotate(native(a), step, keys));
}

Cipher GpuBackend::conjugate(const Cipher &a, const ckks::GaloisKeys &keys) {
    return adopt(evaluator_->conjugate(native(a), keys));
}

Cipher GpuBackend::multiply_acc(const Cipher &a, const Cipher &b,
                                uint64_t count) {
    util::require(count >= 1, "he: multiply_acc needs count >= 1");
    const core::GpuCiphertext &na = native(a);
    const core::GpuCiphertext &nb = native(b);
    core::GpuCiphertext acc =
        core::allocate_ciphertext(*gpu_, 3, na.rns, na.scale * nb.scale);
    for (uint64_t t = 0; t < count; ++t) {
        evaluator_->multiply_acc(na, nb, acc);
    }
    return adopt(std::move(acc));
}

Cipher GpuBackend::set_scale(const Cipher &a, double scale) {
    return adopt(evaluator_->set_scale(native(a), scale));
}

Cipher GpuBackend::upload(const ckks::Ciphertext &ct) {
    return adopt(core::upload(*gpu_, ct));
}

ckks::Ciphertext GpuBackend::download(const Cipher &a) {
    return core::download(*gpu_, native(a));
}

}  // namespace xehe::he
