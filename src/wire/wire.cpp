#include "wire/wire.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>

namespace xehe::wire {

namespace {

void check(bool condition, const char *what) {
    if (!condition) {
        throw WireError(what);
    }
}

void expect_tag(Reader &r, Tag tag, const char *what) {
    check(r.u8() == static_cast<uint8_t>(tag), what);
}

/// Degrees the scheme supports: powers of two from 8 (tiny test contexts)
/// to 2^17 (beyond the paper's N = 32K operating point).
void check_degree(uint64_t n) {
    check(util::is_power_of_two(n) && n >= 8 && n <= (uint64_t{1} << 17),
          "wire: bad poly degree");
}

void check_modulus_value(uint64_t value) {
    check(value >= 2 &&
              util::significant_bits(value) <= util::Modulus::kMaxBits,
          "wire: bad modulus value");
}

void check_scale(double scale) {
    check(std::isfinite(scale) && scale > 0.0, "wire: bad scale");
}

bool read_flag(Reader &r) {
    const uint8_t v = r.u8();
    check(v <= 1, "wire: bad flag byte");
    return v != 0;
}

/// Every residue of one component must already be reduced mod q; anything
/// else is corruption (and would be UB-adjacent downstream, where lazy
/// reduction assumes canonical inputs).
void check_residues(std::span<const uint64_t> component,
                    const util::Modulus &q) {
    for (const uint64_t x : component) {
        check(x < q.value(), "wire: residue out of range");
    }
}

/// Reads `words` residues into `out` and validates them against the first
/// `rns` context moduli, one component (n words) at a time.
void read_components(Reader &r, const ckks::CkksContext &ctx,
                     std::span<uint64_t> out, std::size_t rns, std::size_t n) {
    r.words(out);
    for (std::size_t c = 0; c * n < out.size(); ++c) {
        check_residues(out.subspan(c * n, n), ctx.key_modulus()[c % rns]);
    }
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer / Reader
// ---------------------------------------------------------------------------

void Writer::u8(uint8_t v) {
    if (counting_) {
        ++count_;
        return;
    }
    buf_.push_back(v);
}

void Writer::u16(uint16_t v) {
    if (counting_) {
        count_ += 2;
        return;
    }
    buf_.push_back(static_cast<uint8_t>(v));
    buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void Writer::u32(uint32_t v) {
    if (counting_) {
        count_ += 4;
        return;
    }
    for (int i = 0; i < 4; ++i) {
        buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
}

void Writer::u64(uint64_t v) {
    if (counting_) {
        count_ += 8;
        return;
    }
    for (int i = 0; i < 8; ++i) {
        buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
}

void Writer::f64(double v) {
    u64(std::bit_cast<uint64_t>(v));
}

void Writer::words(std::span<const uint64_t> v) {
    if (counting_) {
        count_ += v.size() * 8;
        return;
    }
    if constexpr (std::endian::native == std::endian::little) {
        const std::size_t old = buf_.size();
        buf_.resize(old + v.size() * 8);
        std::memcpy(buf_.data() + old, v.data(), v.size() * 8);
    } else {
        for (const uint64_t x : v) {
            u64(x);
        }
    }
}

void Writer::bytes(std::span<const uint8_t> v) {
    if (counting_) {
        count_ += v.size();
        return;
    }
    buf_.insert(buf_.end(), v.begin(), v.end());
}

void Writer::patch_u64(std::size_t offset, uint64_t v) {
    assert(!counting_ && offset + 8 <= buf_.size());
    for (int i = 0; i < 8; ++i) {
        buf_[offset + i] = static_cast<uint8_t>(v >> (8 * i));
    }
}

void Reader::need(std::size_t count) const {
    if (remaining() < count) {
        throw WireError("wire: truncated buffer");
    }
}

uint8_t Reader::u8() {
    need(1);
    return data_[pos_++];
}

uint16_t Reader::u16() {
    need(2);
    uint16_t v = 0;
    for (int i = 0; i < 2; ++i) {
        v = static_cast<uint16_t>(v | (static_cast<uint16_t>(data_[pos_++])
                                       << (8 * i)));
    }
    return v;
}

uint32_t Reader::u32() {
    need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
        v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
    }
    return v;
}

uint64_t Reader::u64() {
    need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
    }
    return v;
}

double Reader::f64() {
    return std::bit_cast<double>(u64());
}

void Reader::words(std::span<uint64_t> out) {
    // Divide instead of multiplying: a huge (attacker-influenced) word
    // count must not wrap `count * 8` past the bounds check.
    if (remaining() / 8 < out.size()) {
        throw WireError("wire: truncated buffer");
    }
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(out.data(), data_.data() + pos_, out.size() * 8);
        pos_ += out.size() * 8;
    } else {
        for (auto &x : out) {
            x = u64();
        }
    }
}

std::span<const uint8_t> Reader::bytes(std::size_t count) {
    need(count);
    auto view = data_.subspan(pos_, count);
    pos_ += count;
    return view;
}

// ---------------------------------------------------------------------------
// Envelope
// ---------------------------------------------------------------------------

namespace detail {

namespace {

constexpr uint64_t kChecksumSeed = 14695981039346656037ull;
/// Odd, so multiplying by it is a bijection mod 2^64.
constexpr uint64_t kChecksumPrime = 0x9E3779B97F4A7C15ull;

/// One checksum step.  Both halves are bijections: for a fixed input the
/// new state determines the old one, and for a fixed state the input
/// determines the new state, so a change to one input always survives to
/// the end of the chain.
constexpr uint64_t checksum_step(uint64_t h, uint64_t input) {
    h = (h ^ input) * kChecksumPrime;
    return h ^ (h >> 29);
}

uint64_t load_le64(const uint8_t *p) {
    uint64_t v = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, p, 8);
    } else {
        for (int i = 0; i < 8; ++i) {
            v |= static_cast<uint64_t>(p[i]) << (8 * i);
        }
    }
    return v;
}

}  // namespace

uint64_t checksum64(std::span<const uint8_t> data) {
    // Four independent lanes, one 8-byte word each per 32-byte stride, so
    // the multiplies of consecutive words overlap instead of queueing.
    uint64_t lane0 = checksum_step(kChecksumSeed, 0);
    uint64_t lane1 = checksum_step(kChecksumSeed, 1);
    uint64_t lane2 = checksum_step(kChecksumSeed, 2);
    uint64_t lane3 = checksum_step(kChecksumSeed, 3);
    const uint8_t *p = data.data();
    const uint8_t *const end = p + data.size();
    for (; end - p >= 32; p += 32) {
        lane0 = checksum_step(lane0, load_le64(p));
        lane1 = checksum_step(lane1, load_le64(p + 8));
        lane2 = checksum_step(lane2, load_le64(p + 16));
        lane3 = checksum_step(lane3, load_le64(p + 24));
    }
    uint64_t h = checksum_step(kChecksumSeed, lane0);
    h = checksum_step(h, lane1);
    h = checksum_step(h, lane2);
    h = checksum_step(h, lane3);
    for (; p != end; ++p) {
        h = checksum_step(h, *p);
    }
    return h ^ static_cast<uint64_t>(data.size());
}

std::span<const uint8_t> open_envelope(std::span<const uint8_t> buffer,
                                       bool verify_checksum) {
    Reader r(buffer);
    if (buffer.size() < kEnvelopeBytes) {
        throw WireError("wire: buffer shorter than envelope");
    }
    check(r.u32() == kMagic, "wire: bad magic");
    check(r.u16() == kVersion, "wire: unsupported version");
    check(r.u16() == 0, "wire: bad reserved field");
    // Exact-length equality before the payload is even viewed: a
    // malformed payload_len (up to SIZE_MAX) is rejected here, before
    // any allocation or arithmetic that could wrap.
    const uint64_t payload_len = r.u64();
    check(payload_len == buffer.size() - kEnvelopeBytes,
          "wire: payload length mismatch");
    const auto payload = r.bytes(payload_len);
    check(!verify_checksum || r.u64() == checksum64(payload),
          "wire: checksum mismatch");
    return payload;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Modulus chains and parameters
// ---------------------------------------------------------------------------

void save(Writer &w, const util::Modulus &m) {
    w.u8(static_cast<uint8_t>(Tag::Modulus));
    w.u64(m.value());
}

void load(Reader &r, util::Modulus &m) {
    expect_tag(r, Tag::Modulus, "wire: expected Modulus");
    const uint64_t value = r.u64();
    check_modulus_value(value);
    // Barrett constants are derived, not shipped: reconstruction is exact.
    m = util::Modulus(value);
}

void save(Writer &w, const std::vector<util::Modulus> &chain) {
    w.u8(static_cast<uint8_t>(Tag::ModulusChain));
    w.u64(chain.size());
    for (const auto &m : chain) {
        w.u64(m.value());
    }
}

void load(Reader &r, std::vector<util::Modulus> &chain) {
    expect_tag(r, Tag::ModulusChain, "wire: expected ModulusChain");
    const uint64_t count = r.u64();
    check(count >= 1 && count <= 1024, "wire: bad modulus chain length");
    chain.clear();
    chain.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
        const uint64_t value = r.u64();
        check_modulus_value(value);
        chain.emplace_back(value);
    }
}

void save(Writer &w, const ckks::EncryptionParameters &params) {
    w.u8(static_cast<uint8_t>(Tag::Parameters));
    w.u64(params.poly_degree);
    w.u64(params.coeff_modulus.size());
    for (const auto &m : params.coeff_modulus) {
        w.u64(m.value());
    }
}

void load(Reader &r, ckks::EncryptionParameters &params) {
    expect_tag(r, Tag::Parameters, "wire: expected Parameters");
    const uint64_t degree = r.u64();
    check_degree(degree);
    const uint64_t count = r.u64();
    // L data primes + the special prime; 64 is far beyond any real chain.
    check(count >= 2 && count <= 64, "wire: bad coeff modulus count");
    params.poly_degree = degree;
    params.coeff_modulus.clear();
    params.coeff_modulus.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
        const uint64_t value = r.u64();
        check_modulus_value(value);
        // Every coeff modulus must support the negacyclic NTT at this
        // degree — a corrupted prime would otherwise blow up only later,
        // inside CkksContext table construction.
        check(value % (2 * degree) == 1, "wire: modulus not NTT-friendly");
        params.coeff_modulus.emplace_back(value);
    }
}

// ---------------------------------------------------------------------------
// Plaintext / Ciphertext
// ---------------------------------------------------------------------------

void save(Writer &w, const ckks::Plaintext &plain) {
    w.u8(static_cast<uint8_t>(Tag::Plaintext));
    w.u64(plain.n);
    w.u64(plain.rns);
    w.f64(plain.scale);
    w.u8(plain.ntt_form ? 1 : 0);
    w.words(plain.data);
}

void load(Reader &r, const ckks::CkksContext &ctx, ckks::Plaintext &plain) {
    expect_tag(r, Tag::Plaintext, "wire: expected Plaintext");
    const uint64_t n = r.u64();
    const uint64_t rns = r.u64();
    check(n == ctx.n(), "wire: plaintext degree mismatch");
    // Data objects live under the data primes only; a plaintext "at" the
    // special prime cannot come from the encoder.
    check(rns >= 1 && rns <= ctx.max_level(), "wire: bad plaintext level");
    const double scale = r.f64();
    check_scale(scale);
    plain.n = n;
    plain.rns = rns;
    plain.scale = scale;
    plain.ntt_form = read_flag(r);
    plain.data.resize(rns * n);
    read_components(r, ctx, plain.data, rns, n);
}

void save(Writer &w, const ckks::Ciphertext &ct) {
    w.u8(static_cast<uint8_t>(Tag::Ciphertext));
    const bool seeded = ct.a_seeded && ct.size == 2;
    w.u64(ct.n);
    w.u64(ct.size);
    w.u64(ct.rns);
    w.f64(ct.scale);
    w.u8(ct.ntt_form ? 1 : 0);
    w.u8(seeded ? 1 : 0);
    const std::size_t stored_polys = seeded ? ct.size - 1 : ct.size;
    w.words(std::span<const uint64_t>(ct.data)
                .subspan(0, stored_polys * ct.rns * ct.n));
    if (seeded) {
        w.u64(ct.a_seed);
    }
}

namespace {

/// Reads and checks a ciphertext body up to its residue words.
/// `key_base` distinguishes the two legal shapes: ciphertexts nested
/// inside keys live over the full key base (rns == key_rns, size 2),
/// while data ciphertexts are capped at the data primes — no encryptor
/// produces a ciphertext "at" the special prime, so the wire must not
/// construct one either.
CiphertextHeader read_ciphertext_header(Reader &r,
                                        const ckks::CkksContext &ctx,
                                        bool key_base) {
    expect_tag(r, Tag::Ciphertext, "wire: expected Ciphertext");
    const uint64_t n = r.u64();
    const uint64_t size = r.u64();
    const uint64_t rns = r.u64();
    check(n == ctx.n(), "wire: ciphertext degree mismatch");
    check(size >= 2 && size <= 3, "wire: bad ciphertext size");
    if (key_base) {
        check(size == 2 && rns == ctx.key_rns(), "wire: bad key shape");
    } else {
        check(rns >= 1 && rns <= ctx.max_level(),
              "wire: bad ciphertext level");
    }
    const double scale = r.f64();
    check_scale(scale);
    const bool ntt_form = read_flag(r);
    const bool seeded = read_flag(r);
    check(!seeded || size == 2, "wire: seeded ciphertext must have size 2");
    return {size, rns, scale, ntt_form, seeded};
}

/// Shared ciphertext body parser.
void load_ciphertext_body(Reader &r, const ckks::CkksContext &ctx,
                          ckks::Ciphertext &ct, bool key_base) {
    const auto [size, rns, scale, ntt_form, seeded] =
        read_ciphertext_header(r, ctx, key_base);
    const std::size_t n = ctx.n();
    ct.resize(n, size, rns);
    ct.scale = scale;
    ct.ntt_form = ntt_form;
    const std::size_t stored_polys = seeded ? size - 1 : size;
    read_components(r, ctx,
                    std::span<uint64_t>(ct.data)
                        .subspan(0, stored_polys * rns * n),
                    rns, n);
    if (seeded) {
        ct.a_seed = r.u64();
        ct.a_seeded = true;
        util::expand_uniform_seeded(
            ct.poly(1),
            std::span<const util::Modulus>(ctx.key_modulus().data(), rns), n,
            ct.a_seed);
    }
}

}  // namespace

void load(Reader &r, const ckks::CkksContext &ctx, ckks::Ciphertext &ct) {
    load_ciphertext_body(r, ctx, ct, /*key_base=*/false);
}

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

void save(Writer &w, const ckks::SecretKey &sk) {
    w.u8(static_cast<uint8_t>(Tag::SecretKey));
    w.u64(sk.data.size());
    w.words(sk.data);
}

void load(Reader &r, const ckks::CkksContext &ctx, ckks::SecretKey &sk) {
    expect_tag(r, Tag::SecretKey, "wire: expected SecretKey");
    const uint64_t words = r.u64();
    check(words == ctx.key_rns() * ctx.n(), "wire: secret key size mismatch");
    sk.data.resize(words);
    read_components(r, ctx, sk.data, ctx.key_rns(), ctx.n());
}

void save(Writer &w, const ckks::PublicKey &pk) {
    w.u8(static_cast<uint8_t>(Tag::PublicKey));
    save(w, pk.ct);
}

void load(Reader &r, const ckks::CkksContext &ctx, ckks::PublicKey &pk) {
    expect_tag(r, Tag::PublicKey, "wire: expected PublicKey");
    load_ciphertext_body(r, ctx, pk.ct, /*key_base=*/true);
}

void save(Writer &w, const ckks::KSwitchKey &key) {
    w.u8(static_cast<uint8_t>(Tag::KSwitchKey));
    w.u64(key.keys.size());
    for (const auto &ct : key.keys) {
        save(w, ct);
    }
}

void load(Reader &r, const ckks::CkksContext &ctx, ckks::KSwitchKey &key) {
    expect_tag(r, Tag::KSwitchKey, "wire: expected KSwitchKey");
    const uint64_t count = r.u64();
    check(count == ctx.max_level(), "wire: bad key-switch key count");
    key.keys.clear();
    key.keys.resize(count);
    for (auto &ct : key.keys) {
        load_ciphertext_body(r, ctx, ct, /*key_base=*/true);
    }
}

void save(Writer &w, const ckks::RelinKeys &keys) {
    w.u8(static_cast<uint8_t>(Tag::RelinKeys));
    save(w, keys.key);
}

void load(Reader &r, const ckks::CkksContext &ctx, ckks::RelinKeys &keys) {
    expect_tag(r, Tag::RelinKeys, "wire: expected RelinKeys");
    load(r, ctx, keys.key);
}

void save(Writer &w, const ckks::GaloisKeys &keys) {
    w.u8(static_cast<uint8_t>(Tag::GaloisKeys));
    w.u64(keys.keys.size());
    for (const auto &[elt, key] : keys.keys) {
        w.u64(elt);
        save(w, key);
    }
}

void load(Reader &r, const ckks::CkksContext &ctx, ckks::GaloisKeys &keys) {
    expect_tag(r, Tag::GaloisKeys, "wire: expected GaloisKeys");
    const uint64_t count = r.u64();
    check(count <= 4 * ctx.n(), "wire: bad galois key count");
    keys.keys.clear();
    uint64_t previous = 0;
    for (uint64_t i = 0; i < count; ++i) {
        const uint64_t elt = r.u64();
        // Galois elements are odd residues mod 2N, and the map serializes
        // in strictly increasing order — anything else is corruption.
        check(elt % 2 == 1 && elt < 2 * ctx.n(), "wire: bad galois element");
        check(elt > previous, "wire: galois elements out of order");
        previous = elt;
        ckks::KSwitchKey key;
        load(r, ctx, key);
        keys.keys.emplace(elt, std::move(key));
    }
}

CiphertextHeader load_ciphertext_header(std::span<const uint8_t> buffer,
                                        const ckks::CkksContext &ctx) {
    Reader r(detail::open_envelope(buffer, /*verify_checksum=*/false));
    return read_ciphertext_header(r, ctx, /*key_base=*/false);
}

// ---------------------------------------------------------------------------
// Chunked streaming frames
// ---------------------------------------------------------------------------

std::vector<std::vector<uint8_t>> chunk_message(uint64_t stream_id,
                                                std::span<const uint8_t> body,
                                                std::size_t max_payload) {
    max_payload = std::min(std::max<std::size_t>(1, max_payload),
                           kMaxChunkPayload);
    check(body.size() <= kMaxStreamBytes, "wire: stream too large to chunk");
    std::vector<std::vector<uint8_t>> frames;
    const std::size_t count =
        body.empty() ? 1 : (body.size() + max_payload - 1) / max_payload;
    frames.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t offset = i * max_payload;
        const std::size_t len =
            std::min(max_payload, body.size() - offset);
        const bool last = i + 1 == count;
        Writer w;
        w.reserve(kChunkOverheadBytes + len);
        w.u32(kChunkMagic);
        w.u16(kVersion);
        w.u16(last ? 1 : 0);
        w.u64(stream_id);
        w.u32(static_cast<uint32_t>(i));
        w.u32(static_cast<uint32_t>(len));
        w.u64(offset);
        w.u64(body.size());
        w.bytes(body.subspan(offset, len));
        w.u64(detail::checksum64(w.buffer()));
        frames.push_back(w.take());
    }
    return frames;
}

ChunkView open_chunk(std::span<const uint8_t> frame) {
    check(frame.size() >= kChunkOverheadBytes,
          "wire: chunk frame shorter than header");
    // Checksum first: a frame that fails it is corrupt, and none of its
    // header fields can be trusted for a finer-grained diagnosis.
    Reader tail(frame.subspan(frame.size() - 8));
    check(tail.u64() ==
              detail::checksum64(frame.subspan(0, frame.size() - 8)),
          "wire: chunk checksum mismatch");
    Reader r(frame);
    check(r.u32() == kChunkMagic, "wire: bad chunk magic");
    check(r.u16() == kVersion, "wire: unsupported chunk version");
    const uint16_t flags = r.u16();
    check(flags <= 1, "wire: bad chunk flags");
    ChunkView view;
    view.last = flags != 0;
    view.stream_id = r.u64();
    view.seq = r.u32();
    const uint32_t payload_len = r.u32();
    view.offset = r.u64();
    view.total_len = r.u64();
    check(payload_len <= kMaxChunkPayload, "wire: oversized chunk payload");
    check(frame.size() == kChunkOverheadBytes + payload_len,
          "wire: chunk frame length mismatch");
    check(view.total_len <= kMaxStreamBytes, "wire: oversized stream");
    // Ordered so the additions below cannot overflow: total_len is bounded
    // first, then offset is bounded by it.
    check(view.offset <= view.total_len, "wire: chunk offset out of range");
    check(view.offset + payload_len <= view.total_len,
          "wire: chunk overruns stream");
    check(view.last == (view.offset + payload_len == view.total_len),
          "wire: chunk last flag inconsistent with stream length");
    view.payload = r.bytes(payload_len);
    return view;
}

}  // namespace xehe::wire
