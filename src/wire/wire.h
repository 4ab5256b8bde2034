// Versioned, endian-stable binary wire format for the CKKS scheme objects
// that cross a process boundary in the serving pipeline: modulus chains,
// encryption parameters, plaintexts, ciphertexts and the three key types.
//
// Layout: every top-level object travels in an envelope
//
//   u32 magic "XEHE" | u16 version | u16 reserved | u64 payload_len |
//   payload (tagged body) | u64 checksum64(payload)
//
// with all integers little-endian regardless of host byte order.  The
// trailing checksum plus strict bounds/validity checks on every field mean
// a truncated or bit-flipped buffer is rejected with a typed WireError —
// deserialization never reads out of bounds and never constructs an
// object that violates the scheme's invariants.  checksum64 (see
// detail::checksum64) catches every change confined to one 8-byte word
// or one tail byte, and runs at memory speed rather than a byte per
// multiply.
//
// Seed compression: the uniform `a` component (poly 1) of fresh keys and
// symmetric ciphertexts is replaced on the wire by the 8-byte PRNG seed it
// was expanded from (util::expand_uniform_seeded) and regenerated on load,
// roughly halving the wire size of every fresh key and ciphertext.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckks/keys.h"

namespace xehe::wire {

/// Typed deserialization failure: truncation, bad magic/version/tag,
/// checksum mismatch, or a structurally invalid field.
class WireError : public std::runtime_error {
public:
    explicit WireError(const std::string &what) : std::runtime_error(what) {}
};

inline constexpr uint32_t kMagic = 0x45484558u;  ///< "XEHE", little-endian
/// Version 5: the envelope and chunk-frame checksum is checksum64, a
/// four-lane word checksum, instead of byte-serial FNV-1a; the layout and
/// every size are unchanged.  (Version 4 added the per-request
/// backend-selection hint of serve::Request; version 3 the typed status
/// code of serve::Response and the chunked streaming frames (kChunkMagic)
/// that carry large requests as bounded, checksummed segments; version 2
/// the Program payload and the program field of serve::Request.)  Loads
/// reject other versions.
inline constexpr uint16_t kVersion = 5;
/// Envelope header: magic + version + reserved + payload length.
inline constexpr std::size_t kHeaderBytes = 16;
/// Envelope overhead: 16-byte header + 8-byte payload checksum.
inline constexpr std::size_t kEnvelopeBytes = 24;

enum class Tag : uint8_t {
    Modulus = 1,
    ModulusChain = 2,
    Parameters = 3,
    Plaintext = 4,
    Ciphertext = 5,
    SecretKey = 6,
    PublicKey = 7,
    KSwitchKey = 8,
    RelinKeys = 9,
    GaloisKeys = 10,
    // 11/12 are reserved for serve::Request / serve::Response.
    Request = 11,
    Response = 12,
    // 13 is the he:: circuit IR (save/load live in src/he/program.cpp).
    Program = 13,
};

/// Little-endian byte sink.  The sizing() variant only counts, which is
/// how serialized_bytes gets exact numbers without allocating.
class Writer {
public:
    Writer() = default;
    static Writer sizing() {
        Writer w;
        w.counting_ = true;
        return w;
    }

    void u8(uint8_t v);
    void u16(uint16_t v);
    void u32(uint32_t v);
    void u64(uint64_t v);
    void f64(double v);
    void words(std::span<const uint64_t> v);
    void bytes(std::span<const uint8_t> v);
    /// Overwrites 8 already-written bytes at `offset` (envelope length
    /// back-patching).  Not available on a sizing writer.
    void patch_u64(std::size_t offset, uint64_t v);

    std::size_t size() const noexcept {
        return counting_ ? count_ : buf_.size();
    }
    bool counting() const noexcept { return counting_; }
    void reserve(std::size_t n) { buf_.reserve(n); }
    const std::vector<uint8_t> &buffer() const noexcept { return buf_; }
    std::vector<uint8_t> take() { return std::move(buf_); }

private:
    std::vector<uint8_t> buf_;
    std::size_t count_ = 0;
    bool counting_ = false;
};

/// Bounds-checked little-endian cursor over a byte buffer.  Every read
/// throws WireError instead of walking past the end.
class Reader {
public:
    explicit Reader(std::span<const uint8_t> data) : data_(data) {}

    uint8_t u8();
    uint16_t u16();
    uint32_t u32();
    uint64_t u64();
    double f64();
    void words(std::span<uint64_t> out);
    std::span<const uint8_t> bytes(std::size_t count);

    std::size_t remaining() const noexcept { return data_.size() - pos_; }
    bool done() const noexcept { return pos_ == data_.size(); }

private:
    void need(std::size_t count) const;

    std::span<const uint8_t> data_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Body-level save/load: tagged object bodies without the envelope, used
// directly when nesting objects inside a larger message (keys inside a
// GaloisKeys map, ciphertexts inside a serve::Request).
// ---------------------------------------------------------------------------

void save(Writer &w, const util::Modulus &m);
void save(Writer &w, const std::vector<util::Modulus> &chain);
void save(Writer &w, const ckks::EncryptionParameters &params);
void save(Writer &w, const ckks::Plaintext &plain);
void save(Writer &w, const ckks::Ciphertext &ct);
void save(Writer &w, const ckks::SecretKey &sk);
void save(Writer &w, const ckks::PublicKey &pk);
void save(Writer &w, const ckks::KSwitchKey &key);
void save(Writer &w, const ckks::RelinKeys &keys);
void save(Writer &w, const ckks::GaloisKeys &keys);

void load(Reader &r, util::Modulus &m);
void load(Reader &r, std::vector<util::Modulus> &chain);
void load(Reader &r, ckks::EncryptionParameters &params);
void load(Reader &r, const ckks::CkksContext &ctx, ckks::Plaintext &plain);
void load(Reader &r, const ckks::CkksContext &ctx, ckks::Ciphertext &ct);
void load(Reader &r, const ckks::CkksContext &ctx, ckks::SecretKey &sk);
void load(Reader &r, const ckks::CkksContext &ctx, ckks::PublicKey &pk);
void load(Reader &r, const ckks::CkksContext &ctx, ckks::KSwitchKey &key);
void load(Reader &r, const ckks::CkksContext &ctx, ckks::RelinKeys &keys);
void load(Reader &r, const ckks::CkksContext &ctx, ckks::GaloisKeys &keys);

// ---------------------------------------------------------------------------
// Envelope level: the framing clients and servers exchange.
// ---------------------------------------------------------------------------

namespace detail {
/// The envelope and chunk-frame checksum.  Four lanes each step
/// h = (h ^ w) * P; h ^= h >> 29 over every fourth little-endian 8-byte
/// word of each 32-byte stride; the lanes are then folded in order with
/// the same step, the remaining (< 32) tail bytes are stepped in one at a
/// time, and the length is xored in.  Every step is a bijection of the
/// state and of its input, so any change confined to one 8-byte word of
/// a stride, or to one tail byte, always changes the checksum.
uint64_t checksum64(std::span<const uint8_t> data);
/// Validates magic/version/length and (unless told not to) the checksum;
/// returns the payload view.
std::span<const uint8_t> open_envelope(std::span<const uint8_t> buffer,
                                       bool verify_checksum = true);
}  // namespace detail

/// Exact size in bytes of serialize(obj), without serializing.
template <typename T>
std::size_t serialized_bytes(const T &obj) {
    Writer w = Writer::sizing();
    save(w, obj);
    return kEnvelopeBytes + w.size();
}

/// Opens the envelope, loads one body through the save/load overload set
/// (found by ADL, so other modules' message types work too), and rejects
/// trailing payload bytes.
template <typename T, typename... Ctx>
T load_enveloped(std::span<const uint8_t> buffer, const Ctx &...ctx) {
    Reader r(detail::open_envelope(buffer));
    T out;
    load(r, ctx..., out);
    if (!r.done()) {
        throw WireError("wire: trailing bytes in payload");
    }
    return out;
}

/// Serializes `obj` into a self-contained enveloped buffer.  The body is
/// written straight into the (exactly reserved) envelope buffer; the
/// payload length is back-patched and the checksum appended, so there is
/// no second copy of the payload.
template <typename T>
std::vector<uint8_t> serialize(const T &obj) {
    Writer w;
    w.reserve(serialized_bytes(obj));
    w.u32(kMagic);
    w.u16(kVersion);
    w.u16(0);  // reserved
    w.u64(0);  // payload length, patched once the body is written
    save(w, obj);
    w.patch_u64(8, w.size() - kHeaderBytes);
    w.u64(detail::checksum64(
        std::span<const uint8_t>(w.buffer()).subspan(kHeaderBytes)));
    return w.take();
}

// ---------------------------------------------------------------------------
// Chunked streaming frames: one logical message (a stream) travels as a
// sequence of bounded, individually checksummed chunk frames, so a large
// ciphertext batch never has to exist as one monolithic validated buffer
// on the receiving side.  Each frame is self-contained:
//
//   u32 chunk magic "XEHC" | u16 version | u16 flags (bit 0: last chunk) |
//   u64 stream_id | u32 seq | u32 payload_len | u64 offset | u64 total_len |
//   payload | u64 checksum64(frame minus checksum)
//
// Receivers validate magic/version/bounds/continuity per frame and feed
// the payload straight to an incremental parser; corruption is caught at
// chunk granularity instead of after buffering the whole message.
// ---------------------------------------------------------------------------

inline constexpr uint32_t kChunkMagic = 0x43484558u;  ///< "XEHC"
/// Largest payload one chunk frame may carry; the receive-side buffering
/// bound of the streaming path.
inline constexpr std::size_t kMaxChunkPayload = 64 * 1024;
/// Largest total stream length a receiver will accept (256 MiB).
inline constexpr uint64_t kMaxStreamBytes = uint64_t{1} << 28;
/// Fixed frame overhead: the 40-byte header (magic u32, version u16,
/// flags u16, stream_id u64, seq u32, payload_len u32, offset u64,
/// total_len u64) plus the trailing 8-byte checksum64.
inline constexpr std::size_t kChunkHeaderBytes = 40;
inline constexpr std::size_t kChunkOverheadBytes = kChunkHeaderBytes + 8;

/// Validated view into one chunk frame; `payload` aliases the frame bytes.
struct ChunkView {
    uint64_t stream_id = 0;
    uint32_t seq = 0;
    bool last = false;
    uint64_t offset = 0;     ///< byte offset of payload within the stream
    uint64_t total_len = 0;  ///< total stream length in bytes
    std::span<const uint8_t> payload;
};

/// Slices `body` into checksummed chunk frames for `stream_id`.  Every
/// frame's payload is at most `max_payload` (clamped to kMaxChunkPayload);
/// an empty body yields one empty last-marked frame.
std::vector<std::vector<uint8_t>> chunk_message(
    uint64_t stream_id, std::span<const uint8_t> body,
    std::size_t max_payload = kMaxChunkPayload);

/// Validates one chunk frame (magic, version, bounds, checksum) and
/// returns a view of its header fields and payload.  Throws WireError.
ChunkView open_chunk(std::span<const uint8_t> frame);

// Typed loads of the enveloped objects a client and server exchange
// (load_enveloped<T> reads any other).
inline ckks::EncryptionParameters load_parameters(
    std::span<const uint8_t> buffer) {
    return load_enveloped<ckks::EncryptionParameters>(buffer);
}
inline ckks::Ciphertext load_ciphertext(std::span<const uint8_t> buffer,
                                        const ckks::CkksContext &ctx) {
    return load_enveloped<ckks::Ciphertext>(buffer, ctx);
}
inline ckks::RelinKeys load_relin_keys(std::span<const uint8_t> buffer,
                                       const ckks::CkksContext &ctx) {
    return load_enveloped<ckks::RelinKeys>(buffer, ctx);
}
inline ckks::GaloisKeys load_galois_keys(std::span<const uint8_t> buffer,
                                         const ckks::CkksContext &ctx) {
    return load_enveloped<ckks::GaloisKeys>(buffer, ctx);
}

/// The fields of a ciphertext body ahead of its residue words.
struct CiphertextHeader {
    std::size_t size, rns;  ///< rns: the active data primes, its level
    double scale;
    bool ntt_form, seeded;
};
/// Reads an enveloped data ciphertext's header with the reader that
/// load_ciphertext's body parser starts with; decodes no residues and
/// leaves the checksum to load_ciphertext.  Throws WireError.
CiphertextHeader load_ciphertext_header(std::span<const uint8_t> buffer,
                                        const ckks::CkksContext &ctx);

}  // namespace xehe::wire
