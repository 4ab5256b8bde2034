// Wire-format serialization: bit-exact round trips for every scheme type
// (fresh and after evaluation), seed compression size and identity
// guarantees, exact serialized_bytes accounting, and deserializer
// robustness — every truncation and a sweep of single-bit corruptions of
// every enveloped type must raise wire::WireError, never crash or read out
// of bounds (the ASan/UBSan CI matrix runs this suite) — and known answers
// plus exhaustive bit-flip sweeps pinning the checksum.
#include "test_common.h"

#include "serve/protocol.h"
#include "wire/wire.h"

namespace xehe::test {
namespace {

using wire::WireError;

CkksBench &bench() {
    static CkksBench b(1024, 3);
    return b;
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(WireModulus, RoundTripBitExact) {
    for (const uint64_t value : test_moduli()) {
        const util::Modulus m(value);
        const auto bytes = wire::serialize(m);
        EXPECT_EQ(bytes.size(), wire::serialized_bytes(m));
        const auto loaded = wire::load_enveloped<util::Modulus>(bytes);
        EXPECT_EQ(loaded.value(), m.value());
        EXPECT_EQ(loaded.bit_count(), m.bit_count());
        EXPECT_EQ(loaded.const_ratio().lo, m.const_ratio().lo);
        EXPECT_EQ(loaded.const_ratio().hi, m.const_ratio().hi);
        EXPECT_EQ(loaded.const_ratio_64(), m.const_ratio_64());
    }
}

TEST(WireModulus, ChainRoundTrip) {
    const auto chain = util::generate_ntt_primes(50, 1024, 5);
    const auto bytes = wire::serialize(chain);
    EXPECT_EQ(bytes.size(), wire::serialized_bytes(chain));
    const auto loaded =
        wire::load_enveloped<std::vector<util::Modulus>>(bytes);
    ASSERT_EQ(loaded.size(), chain.size());
    for (std::size_t i = 0; i < chain.size(); ++i) {
        EXPECT_EQ(loaded[i].value(), chain[i].value());
    }
}

TEST(WireParameters, RoundTripRebuildsContext) {
    const auto params = ckks::EncryptionParameters::create(1024, 3);
    const auto bytes = wire::serialize(params);
    EXPECT_EQ(bytes.size(), wire::serialized_bytes(params));
    const auto loaded = wire::load_parameters(bytes);
    ASSERT_EQ(loaded.poly_degree, params.poly_degree);
    ASSERT_EQ(loaded.coeff_modulus.size(), params.coeff_modulus.size());
    for (std::size_t i = 0; i < params.coeff_modulus.size(); ++i) {
        EXPECT_EQ(loaded.coeff_modulus[i].value(),
                  params.coeff_modulus[i].value());
    }
    // The server-side use: a context rebuilt from the wire parameters.
    const ckks::CkksContext ctx(loaded);
    EXPECT_EQ(ctx.n(), 1024u);
    EXPECT_EQ(ctx.max_level(), 3u);
}

TEST(WirePlaintext, RoundTripBitExact) {
    auto &b = bench();
    const auto plain = b.encoder.encode(
        std::span<const complexd>(b.values(7)), kScale);
    const auto bytes = wire::serialize(plain);
    EXPECT_EQ(bytes.size(), wire::serialized_bytes(plain));
    const auto loaded =
        wire::load_enveloped<ckks::Plaintext>(bytes, b.context);
    EXPECT_EQ(loaded.data, plain.data);
    EXPECT_EQ(loaded.n, plain.n);
    EXPECT_EQ(loaded.rns, plain.rns);
    EXPECT_EQ(loaded.scale, plain.scale);
    EXPECT_EQ(loaded.ntt_form, plain.ntt_form);
}

TEST(WireCiphertext, FreshPublicKeyEncryptionRoundTrip) {
    auto &b = bench();
    const auto ct = b.enc(b.values(11));
    EXPECT_FALSE(ct.a_seeded);  // pk encryption is not seed-compressible
    const auto bytes = wire::serialize(ct);
    EXPECT_EQ(bytes.size(), wire::serialized_bytes(ct));
    const auto loaded = wire::load_ciphertext(bytes, b.context);
    EXPECT_EQ(loaded.data, ct.data);
    EXPECT_EQ(loaded.size, ct.size);
    EXPECT_EQ(loaded.rns, ct.rns);
    EXPECT_EQ(loaded.scale, ct.scale);
    const auto direct = b.dec(ct);
    const auto reloaded = b.dec(loaded);
    EXPECT_EQ(max_abs_diff(direct, reloaded), 0.0);
}

TEST(WireCiphertext, EvaluatedRoundTripsBitExact) {
    auto &b = bench();
    const auto a = b.enc(b.values(21));
    const auto c = b.enc(b.values(22));
    const auto relin = b.keygen.create_relin_keys();
    // Size-3 (unrelinearized), relinearized, and rescaled ciphertexts all
    // take the unseeded path and must survive the wire bit-exactly.
    for (const auto &ct :
         {b.evaluator.multiply(a, c),
          b.evaluator.relinearize(b.evaluator.multiply(a, c), relin),
          b.evaluator.rescale(
              b.evaluator.relinearize(b.evaluator.multiply(a, c), relin))}) {
        const auto bytes = wire::serialize(ct);
        EXPECT_EQ(bytes.size(), wire::serialized_bytes(ct));
        const auto loaded = wire::load_ciphertext(bytes, b.context);
        EXPECT_EQ(loaded.data, ct.data);
        EXPECT_EQ(loaded.size, ct.size);
        EXPECT_EQ(loaded.rns, ct.rns);
        EXPECT_EQ(loaded.scale, ct.scale);
    }
}

TEST(WireCiphertext, SeedCompressionShrinksAndDecryptsIdentically) {
    auto &b = bench();
    ckks::Encryptor sym(b.context, b.keygen.create_public_key(),
                        b.keygen.secret_key(), 0xFEED);
    const auto plain = b.encoder.encode(
        std::span<const complexd>(b.values(31)), kScale);
    const auto ct = sym.encrypt_symmetric(plain);
    ASSERT_TRUE(ct.a_seeded);

    // >= 1.8x smaller on the wire than the same ciphertext unseeded.
    ckks::Ciphertext expanded = ct;
    expanded.a_seeded = false;
    const double ratio =
        static_cast<double>(wire::serialized_bytes(expanded)) /
        static_cast<double>(wire::serialized_bytes(ct));
    EXPECT_GE(ratio, 1.8);

    // Re-expansion is bit-exact: same words, same decryption.
    const auto bytes = wire::serialize(ct);
    EXPECT_EQ(bytes.size(), wire::serialized_bytes(ct));
    const auto loaded = wire::load_ciphertext(bytes, b.context);
    EXPECT_TRUE(loaded.a_seeded);
    EXPECT_EQ(loaded.a_seed, ct.a_seed);
    EXPECT_EQ(loaded.data, ct.data);
    const auto direct = b.decryptor.decrypt(ct);
    const auto reloaded = b.decryptor.decrypt(loaded);
    EXPECT_EQ(direct.data, reloaded.data);
    expect_close(b.encoder.decode(reloaded), b.values(31), 1e-4,
                 "symmetric ciphertext decodes after reload");
}

TEST(WireKeys, SecretKeyRoundTrip) {
    auto &b = bench();
    const auto &sk = b.keygen.secret_key();
    const auto bytes = wire::serialize(sk);
    EXPECT_EQ(bytes.size(), wire::serialized_bytes(sk));
    const auto loaded =
        wire::load_enveloped<ckks::SecretKey>(bytes, b.context);
    EXPECT_EQ(loaded.data, sk.data);
}

TEST(WireKeys, PublicKeySeedCompressedRoundTrip) {
    auto &b = bench();
    const auto pk = b.keygen.create_public_key();
    ASSERT_TRUE(pk.ct.a_seeded);
    ckks::PublicKey expanded = pk;
    expanded.ct.a_seeded = false;
    EXPECT_GE(static_cast<double>(wire::serialized_bytes(expanded)) /
                  static_cast<double>(wire::serialized_bytes(pk)),
              1.8);
    const auto bytes = wire::serialize(pk);
    const auto loaded =
        wire::load_enveloped<ckks::PublicKey>(bytes, b.context);
    EXPECT_EQ(loaded.ct.data, pk.ct.data);

    // A reloaded public key encrypts; the original secret key decrypts.
    ckks::Encryptor enc(b.context, loaded, 0xABC);
    const auto values = b.values(41);
    const auto ct = enc.encrypt(b.encoder.encode(
        std::span<const complexd>(values), kScale));
    expect_close(b.dec(ct), values, 1e-4, "encrypt under reloaded pk");
}

TEST(WireKeys, RelinKeysSeedCompressedAndFunctionalAfterReload) {
    auto &b = bench();
    const auto relin = b.keygen.create_relin_keys();
    for (const auto &ct : relin.key.keys) {
        ASSERT_TRUE(ct.a_seeded);
    }
    ckks::RelinKeys expanded = relin;
    for (auto &ct : expanded.key.keys) {
        ct.a_seeded = false;
    }
    EXPECT_GE(static_cast<double>(wire::serialized_bytes(expanded)) /
                  static_cast<double>(wire::serialized_bytes(relin)),
              1.8);

    const auto bytes = wire::serialize(relin);
    EXPECT_EQ(bytes.size(), wire::serialized_bytes(relin));
    const auto loaded = wire::load_relin_keys(bytes, b.context);
    ASSERT_EQ(loaded.key.keys.size(), relin.key.keys.size());
    for (std::size_t i = 0; i < relin.key.keys.size(); ++i) {
        EXPECT_EQ(loaded.key.keys[i].data, relin.key.keys[i].data);
    }

    // Evaluation with reloaded keys is bit-identical to the original.
    const auto a = b.enc(b.values(51));
    const auto c = b.enc(b.values(52));
    const auto with_original =
        b.evaluator.relinearize(b.evaluator.multiply(a, c), relin);
    const auto with_loaded =
        b.evaluator.relinearize(b.evaluator.multiply(a, c), loaded);
    EXPECT_EQ(with_original.data, with_loaded.data);
}

TEST(WireKeys, GaloisKeysRoundTripAndRotateBitExact) {
    auto &b = bench();
    const int steps[] = {1, -1, 4};
    const auto galois = b.keygen.create_galois_keys(steps);
    const auto bytes = wire::serialize(galois);
    EXPECT_EQ(bytes.size(), wire::serialized_bytes(galois));
    const auto loaded = wire::load_galois_keys(bytes, b.context);
    ASSERT_EQ(loaded.keys.size(), galois.keys.size());
    for (const auto &[elt, key] : galois.keys) {
        ASSERT_TRUE(loaded.has(elt));
        const auto &other = loaded.key(elt);
        ASSERT_EQ(other.keys.size(), key.keys.size());
        for (std::size_t i = 0; i < key.keys.size(); ++i) {
            EXPECT_EQ(other.keys[i].data, key.keys[i].data);
        }
    }
    const auto ct = b.enc(b.values(61));
    EXPECT_EQ(b.evaluator.rotate(ct, 1, galois).data,
              b.evaluator.rotate(ct, 1, loaded).data);
}

TEST(WireProtocol, RequestResponseRoundTrip) {
    auto &b = bench();
    serve::Request req;
    req.session_id = 42;
    req.op = serve::Op::MulLinRS;
    req.arrival_ns = 1234.5;
    req.inputs.push_back(wire::serialize(b.enc(b.values(71))));
    req.inputs.push_back(wire::serialize(b.enc(b.values(72))));
    const auto bytes = wire::serialize(req);
    EXPECT_EQ(bytes.size(), wire::serialized_bytes(req));
    const auto loaded = serve::load_request(bytes);
    EXPECT_EQ(loaded.session_id, req.session_id);
    EXPECT_EQ(loaded.op, req.op);
    EXPECT_EQ(loaded.arrival_ns, req.arrival_ns);
    ASSERT_EQ(loaded.inputs.size(), 2u);
    EXPECT_EQ(loaded.inputs[0], req.inputs[0]);
    EXPECT_EQ(loaded.inputs[1], req.inputs[1]);

    serve::Response resp;
    resp.session_id = 42;
    resp.ok = true;
    resp.code = serve::Status::Ok;
    resp.result = req.inputs[0];
    resp.enqueue_ns = 1.0;
    resp.dispatch_ns = 2.0;
    resp.complete_ns = 3.0;
    const auto resp_bytes = wire::serialize(resp);
    EXPECT_EQ(resp_bytes.size(), wire::serialized_bytes(resp));
    const auto resp_loaded = serve::load_response(resp_bytes);
    EXPECT_EQ(resp_loaded.ok, true);
    EXPECT_EQ(resp_loaded.result, resp.result);
    EXPECT_EQ(resp_loaded.latency_ns(), 2.0);
}

TEST(WireProtocol, RotationStepIsAWireFieldRule) {
    // A request lowers to a Rotate node carrying its step, so the wire
    // takes the IR's bound: |step| <= 2^20.
    auto &b = bench();
    serve::Request req;
    req.op = serve::Op::Rotate;
    req.inputs.push_back(wire::serialize(b.enc(b.values(73))));
    for (const int step : {1 << 20, -(1 << 20)}) {
        req.rotate_step = step;
        EXPECT_EQ(serve::load_request(wire::serialize(req)).rotate_step,
                  step);
    }
    for (const int step : {(1 << 20) + 1, -(1 << 20) - 1}) {
        req.rotate_step = step;
        EXPECT_THROW(serve::load_request(wire::serialize(req)), WireError)
            << step;
    }

    // A step word past int's range must not truncate into a legal step:
    // 2^32 + 1 would read back as 1.  Payload layout: tag 1, session 8,
    // op 1 puts the step at offset 10 (checksum re-stamped).
    req.rotate_step = 1;
    auto forged = wire::serialize(req);
    const uint64_t word = (uint64_t{1} << 32) + 1;
    for (std::size_t i = 0; i < 8; ++i) {
        forged[16 + 10 + i] = static_cast<uint8_t>(word >> (8 * i));
    }
    const uint64_t sum = wire::detail::checksum64(std::span<const uint8_t>(
        forged.data() + 16, forged.size() - 24));
    for (std::size_t i = 0; i < 8; ++i) {
        forged[forged.size() - 8 + i] = static_cast<uint8_t>(sum >> (8 * i));
    }
    EXPECT_THROW(serve::load_request(forged), WireError);
}

TEST(WireProtocol, InvalidProgramResponseRoundTripsWithDiagnostics) {
    // The admission gate's typed rejection: code InvalidProgram, ok
    // false, and the analyzer's first-error summary in the error string.
    serve::Response resp;
    resp.session_id = 9;
    resp.ok = false;
    resp.code = serve::Status::InvalidProgram;
    resp.error =
        "serve: program rejected: node 2 (Rescale): LevelUnderflow: "
        "cannot rescale at the last level";
    const auto bytes = wire::serialize(resp);
    EXPECT_EQ(bytes.size(), wire::serialized_bytes(resp));
    const auto loaded = serve::load_response(bytes);
    EXPECT_EQ(loaded.session_id, 9u);
    EXPECT_FALSE(loaded.ok);
    EXPECT_EQ(loaded.code, serve::Status::InvalidProgram);
    EXPECT_EQ(loaded.error, resp.error);
    EXPECT_NE(loaded.error.find("LevelUnderflow"), std::string::npos);
    EXPECT_TRUE(loaded.result.empty());

    // A status byte past InvalidProgram (checksum re-stamped so only the
    // code is wrong) is a typed wire error, not an enum out of range.
    // Payload layout: tag 1, session 8, ok 1 puts the code at offset 10.
    auto forged = bytes;
    forged[16 + 10] = static_cast<uint8_t>(serve::Status::InvalidProgram) + 1;
    const uint64_t sum = wire::detail::checksum64(std::span<const uint8_t>(
        forged.data() + 16, forged.size() - 24));
    for (std::size_t i = 0; i < 8; ++i) {
        forged[forged.size() - 8 + i] = static_cast<uint8_t>(sum >> (8 * i));
    }
    EXPECT_THROW(serve::load_response(forged), WireError);

    // An ok flag contradicting the failure code is rejected the same way.
    auto contradicted = bytes;
    contradicted[16 + 9] = 1;
    const uint64_t sum2 = wire::detail::checksum64(std::span<const uint8_t>(
        contradicted.data() + 16, contradicted.size() - 24));
    for (std::size_t i = 0; i < 8; ++i) {
        contradicted[contradicted.size() - 8 + i] =
            static_cast<uint8_t>(sum2 >> (8 * i));
    }
    EXPECT_THROW(serve::load_response(contradicted), WireError);
}

TEST(WireProtocol, BackendHintRoundTripAndValidation) {
    auto &b = bench();
    for (const serve::BackendHint hint :
         {serve::BackendHint::Auto, serve::BackendHint::Host,
          serve::BackendHint::Gpu}) {
        SCOPED_TRACE(serve::backend_hint_name(hint));
        serve::Request req;
        req.op = serve::Op::SqrLinRS;
        req.backend = hint;
        req.inputs.push_back(wire::serialize(b.enc(b.values(75))));
        const auto loaded = serve::load_request(wire::serialize(req));
        EXPECT_EQ(loaded.backend, hint);
    }

    // An out-of-range hint byte (with the checksum re-stamped so only the
    // hint is wrong) is a typed wire error, not an enum out of range.
    serve::Request req;
    req.op = serve::Op::SqrLinRS;
    req.inputs.push_back(wire::serialize(b.enc(b.values(76))));
    auto bytes = wire::serialize(req);
    // Envelope header is 16 bytes; the hint sits at fixed-prefix offset
    // 43 (tag 1, session 8, op 1, rotate 8, matmul 8, arrival 8,
    // cost_only 1, cost_level 8).
    bytes[16 + 43] = 3;
    const uint64_t sum = wire::detail::checksum64(std::span<const uint8_t>(
        bytes.data() + 16, bytes.size() - 24));
    for (std::size_t i = 0; i < 8; ++i) {
        bytes[bytes.size() - 8 + i] =
            static_cast<uint8_t>(sum >> (8 * i));
    }
    EXPECT_THROW(serve::load_request(bytes), WireError);
}

// ---------------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------------

TEST(WireChecksum, KnownAnswers) {
    // Pins the version-5 format: a changed checksum64 must come with a
    // new kVersion, never drift silently.  Lengths cover the empty input,
    // tail-only inputs, one full 32-byte stride and strides plus a tail.
    std::vector<uint8_t> pattern(4096);
    for (std::size_t i = 0; i < pattern.size(); ++i) {
        pattern[i] = static_cast<uint8_t>(i * 131 + 7);
    }
    const std::pair<std::size_t, uint64_t> expected[] = {
        {0, 0x89de55c1a347c45aull},    {1, 0x5b687d55d6a1cd18ull},
        {7, 0x39339a190f2d81fdull},    {8, 0xe49b76706e3eb6ecull},
        {31, 0x90a21bc793bc0d9eull},   {32, 0x8a832fd987cd0512ull},
        {33, 0x4d2148f74ef2dc71ull},   {4096, 0xbe9dc46d3ab22c9full},
    };
    for (const auto &[len, sum] : expected) {
        EXPECT_EQ(wire::detail::checksum64(
                      std::span<const uint8_t>(pattern.data(), len)),
                  sum)
            << "length " << len;
    }
}

/// Every single-bit flip of `bytes`, header and checksum included, must
/// raise WireError from `load_fn`.
template <typename LoadFn>
void expect_every_bit_flip_rejected(std::vector<uint8_t> bytes,
                                    LoadFn load_fn) {
    for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
        bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        EXPECT_THROW(load_fn(bytes), WireError) << "bit flip at " << bit;
        bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
}

TEST(WireChecksum, EveryBitFlipOfACiphertextEnvelopeIsRejected) {
    // Unseeded and seed-compressed, so the seed word is swept too.
    CkksBench tiny(8, 2);
    ckks::Encryptor sym(tiny.context, tiny.keygen.create_public_key(),
                        tiny.keygen.secret_key(), 0xFEED);
    const auto values = tiny.values(5);
    const ckks::Ciphertext cts[] = {
        tiny.enc(values),
        sym.encrypt_symmetric(tiny.encoder.encode(
            std::span<const complexd>(values), kScale))};
    for (const auto &ct : cts) {
        SCOPED_TRACE(ct.a_seeded ? "seeded" : "unseeded");
        const auto bytes = wire::serialize(ct);
        ASSERT_NO_THROW(wire::load_ciphertext(bytes, tiny.context));
        expect_every_bit_flip_rejected(
            bytes, [&](std::span<const uint8_t> s) {
                return wire::load_ciphertext(s, tiny.context);
            });
    }
}

TEST(WireChecksum, EveryBitFlipOfAChunkFrameIsRejected) {
    std::vector<uint8_t> body(100);
    for (std::size_t i = 0; i < body.size(); ++i) {
        body[i] = static_cast<uint8_t>(i * 29 + 3);
    }
    const auto frames = wire::chunk_message(7, body, 64);
    ASSERT_EQ(frames.size(), 2u);
    for (const auto &frame : frames) {
        ASSERT_NO_THROW(wire::open_chunk(frame));
        expect_every_bit_flip_rejected(frame, [](std::span<const uint8_t> s) {
            return wire::open_chunk(s);
        });
    }
}

/// Runs `load_fn` on `bytes` and returns the WireError's message ("" if
/// nothing was thrown).
template <typename LoadFn>
std::string wire_error_of(const std::vector<uint8_t> &bytes, LoadFn load_fn) {
    try {
        load_fn(bytes);
    } catch (const WireError &e) {
        return e.what();
    }
    return "";
}

TEST(WireChecksum, VersionFourIsRejectedEvenWithAValidChecksum) {
    // The envelope checksum covers the payload only, so a version-4
    // header around a version-5 body still checksums: the version check
    // alone must refuse it.
    auto envelope = wire::serialize(util::Modulus((1ull << 50) - 27));
    envelope[4] = 4;
    EXPECT_EQ(wire_error_of(envelope,
                            [](std::span<const uint8_t> s) {
                                return wire::load_enveloped<util::Modulus>(s);
                            }),
              "wire: unsupported version");

    // A chunk frame checksums its header too: re-stamp it after the edit.
    auto frame = wire::chunk_message(1, envelope).front();
    frame[4] = 4;
    const uint64_t sum = wire::detail::checksum64(
        std::span<const uint8_t>(frame.data(), frame.size() - 8));
    for (std::size_t i = 0; i < 8; ++i) {
        frame[frame.size() - 8 + i] = static_cast<uint8_t>(sum >> (8 * i));
    }
    EXPECT_EQ(wire_error_of(frame,
                            [](std::span<const uint8_t> s) {
                                return wire::open_chunk(s);
                            }),
              "wire: unsupported chunk version");
}

// ---------------------------------------------------------------------------
// Robustness: truncations, bit flips, type confusion
// ---------------------------------------------------------------------------

/// Every truncation, a deterministic sweep of single-bit corruptions, and
/// a one-byte extension of `bytes` must all raise WireError from `load_fn`
/// — never crash, never return an object.
template <typename LoadFn>
void fuzz_enveloped(const std::vector<uint8_t> &bytes, LoadFn load_fn,
                    const char *what) {
    SCOPED_TRACE(what);
    EXPECT_THROW(load_fn(std::span<const uint8_t>{}), WireError);

    const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 257);
    for (std::size_t len = 0; len < bytes.size(); len += stride) {
        EXPECT_THROW(
            load_fn(std::span<const uint8_t>(bytes.data(), len)), WireError)
            << "truncated to " << len << " of " << bytes.size();
    }

    std::vector<uint8_t> mutated = bytes;
    const std::size_t total_bits = bytes.size() * 8;
    for (std::size_t i = 0; i < 331; ++i) {
        const std::size_t bit = (i * 2654435761u) % total_bits;
        mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        EXPECT_THROW(load_fn(mutated), WireError) << "bit flip at " << bit;
        mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }

    std::vector<uint8_t> extended = bytes;
    extended.push_back(0);
    EXPECT_THROW(load_fn(extended), WireError) << "one trailing byte";
}

TEST(WireFuzz, EveryLoadOverloadRejectsCorruption) {
    auto &b = bench();
    const auto &ctx = b.context;

    fuzz_enveloped(
        wire::serialize(util::Modulus((1ull << 50) - 27)),
        [](std::span<const uint8_t> s) {
            return wire::load_enveloped<util::Modulus>(s);
        },
        "modulus");
    fuzz_enveloped(
        wire::serialize(util::generate_ntt_primes(50, 1024, 4)),
        [](std::span<const uint8_t> s) {
            return wire::load_enveloped<std::vector<util::Modulus>>(s);
        },
        "modulus chain");
    fuzz_enveloped(
        wire::serialize(ckks::EncryptionParameters::create(1024, 3)),
        [](std::span<const uint8_t> s) { return wire::load_parameters(s); },
        "parameters");
    fuzz_enveloped(
        wire::serialize(b.encoder.encode(
            std::span<const complexd>(b.values(81)), kScale)),
        [&](std::span<const uint8_t> s) {
            return wire::load_enveloped<ckks::Plaintext>(s, ctx);
        },
        "plaintext");
    fuzz_enveloped(
        wire::serialize(b.enc(b.values(82))),
        [&](std::span<const uint8_t> s) {
            return wire::load_ciphertext(s, ctx);
        },
        "ciphertext");
    fuzz_enveloped(
        wire::serialize(b.keygen.secret_key()),
        [&](std::span<const uint8_t> s) {
            return wire::load_enveloped<ckks::SecretKey>(s, ctx);
        },
        "secret key");
    fuzz_enveloped(
        wire::serialize(b.keygen.create_public_key()),
        [&](std::span<const uint8_t> s) {
            return wire::load_enveloped<ckks::PublicKey>(s, ctx);
        },
        "public key");
    const auto relin = b.keygen.create_relin_keys();
    fuzz_enveloped(
        wire::serialize(relin.key),
        [&](std::span<const uint8_t> s) {
            return wire::load_enveloped<ckks::KSwitchKey>(s, ctx);
        },
        "kswitch key");
    fuzz_enveloped(
        wire::serialize(relin),
        [&](std::span<const uint8_t> s) {
            return wire::load_relin_keys(s, ctx);
        },
        "relin keys");
    const int steps[] = {1};
    fuzz_enveloped(
        wire::serialize(b.keygen.create_galois_keys(steps)),
        [&](std::span<const uint8_t> s) {
            return wire::load_galois_keys(s, ctx);
        },
        "galois keys");

    serve::Request req;
    req.op = serve::Op::SqrLinRS;
    req.inputs.push_back(wire::serialize(b.enc(b.values(83))));
    fuzz_enveloped(
        wire::serialize(req),
        [](std::span<const uint8_t> s) { return serve::load_request(s); },
        "request");
    serve::Response resp;
    resp.ok = true;
    resp.result = {1, 2, 3};
    fuzz_enveloped(
        wire::serialize(resp),
        [](std::span<const uint8_t> s) { return serve::load_response(s); },
        "response");
    serve::Response invalid_program;
    invalid_program.ok = false;
    invalid_program.code = serve::Status::InvalidProgram;
    invalid_program.error = "serve: program rejected: MissingRotation: "
                            "no galois key for rotation step 3";
    fuzz_enveloped(
        wire::serialize(invalid_program),
        [](std::span<const uint8_t> s) { return serve::load_response(s); },
        "invalid-program response");
}

// A hostile envelope declaring a payload length near SIZE_MAX must be
// rejected by the length-consistency check before any allocation sized
// from the field could be attempted (and the arithmetic must not wrap
// past the bounds check).
TEST(WireFuzz, HugePayloadLengthRejectedBeforeAllocation) {
    const auto craft = [](uint64_t payload_len) {
        wire::Writer w;
        w.u32(wire::kMagic);
        w.u16(wire::kVersion);
        w.u16(0);
        w.u64(payload_len);
        w.u64(0);  // "checksum" — must never be reached
        return w.take();
    };
    for (const uint64_t len :
         {std::numeric_limits<uint64_t>::max(),
          std::numeric_limits<uint64_t>::max() - wire::kEnvelopeBytes + 1,
          std::numeric_limits<uint64_t>::max() / 2, uint64_t{1} << 40}) {
        SCOPED_TRACE(len);
        EXPECT_THROW(wire::detail::open_envelope(craft(len)), WireError);
        EXPECT_THROW(serve::load_request(craft(len)), WireError);
        EXPECT_THROW(wire::load_enveloped<util::Modulus>(craft(len)),
                     WireError);
    }

    // Same property for chunk frames: an oversized payload_len header
    // field fails the bound, not an allocation.
    wire::Writer w;
    w.u32(wire::kChunkMagic);
    w.u16(wire::kVersion);
    w.u16(0);                         // flags: not last
    w.u64(1);                         // stream id
    w.u32(0);                         // seq
    w.u32(std::numeric_limits<uint32_t>::max());  // payload_len
    w.u64(0);                         // offset
    w.u64(wire::kMaxStreamBytes);     // total_len
    auto frame = w.take();
    const uint64_t sum = wire::detail::checksum64(frame);
    wire::Writer tail;
    tail.u64(sum);
    const auto tail_bytes = tail.take();
    frame.insert(frame.end(), tail_bytes.begin(), tail_bytes.end());
    EXPECT_THROW(wire::open_chunk(frame), WireError);
}

TEST(WireFuzz, TypeConfusionRejected) {
    auto &b = bench();
    const auto ct_bytes = wire::serialize(b.enc(b.values(91)));
    EXPECT_THROW(wire::load_enveloped<ckks::PublicKey>(ct_bytes, b.context),
                 WireError);
    EXPECT_THROW(wire::load_enveloped<ckks::Plaintext>(ct_bytes, b.context),
                 WireError);
    EXPECT_THROW(wire::load_parameters(ct_bytes), WireError);
    EXPECT_THROW(serve::load_request(ct_bytes), WireError);
}

TEST(WireFuzz, ContextMismatchRejected) {
    auto &b = bench();
    const ckks::CkksContext other(ckks::EncryptionParameters::create(2048, 3));
    const auto bytes = wire::serialize(b.enc(b.values(92)));
    EXPECT_THROW(wire::load_ciphertext(bytes, other), WireError);
}

TEST(WireFuzz, SpecialPrimeLevelRejected) {
    auto &b = bench();
    // A crafted "data" ciphertext over the full key base (rns == key_rns,
    // the special-prime level) passes every structural check except the
    // level cap — no encryptor can produce it, so the wire rejects it.
    ckks::Ciphertext ct;
    ct.resize(b.context.n(), 2, b.context.key_rns());
    ct.scale = kScale;
    EXPECT_THROW(wire::load_ciphertext(wire::serialize(ct), b.context),
                 WireError);
}

TEST(WireSeedInvalidation, HostEvaluatorOpsClearSeedFlag) {
    auto &b = bench();
    ckks::Encryptor sym(b.context, b.keygen.create_public_key(),
                        b.keygen.secret_key(), 0xFEED);
    const auto values_a = b.values(94);
    const auto values_b = b.values(95);
    const auto ct_a = sym.encrypt_symmetric(b.encoder.encode(
        std::span<const complexd>(values_a), kScale));
    const auto ct_b = sym.encrypt_symmetric(b.encoder.encode(
        std::span<const complexd>(values_b), kScale));
    ASSERT_TRUE(ct_a.a_seeded);

    // Size-preserving host ops rewrite poly(1) of a copied input; the
    // inherited seed must be dropped or serialization would silently
    // reconstruct the pre-op uniform component.
    const auto plain = b.encoder.encode(
        std::span<const complexd>(values_b), kScale);
    for (const auto &ct :
         {b.evaluator.add(ct_a, ct_b), b.evaluator.sub(ct_a, ct_b),
          b.evaluator.negate(ct_a), b.evaluator.multiply_plain(ct_a, plain)}) {
        EXPECT_FALSE(ct.a_seeded);
        const auto loaded =
            wire::load_ciphertext(wire::serialize(ct), b.context);
        EXPECT_EQ(loaded.data, ct.data);
        EXPECT_EQ(b.decryptor.decrypt(loaded).data,
                  b.decryptor.decrypt(ct).data);
    }

    // add_plain leaves poly(1) untouched, so its seed stays valid and the
    // result still ships compressed.
    const auto added = b.evaluator.add_plain(ct_a, plain);
    EXPECT_TRUE(added.a_seeded);
    const auto loaded =
        wire::load_ciphertext(wire::serialize(added), b.context);
    EXPECT_EQ(loaded.data, added.data);
}

TEST(WireSeedInvalidation, ResizeClearsSeedFlag) {
    auto &b = bench();
    ckks::Encryptor sym(b.context, b.keygen.create_public_key(),
                        b.keygen.secret_key(), 0xFEED);
    auto ct = sym.encrypt_symmetric(b.encoder.encode(
        std::span<const complexd>(b.values(93)), kScale));
    ASSERT_TRUE(ct.a_seeded);
    ct.resize(ct.n, 2, ct.rns);
    EXPECT_FALSE(ct.a_seeded);
}

}  // namespace
}  // namespace xehe::test
