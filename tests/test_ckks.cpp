// End-to-end tests of the CKKS scheme: encoding precision, encryption,
// every evaluator primitive checked against plaintext arithmetic, and the
// noise/scale bookkeeping of the rescale chain.
#include <gtest/gtest.h>

#include "ckks/encoder.h"
#include "ckks/evaluator.h"
#include "test_common.h"
#include "xgpu/threadpool.h"

namespace xc = xehe::ckks;

using xehe::test::expect_close;
using xehe::test::kScale;
using TestBench = xehe::test::CkksBench;

namespace {

std::vector<std::complex<double>> random_values(std::size_t count,
                                                uint64_t seed,
                                                double magnitude = 1.0) {
    return xehe::test::random_complex(count, seed, magnitude);
}

}  // namespace

TEST(CkksEncoder, EncodeDecodeRoundtrip) {
    TestBench bench;
    const auto values = random_values(bench.encoder.slots(), 1);
    const auto plain = bench.encoder.encode(
        std::span<const std::complex<double>>(values), kScale);
    const auto decoded = bench.encoder.decode(plain);
    expect_close(decoded, values, 1e-7, "encode/decode");
}

TEST(CkksEncoder, PartialVectorPadsWithZeros) {
    TestBench bench;
    const auto values = random_values(10, 2);
    const auto plain = bench.encoder.encode(
        std::span<const std::complex<double>>(values), kScale);
    const auto decoded = bench.encoder.decode(plain);
    expect_close(decoded, values, 1e-7, "partial encode");
    for (std::size_t i = 10; i < bench.encoder.slots(); ++i) {
        EXPECT_LT(std::abs(decoded[i]), 1e-7);
    }
}

TEST(CkksEncoder, ConstantBroadcast) {
    TestBench bench;
    const auto plain = bench.encoder.encode(3.25, kScale);
    const auto decoded = bench.encoder.decode(plain);
    for (std::size_t i = 0; i < bench.encoder.slots(); ++i) {
        EXPECT_NEAR(decoded[i].real(), 3.25, 1e-7);
        EXPECT_NEAR(decoded[i].imag(), 0.0, 1e-7);
    }
}

TEST(CkksEncoder, LowerLevelEncoding) {
    TestBench bench;
    const auto values = random_values(bench.encoder.slots(), 3);
    const auto plain = bench.encoder.encode(
        std::span<const std::complex<double>>(values), kScale, 2);
    EXPECT_EQ(plain.rns, 2u);
    expect_close(bench.encoder.decode(plain), values, 1e-7, "level-2 encode");
}

TEST(CkksEncoder, RejectsBadInput) {
    TestBench bench;
    const auto too_many = random_values(bench.encoder.slots() + 1, 4);
    EXPECT_THROW(bench.encoder.encode(
                     std::span<const std::complex<double>>(too_many), kScale),
                 std::invalid_argument);
    const auto values = random_values(4, 5);
    EXPECT_THROW(bench.encoder.encode(
                     std::span<const std::complex<double>>(values), -1.0),
                 std::invalid_argument);
    // Coefficients overflowing 62 bits must be rejected.
    EXPECT_THROW(bench.encoder.encode(1e6, std::ldexp(1.0, 60)),
                 std::invalid_argument);
}

TEST(Ckks, EncryptDecrypt) {
    TestBench bench;
    const auto values = random_values(bench.encoder.slots(), 6);
    const auto plain = bench.encoder.encode(
        std::span<const std::complex<double>>(values), kScale);
    const auto ct = bench.encryptor.encrypt(plain);
    EXPECT_EQ(ct.size, 2u);
    EXPECT_EQ(ct.rns, bench.context.max_level());
    const auto decrypted = bench.decryptor.decrypt(ct);
    expect_close(bench.encoder.decode(decrypted), values, 1e-4,
                 "encrypt/decrypt noise");
}

// A ciphertext whose shape disagrees with the context is rejected before
// any residue or key word is read.
TEST(Ckks, DecryptRejectsMalformedCiphertext) {
    TestBench bench(1024, 2);
    const auto values = random_values(bench.encoder.slots(), 16);
    const auto good = bench.enc(values);
    ASSERT_NO_THROW(bench.decryptor.decrypt(good));
    const auto rejects = [&](auto &&mutate) {
        xc::Ciphertext bad = good;
        mutate(bad);
        EXPECT_THROW(bench.decryptor.decrypt(bad), std::invalid_argument);
    };
    rejects([](xc::Ciphertext &c) { c.rns = 0; });
    rejects([&](xc::Ciphertext &c) {
        c.rns = bench.context.max_level() + 1;
        c.data.resize(c.size * c.rns * c.n);
    });
    rejects([&](xc::Ciphertext &c) {
        c.rns = bench.context.max_level() + 2;
        c.data.resize(c.size * c.rns * c.n);
    });
    rejects([](xc::Ciphertext &c) { c.data.resize(c.data.size() - 1); });
    rejects([](xc::Ciphertext &c) { c.size = 3; });
    rejects([](xc::Ciphertext &c) { c.size = 4; });
    rejects([](xc::Ciphertext &c) { c.n /= 2; });
}

TEST(Ckks, AddSubNegate) {
    TestBench bench;
    const auto a = random_values(bench.encoder.slots(), 7);
    const auto b = random_values(bench.encoder.slots(), 8);
    const auto ct_a = bench.encryptor.encrypt(bench.encoder.encode(
        std::span<const std::complex<double>>(a), kScale));
    const auto ct_b = bench.encryptor.encrypt(bench.encoder.encode(
        std::span<const std::complex<double>>(b), kScale));

    std::vector<std::complex<double>> sum(a.size()), diff(a.size()),
        neg(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        sum[i] = a[i] + b[i];
        diff[i] = a[i] - b[i];
        neg[i] = -a[i];
    }
    expect_close(bench.encoder.decode(bench.decryptor.decrypt(
                     bench.evaluator.add(ct_a, ct_b))),
                 sum, 1e-4, "add");
    expect_close(bench.encoder.decode(bench.decryptor.decrypt(
                     bench.evaluator.sub(ct_a, ct_b))),
                 diff, 1e-4, "sub");
    expect_close(bench.encoder.decode(bench.decryptor.decrypt(
                     bench.evaluator.negate(ct_a))),
                 neg, 1e-4, "negate");
}

TEST(Ckks, AddPlainAndMultiplyPlain) {
    TestBench bench;
    const auto a = random_values(bench.encoder.slots(), 9);
    const auto b = random_values(bench.encoder.slots(), 10);
    const auto ct = bench.encryptor.encrypt(bench.encoder.encode(
        std::span<const std::complex<double>>(a), kScale));
    const auto plain_b = bench.encoder.encode(
        std::span<const std::complex<double>>(b), kScale);

    std::vector<std::complex<double>> sum(a.size()), prod(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        sum[i] = a[i] + b[i];
        prod[i] = a[i] * b[i];
    }
    expect_close(bench.encoder.decode(bench.decryptor.decrypt(
                     bench.evaluator.add_plain(ct, plain_b))),
                 sum, 1e-4, "add_plain");
    const auto ct_prod = bench.evaluator.multiply_plain(ct, plain_b);
    EXPECT_NEAR(ct_prod.scale, kScale * kScale, 1.0);
    expect_close(bench.encoder.decode(bench.decryptor.decrypt(ct_prod)), prod,
                 1e-3, "multiply_plain");
}

TEST(Ckks, MultiplyDecryptsAtSizeThree) {
    TestBench bench;
    const auto a = random_values(bench.encoder.slots(), 11);
    const auto b = random_values(bench.encoder.slots(), 12);
    const auto ct_a = bench.encryptor.encrypt(bench.encoder.encode(
        std::span<const std::complex<double>>(a), kScale));
    const auto ct_b = bench.encryptor.encrypt(bench.encoder.encode(
        std::span<const std::complex<double>>(b), kScale));
    const auto ct_prod = bench.evaluator.multiply(ct_a, ct_b);
    EXPECT_EQ(ct_prod.size, 3u);

    std::vector<std::complex<double>> prod(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        prod[i] = a[i] * b[i];
    }
    expect_close(bench.encoder.decode(bench.decryptor.decrypt(ct_prod)), prod,
                 1e-3, "size-3 decrypt");
}

TEST(Ckks, MultiplyRelinearizeRescale) {
    TestBench bench;
    const auto relin = bench.keygen.create_relin_keys();
    const auto a = random_values(bench.encoder.slots(), 13);
    const auto b = random_values(bench.encoder.slots(), 14);
    const auto ct_a = bench.encryptor.encrypt(bench.encoder.encode(
        std::span<const std::complex<double>>(a), kScale));
    const auto ct_b = bench.encryptor.encrypt(bench.encoder.encode(
        std::span<const std::complex<double>>(b), kScale));

    auto ct = bench.evaluator.multiply(ct_a, ct_b);
    ct = bench.evaluator.relinearize(ct, relin);
    EXPECT_EQ(ct.size, 2u);
    ct = bench.evaluator.rescale(ct);
    EXPECT_EQ(ct.rns, bench.context.max_level() - 1);

    std::vector<std::complex<double>> prod(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        prod[i] = a[i] * b[i];
    }
    expect_close(bench.encoder.decode(bench.decryptor.decrypt(ct)), prod, 1e-3,
                 "MulLinRS");
}

TEST(Ckks, SquareMatchesMultiply) {
    TestBench bench;
    const auto relin = bench.keygen.create_relin_keys();
    const auto a = random_values(bench.encoder.slots(), 15);
    const auto ct_a = bench.encryptor.encrypt(bench.encoder.encode(
        std::span<const std::complex<double>>(a), kScale));
    auto ct = bench.evaluator.square(ct_a);
    ct = bench.evaluator.relinearize(ct, relin);
    ct = bench.evaluator.rescale(ct);

    std::vector<std::complex<double>> sq(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        sq[i] = a[i] * a[i];
    }
    expect_close(bench.encoder.decode(bench.decryptor.decrypt(ct)), sq, 1e-3,
                 "SqrLinRS");
}

TEST(Ckks, TwoLevelMultiplicationChain) {
    TestBench bench;
    const auto relin = bench.keygen.create_relin_keys();
    const auto a = random_values(bench.encoder.slots(), 16, 0.7);
    // A scale near the 50-bit prime size keeps precision through two
    // rescales (2^40 would decay to ~2^10 and drown in noise).
    const double chain_scale = std::ldexp(1.0, 49);
    const auto ct_a = bench.encryptor.encrypt(bench.encoder.encode(
        std::span<const std::complex<double>>(a), chain_scale));
    // a^2
    auto ct = bench.evaluator.rescale(
        bench.evaluator.relinearize(bench.evaluator.square(ct_a), relin));
    // a^4
    ct = bench.evaluator.rescale(
        bench.evaluator.relinearize(bench.evaluator.square(ct), relin));

    std::vector<std::complex<double>> quad(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        quad[i] = a[i] * a[i] * a[i] * a[i];
    }
    expect_close(bench.encoder.decode(bench.decryptor.decrypt(ct)), quad, 1e-2,
                 "depth-2 chain");
}

TEST(Ckks, ModSwitchPreservesMessage) {
    TestBench bench;
    const auto a = random_values(bench.encoder.slots(), 17);
    auto ct = bench.encryptor.encrypt(bench.encoder.encode(
        std::span<const std::complex<double>>(a), kScale));
    ct = bench.evaluator.mod_switch(ct);
    EXPECT_EQ(ct.rns, bench.context.max_level() - 1);
    EXPECT_DOUBLE_EQ(ct.scale, kScale);
    expect_close(bench.encoder.decode(bench.decryptor.decrypt(ct)), a, 1e-4,
                 "mod_switch");
}

TEST(Ckks, RotateShiftsSlots) {
    TestBench bench;
    const int steps[] = {1, 2, 5};
    const auto gk = bench.keygen.create_galois_keys(steps);
    const std::size_t slots = bench.encoder.slots();
    const auto a = random_values(slots, 18);
    const auto ct = bench.encryptor.encrypt(bench.encoder.encode(
        std::span<const std::complex<double>>(a), kScale));

    for (int step : steps) {
        const auto rotated = bench.evaluator.rotate(ct, step, gk);
        const auto decoded =
            bench.encoder.decode(bench.decryptor.decrypt(rotated));
        // Cyclic left shift by `step`.
        std::vector<std::complex<double>> expect(slots);
        for (std::size_t i = 0; i < slots; ++i) {
            expect[i] = a[(i + static_cast<std::size_t>(step)) % slots];
        }
        expect_close(decoded, expect, 1e-3,
                     ("rotate step " + std::to_string(step)).c_str());
    }
}

TEST(Ckks, RotateByZeroIsIdentity) {
    TestBench bench;
    const int steps[] = {1};
    const auto gk = bench.keygen.create_galois_keys(steps);
    const auto a = random_values(bench.encoder.slots(), 19);
    const auto ct = bench.encryptor.encrypt(bench.encoder.encode(
        std::span<const std::complex<double>>(a), kScale));
    const auto r = bench.evaluator.rotate(ct, 0, gk);
    expect_close(bench.encoder.decode(bench.decryptor.decrypt(r)), a, 1e-4,
                 "rotate 0");
}

TEST(Ckks, ConjugateConjugatesSlots) {
    TestBench bench;
    const auto gk = bench.keygen.create_conjugation_keys();
    const auto a = random_values(bench.encoder.slots(), 20);
    const auto ct = bench.encryptor.encrypt(bench.encoder.encode(
        std::span<const std::complex<double>>(a), kScale));
    const auto conj = bench.evaluator.conjugate(ct, gk);
    std::vector<std::complex<double>> expect(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        expect[i] = std::conj(a[i]);
    }
    expect_close(bench.encoder.decode(bench.decryptor.decrypt(conj)), expect,
                 1e-3, "conjugate");
}

TEST(Ckks, MulLinRSModSwAddRoutine) {
    // The paper's most complex benchmarked routine: multiply, relinearize,
    // rescale, mod-switch another ciphertext down, then add.
    TestBench bench;
    const auto relin = bench.keygen.create_relin_keys();
    const auto a = random_values(bench.encoder.slots(), 21);
    const auto b = random_values(bench.encoder.slots(), 22);
    const auto c = random_values(bench.encoder.slots(), 23);
    const auto ct_a = bench.encryptor.encrypt(bench.encoder.encode(
        std::span<const std::complex<double>>(a), kScale));
    const auto ct_b = bench.encryptor.encrypt(bench.encoder.encode(
        std::span<const std::complex<double>>(b), kScale));

    auto prod = bench.evaluator.rescale(bench.evaluator.relinearize(
        bench.evaluator.multiply(ct_a, ct_b), relin));
    // Encode c directly at the product's level and scale, then add.
    const auto plain_c = bench.encoder.encode(
        std::span<const std::complex<double>>(c), prod.scale, prod.rns);
    const auto ct_c = bench.encryptor.encrypt(plain_c);
    const auto sum = bench.evaluator.add(prod, ct_c);

    std::vector<std::complex<double>> expect(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        expect[i] = a[i] * b[i] + c[i];
    }
    expect_close(bench.encoder.decode(bench.decryptor.decrypt(sum)), expect,
                 1e-3, "MulLinRSModSwAdd");
}

TEST(Ckks, ScaleMismatchThrows) {
    TestBench bench;
    const auto a = random_values(bench.encoder.slots(), 24);
    const auto ct1 = bench.encryptor.encrypt(bench.encoder.encode(
        std::span<const std::complex<double>>(a), kScale));
    const auto ct2 = bench.encryptor.encrypt(bench.encoder.encode(
        std::span<const std::complex<double>>(a), 2 * kScale));
    EXPECT_THROW(bench.evaluator.add(ct1, ct2), std::invalid_argument);
}

TEST(Ckks, RescaleAtBottomLevelThrows) {
    TestBench bench(2048, 1);
    const auto a = random_values(bench.encoder.slots(), 25);
    const auto ct = bench.encryptor.encrypt(bench.encoder.encode(
        std::span<const std::complex<double>>(a), kScale));
    EXPECT_THROW(bench.evaluator.rescale(ct), std::invalid_argument);
}

TEST(Ckks, SmallDegreeParameters) {
    // The whole pipeline must also work at toy sizes (fast tests).
    TestBench bench(512, 2);
    const auto a = random_values(bench.encoder.slots(), 26);
    const auto ct = bench.encryptor.encrypt(bench.encoder.encode(
        std::span<const std::complex<double>>(a), kScale));
    expect_close(bench.encoder.decode(bench.decryptor.decrypt(ct)), a, 1e-3,
                 "n=512");
}

// Pins the client-side randomness: the ciphertext words (and the drawn `a`
// seed) of a symmetric and a public-key encryption under fixed key and
// encryptor seeds.  Any change to the engine, to the ternary, error or
// seeded-uniform samplers, or to the order of draws fails here rather than
// silently changing what clients send.
TEST(Ckks, SeededEncryptionsMatchGoldenDigests) {
    const xc::CkksContext context(xc::EncryptionParameters::create(1024, 2));
    xc::KeyGenerator keygen(context, 0x5EA1);
    xc::Encryptor encryptor(context, keygen.create_public_key(),
                            keygen.secret_key(), 0xE4C12f7);
    xc::Plaintext plain;
    plain.n = context.n();
    plain.rns = context.max_level();
    plain.scale = kScale;
    plain.data.resize(plain.rns * plain.n);
    for (std::size_t i = 0; i < plain.data.size(); ++i) {
        plain.data[i] = i * 0x9E3779B9ull;  // < every 2-level data prime
    }
    const auto digest = [](const xc::Ciphertext &ct) {
        uint64_t h = 0xcbf29ce484222325ULL ^ ct.a_seed;
        for (const uint64_t w : ct.data) {
            h = (h ^ w) * 0x100000001b3ULL;
        }
        return h;
    };
    const auto symmetric = encryptor.encrypt_symmetric(plain);
    ASSERT_TRUE(symmetric.a_seeded);
    const auto asymmetric = encryptor.encrypt(plain);
    EXPECT_EQ(digest(symmetric), 0x8e16f6377be3679aULL);
    EXPECT_EQ(digest(asymmetric), 0x4bdff619264b0cebULL);
}

// A secret key is sliced at r·N by decryption and symmetric encryption, so
// one that does not cover every key limb is refused at construction.
TEST(Ckks, SecretKeyMustCoverEveryKeyLimb) {
    TestBench bench(1024, 2);
    const std::size_t n = bench.context.n();
    const xc::PublicKey pk = bench.keygen.create_public_key();
    for (const std::size_t words :
         {n, (bench.context.key_rns() - 1) * n,
          (bench.context.key_rns() + 1) * n}) {
        SCOPED_TRACE(words);
        xc::SecretKey bad;
        bad.data.assign(words, 0);
        EXPECT_THROW(xc::Decryptor(bench.context, bad), std::invalid_argument);
        EXPECT_THROW(xc::Encryptor(bench.context, pk, bad),
                     std::invalid_argument);
    }
    EXPECT_NO_THROW(xc::Decryptor(bench.context, bench.keygen.secret_key()));
    EXPECT_NO_THROW(xc::Encryptor(bench.context, pk,
                                  bench.keygen.secret_key()));
}

// Key-switching keys of a smaller context are refused before any word is
// read: too few keys at the top level, and keys over the wrong key base
// one level down (where the count alone would pass).
TEST(Ckks, KeySwitchRejectsKeysOfAnotherContext) {
    TestBench bench(1024, 3);
    const xc::CkksContext small(xc::EncryptionParameters::create(1024, 2));
    xc::KeyGenerator small_keygen(small);
    const xc::RelinKeys bad = small_keygen.create_relin_keys();
    const int step = 1;
    const xc::GaloisKeys bad_galois =
        small_keygen.create_galois_keys(std::span<const int>(&step, 1));
    xehe::xgpu::ThreadPool pool(1);
    const xc::Evaluator pooled(bench.context, &pool);
    auto ct = bench.enc(bench.values(3));
    for (int down = 0; down < 2; ++down) {
        SCOPED_TRACE(ct.rns);
        const auto product = bench.evaluator.multiply(ct, ct);
        const xc::Evaluator *const evaluators[] = {&bench.evaluator, &pooled};
        for (const xc::Evaluator *eval : evaluators) {
            EXPECT_THROW(eval->relinearize(product, bad),
                         std::invalid_argument);
            EXPECT_THROW(eval->rotate(ct, step, bad_galois),
                         std::invalid_argument);
        }
        ct = bench.evaluator.mod_switch(ct);
    }
}

// The pooled evaluator splits its key-switch, rescale and multiply limb
// loops into tasks.  Every task writes its own limbs with the serial
// arithmetic, so each result is the serial oracle's, word for word, on
// any pool size and at every level.
TEST(EvaluatorPool, BitIdenticalToSerialAtEveryLevel) {
    struct Shape {
        std::size_t n, levels;
    };
    for (const Shape shape : {Shape{1024, 2}, Shape{1024, 4}, Shape{8192, 3}}) {
        TestBench bench(shape.n, shape.levels);
        const xc::Evaluator &serial = bench.evaluator;
        const xc::RelinKeys relin = bench.keygen.create_relin_keys();
        const int steps[] = {1, -3};
        const xc::GaloisKeys galois = bench.keygen.create_galois_keys(steps);
        const xc::GaloisKeys conj = bench.keygen.create_conjugation_keys();
        for (const unsigned workers : {1u, 3u}) {
            xehe::xgpu::ThreadPool pool(workers);
            const xc::Evaluator pooled(bench.context, &pool);
            auto a = bench.enc(bench.values(1));
            auto b = bench.enc(bench.values(2));
            for (std::size_t level = shape.levels; level >= 1; --level) {
                SCOPED_TRACE("N=" + std::to_string(shape.n) +
                             " L=" + std::to_string(shape.levels) +
                             " level=" + std::to_string(level) +
                             " workers=" + std::to_string(workers));
                const auto same = [](const xc::Ciphertext &x,
                                     const xc::Ciphertext &y) {
                    EXPECT_EQ(x.size, y.size);
                    EXPECT_EQ(x.rns, y.rns);
                    EXPECT_EQ(x.scale, y.scale);
                    EXPECT_TRUE(x.data == y.data);
                };
                const auto product = serial.multiply(a, b);
                same(pooled.multiply(a, b), product);
                same(pooled.square(a), serial.square(a));
                const auto lin = serial.relinearize(product, relin);
                same(pooled.relinearize(product, relin), lin);
                for (const int step : steps) {
                    same(pooled.rotate(a, step, galois),
                         serial.rotate(a, step, galois));
                }
                same(pooled.conjugate(a, conj), serial.conjugate(a, conj));
                if (level == 1) {
                    break;
                }
                same(pooled.rescale(lin), serial.rescale(lin));
                same(pooled.rescale(product), serial.rescale(product));
                same(pooled.mod_switch(a), serial.mod_switch(a));
                a = serial.mod_switch(a);
                b = serial.mod_switch(b);
            }
        }
    }
}
