// Batch serving: four concurrent user sessions on one dual-tile device.
//
// Each session encrypts its own inputs and sends one MulLinRS request to
// an InferenceServer, which pins it round-robin to a per-tile lane of its
// evaluator pool; every session then decrypts its own response.  Sessions
// on different tiles overlap on the simulated timeline while every
// session's kernel chain stays in-order on its lane.  Prints per-session
// accuracy and the overlap across lanes; exits non-zero if a request
// fails or a result is off.
#include <cmath>
#include <cstdio>
#include <vector>

#include "ckks/encoder.h"
#include "obs/metrics.h"
#include "serve/server.h"

int main() {
    using namespace xehe;

    const ckks::CkksContext context(
        ckks::EncryptionParameters::create(8192, 3));

    ckks::CkksEncoder encoder(context);
    ckks::KeyGenerator keygen(context);
    ckks::Encryptor encryptor(context, keygen.create_public_key());
    ckks::Decryptor decryptor(context, keygen.secret_key());

    // A server with one lane (queue + evaluator) per tile of Device1,
    // holding the tenant's evaluation keys.
    core::GpuOptions options;
    options.isa = xgpu::IsaMode::InlineAsm;
    serve::InferenceServer server(context, xgpu::device1(), options);
    server.set_keys(keygen.create_relin_keys(), ckks::GaloisKeys{});
    std::printf("serving on %zu per-tile queues\n\n", server.lane_count());

    constexpr std::size_t kSessions = 4;
    struct Session {
        std::vector<double> a, b;
    };
    std::vector<Session> sessions(kSessions);

    // Each session encrypts private inputs and submits one request.
    for (std::size_t s = 0; s < kSessions; ++s) {
        auto &session = sessions[s];
        session.a.resize(encoder.slots());
        session.b.resize(encoder.slots());
        for (std::size_t i = 0; i < session.a.size(); ++i) {
            session.a[i] = 0.001 * static_cast<double>((s + i) % 1000);
            session.b[i] = 1.0 + 0.25 * static_cast<double>(s);
        }
        serve::Request req;
        req.session_id = s;
        req.op = serve::Op::MulLinRS;
        for (const auto *values : {&session.a, &session.b}) {
            req.inputs.push_back(wire::serialize(
                encryptor.encrypt(encoder.encode(
                    std::span<const double>(*values),
                    core::kWorkloadScale))));
        }
        server.submit(wire::serialize(req));
    }

    // Serve every session; chains stay ordered per lane, lanes overlap.
    const auto responses = server.run();
    const serve::LatencyStats stats = server.stats();
    const double busy_ms =
        obs::Registry::global().gauge("xgpu.busy_ns").value() * 1e-6;

    // Each session decrypts its own result.
    int failures = 0;
    std::printf("session  lane      slot[1]     expected      error\n");
    for (const auto &resp : responses) {
        const std::size_t s = resp.session_id;
        if (!resp.ok) {
            std::printf("%7zu FAILED: %s\n", s, resp.error.c_str());
            ++failures;
            continue;
        }
        const auto ct = wire::load_ciphertext(resp.result, context);
        const auto decoded = encoder.decode(decryptor.decrypt(ct));
        const double expect = sessions[s].a[1] * sessions[s].b[1];
        const double error = std::abs(decoded[1].real() - expect);
        std::printf("%7zu %5zu %12.5f %12.5f %10.2e\n", s,
                    s % server.lane_count(), decoded[1].real(), expect,
                    error);
        if (error > 1e-3) {
            ++failures;
        }
    }

    std::printf("\nsimulated serving: makespan %.3f ms, busy %.3f ms, "
                "%.2fx overlap across %zu queues\n",
                stats.makespan_ms, busy_ms, busy_ms / stats.makespan_ms,
                server.lane_count());
    return failures == 0 && stats.requests == kSessions ? 0 : 1;
}
