// Serving round trip: a client and a server that share nothing but bytes.
//
// The client encodes and symmetrically encrypts two vectors (seed
// compression halves the fresh ciphertext wire size), serializes
// parameters, evaluation keys and requests; the "server" rebuilds its CKKS
// context from the wire parameters, deserializes everything, runs the
// requests on the evaluator pool through the admission queue, and answers
// with serialized responses; the client decrypts the results and checks
// them against the plaintext computation.  Every arrow of Fig. 1's
// client/server flow crosses a real (validated, checksummed) wire buffer.
// A third request ships a client circuit, rescale(relin(a*b)) + c,
// encrypted through he::Session at the session's own scale (the last
// data prime, not 2^40) with c one level down: the server plans it for
// the operands' real level and scale, as Session::run would.
//
// `--trace <path>` additionally records the served requests with the obs
// tracing subsystem and writes a Chrome trace-event JSON file — load it
// at ui.perfetto.dev to see each request's span tree from wire parse to
// kernel launches.  The file is re-parsed and structurally validated
// before the example reports success.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "ckks/encoder.h"
#include "he/session.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "serve/server.h"

int main(int argc, char **argv) {
    using namespace xehe;

    std::string trace_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            trace_path = argv[++i];
        }
    }

    // --- client: scheme setup and key material -------------------------
    const ckks::EncryptionParameters params =
        ckks::EncryptionParameters::create(8192, 3);
    const ckks::CkksContext client_ctx(params);
    const double scale = 1099511627776.0;  // 2^40

    ckks::CkksEncoder encoder(client_ctx);
    ckks::KeyGenerator keygen(client_ctx);
    ckks::Encryptor encryptor(client_ctx, keygen.create_public_key(),
                              keygen.secret_key());
    ckks::Decryptor decryptor(client_ctx, keygen.secret_key());

    const auto params_bytes = wire::serialize(params);
    const auto relin_bytes = wire::serialize(keygen.create_relin_keys());
    const int steps[] = {1};
    const auto galois_bytes =
        wire::serialize(keygen.create_galois_keys(steps));

    // --- client: encrypt inputs and build request bytes -----------------
    std::vector<double> a(encoder.slots()), b(encoder.slots());
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = 0.001 * static_cast<double>(i % 1000);
        b[i] = 1.5 - 0.0005 * static_cast<double>(i % 2000);
    }
    const auto ct_a = encryptor.encrypt_symmetric(
        encoder.encode(std::span<const double>(a), scale));
    const auto ct_b = encryptor.encrypt_symmetric(
        encoder.encode(std::span<const double>(b), scale));

    ckks::Ciphertext expanded = ct_a;
    expanded.a_seeded = false;
    std::printf("wire sizes (bytes):\n");
    std::printf("  parameters            %10zu\n", params_bytes.size());
    std::printf("  relin keys            %10zu\n", relin_bytes.size());
    std::printf("  ciphertext (seeded)   %10zu\n",
                wire::serialized_bytes(ct_a));
    std::printf("  ciphertext (expanded) %10zu  (seed compression %.2fx)\n",
                wire::serialized_bytes(expanded),
                static_cast<double>(wire::serialized_bytes(expanded)) /
                    static_cast<double>(wire::serialized_bytes(ct_a)));

    serve::Request mul;
    mul.session_id = 0;
    mul.op = serve::Op::MulLinRS;
    mul.inputs.push_back(wire::serialize(ct_a));
    mul.inputs.push_back(wire::serialize(ct_b));
    serve::Request rot;
    rot.session_id = 1;
    rot.op = serve::Op::Rotate;
    rot.rotate_step = 1;
    rot.arrival_ns = 1000.0;
    rot.inputs.push_back(wire::serialize(ct_a));
    const auto mul_bytes = wire::serialize(mul);
    const auto rot_bytes = wire::serialize(rot);

    // A session-managed client: its own keys, its own scale.
    he::HostBackend session_backend(client_ctx);
    he::Session session(session_backend);
    const auto session_relin_bytes = wire::serialize(session.relin_keys());
    const auto session_galois_bytes = wire::serialize(session.galois_keys());
    std::vector<double> c(a.size());
    for (std::size_t i = 0; i < c.size(); ++i) {
        c[i] = 0.25 - 0.0002 * static_cast<double>(i % 1000);
    }
    he::ProgramBuilder circuit(3);
    circuit.output(circuit.add(
        circuit.rescale(circuit.relinearize(
            circuit.multiply(circuit.input(0), circuit.input(1)))),
        circuit.input(2)));
    serve::Request prog;
    prog.session_id = 2;
    prog.op = serve::Op::Program;
    prog.arrival_ns = 2000.0;
    prog.program = wire::serialize(circuit.build());
    for (const he::Cipher &in :
         {session.encrypt(a), session.encrypt(b),
          session_backend.mod_switch(session.encrypt(c))}) {
        prog.inputs.push_back(wire::serialize(session_backend.download(in)));
    }
    const auto prog_bytes = wire::serialize(prog);
    std::printf("  MulLinRS request      %10zu\n", mul_bytes.size());
    std::printf("  Rotate request        %10zu\n", rot_bytes.size());
    std::printf("  Program request       %10zu\n\n", prog_bytes.size());

    // --- server: everything reconstructed from bytes --------------------
    const ckks::CkksContext server_ctx(wire::load_parameters(params_bytes));
    if (!trace_path.empty()) {
        obs::TraceRecorder::instance().enable();
        if (!obs::tracing_enabled()) {
            // XEHE_OBS=OFF compiles the recorder out; an empty export
            // would just fail its own validation below.
            std::printf("tracing compiled out (XEHE_OBS=OFF), "
                        "skipping --trace\n");
            trace_path.clear();
        }
    }
    serve::InferenceServer server(server_ctx, xgpu::device1(),
                                  core::GpuOptions{});
    server.set_keys(wire::load_relin_keys(relin_bytes, server_ctx),
                    wire::load_galois_keys(galois_bytes, server_ctx));
    server.register_session_keys(
        2, wire::load_relin_keys(session_relin_bytes, server_ctx),
        wire::load_galois_keys(session_galois_bytes, server_ctx));
    server.submit(mul_bytes);
    server.submit(rot_bytes);
    server.submit(prog_bytes);
    std::vector<std::vector<uint8_t>> response_bytes;
    for (const auto &resp : server.run()) {
        response_bytes.push_back(wire::serialize(resp));
    }

    // --- client: decrypt and verify the served results ------------------
    int failures = 0;
    for (const auto &bytes : response_bytes) {
        const auto resp = serve::load_response(bytes);
        if (!resp.ok) {
            std::printf("request %llu FAILED: %s\n",
                        static_cast<unsigned long long>(resp.session_id),
                        resp.error.c_str());
            ++failures;
            continue;
        }
        const auto result =
            wire::load_ciphertext(resp.result, client_ctx);
        // The circuit's operands were the session's, so is its result.
        const bool circuit_result = resp.session_id == 2;
        std::vector<double> decoded;
        if (circuit_result) {
            decoded = session.decrypt(session_backend.upload(result));
        } else {
            for (const auto &v : encoder.decode(decryptor.decrypt(result))) {
                decoded.push_back(v.real());
            }
        }
        double max_err = 0.0;
        for (std::size_t i = 0; i < a.size(); ++i) {
            const double expect = resp.session_id == 0 ? a[i] * b[i]
                                  : circuit_result    ? a[i] * b[i] + c[i]
                                                      : a[(i + 1) % a.size()];
            max_err = std::max(max_err, std::abs(decoded[i] - expect));
        }
        const char *names[] = {"MulLinRS", "Rotate", "Program"};
        std::printf("request %llu (%s): latency %.3f ms "
                    "(queueing %.3f ms), max error %.2e\n",
                    static_cast<unsigned long long>(resp.session_id),
                    names[resp.session_id], resp.latency_ns() * 1e-6,
                    resp.queueing_ns() * 1e-6, max_err);
        if (max_err > (circuit_result ? 1e-3 : 1e-2)) {
            ++failures;
        }
    }

    const auto stats = server.stats();
    std::printf("\nserved %zu requests in %zu batch(es), "
                "p99 latency %.3f ms, %.1f req/s\n",
                stats.requests, stats.batches, stats.p99_ms,
                stats.throughput_rps);

    if (!trace_path.empty()) {
        // Self-check before writing: the exported bytes must parse and
        // pass the structural span-tree validation.
        const std::string trace = obs::chrome_trace_to_string();
        const std::string err = obs::check_chrome_trace(trace);
        if (!err.empty()) {
            std::printf("trace export FAILED validation: %s\n", err.c_str());
            ++failures;
        } else {
            std::ofstream out(trace_path);
            out << trace;
            if (!out.good()) {
                std::printf("cannot write %s\n", trace_path.c_str());
                ++failures;
            } else {
                std::printf("wrote %zu spans to %s "
                            "(load at ui.perfetto.dev)\n",
                            obs::TraceRecorder::instance().size(),
                            trace_path.c_str());
            }
        }
    }
    return failures == 0 && stats.requests == 3 ? 0 : 1;
}
