// Serving benchmark: shared types of the perfbench program.
//
// perfbench serves seeded request traces through the serving stack
// (serve::InferenceServer / serve::ShardedServer) and measures them on two
// clocks: host wall time around the public calls a client makes, and the
// simulated device clock the responses carry.  The untraced run reports
// the end-to-end metrics; the traced run (--trace 1) reports per-layer
// metrics from the benchmark's own spans, a replay of the window's
// requests through each layer's public functions, and the spans the
// program itself records (obs::TraceRecorder).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "serve/sharded_server.h"

namespace perfbench {

using namespace xehe;

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Exact nearest-rank percentile of an unsorted sample (copied).
double percentile(std::vector<double> values, double q);
double mean(const std::vector<double> &values);
double median(std::vector<double> values);
/// Mean of the sorted sample between quantiles `lo` and `hi`: the sim
/// clock's percentiles.  Service times are deterministic per op, so a
/// single order statistic sits on the same tie for most seeds; the band
/// mean stays continuous in the mix and has less seed-to-seed variance.
double band_mean(std::vector<double> values, double lo, double hi);
inline double sim_p50(std::vector<double> v) {
    return band_mean(std::move(v), 0.40, 0.60);
}
inline double sim_p99(std::vector<double> v) {
    return band_mean(std::move(v), 0.985, 0.995);
}

/// One reported metric (name, value, unit).
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

enum class Kind { GpuServing, HostServing, TenantPrograms };

/// The command line.
struct Options {
    std::string workload;
    Kind kind = Kind::GpuServing;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool small = false;         ///< reduced-size run (the benchmark's tests)
    std::string plant;          ///< "", "wrong_result" or "flip_status"
};

/// Fixed shape of one workload (derived from Kind and --small).
struct Shape {
    std::size_t n = 8192;
    std::size_t levels = 3;
    bool functional = true;
    bool sharded = false;
    serve::BackendHint hint = serve::BackendHint::Auto;
    double sim_rate_rps = 450.0;  ///< open-loop offered rate on the sim clock
    double sim_limit_ms = 20.0;   ///< sim p99 limit of the capacity ladder
    double ladder_base_rps = 100.0;
    int ladder_rungs = 16;        ///< rungs base * 2^(k/4), k < rungs
    std::size_t sessions = 12;        ///< each lane: one per template
    std::size_t pool_operands = 24;   ///< encrypted operand pool size
    /// Closed-loop clients per drain: one op-mix block, so every drain
    /// carries the same work.
    std::size_t cycle = 12;
    std::size_t warmup_cycles = 24;
    std::size_t sim_requests = 3840;  ///< sim percentiles over these
    std::size_t cap_warmup = 128;     ///< per capacity rung, not measured
    std::size_t cap_requests = 4096;  ///< measured per capacity rung
    std::size_t replay_warmup = 12;   ///< untimed replay prefix (traced run)
    std::size_t replay_requests = 120; ///< timed layer replay sample
    std::size_t setup_repeats = 5;
    // tenant_programs only
    std::size_t circuits_per_session = 0;
    std::size_t keysets = 0;          ///< distinct keygens shared by sessions
    std::size_t budget_keysets = 0;   ///< per-shard resident key budget
    std::size_t invalid_every = 0;    ///< one planted invalid per block
};

Shape shape_for(const Options &opts);

// ---------------------------------------------------------------------------
// Generated inputs
// ---------------------------------------------------------------------------

/// Functional client circuit templates (one per session), with a plaintext
/// model the checker evaluates; every template consumes one level.
enum class Template : uint8_t {
    Mul,         ///< a*b
    MulAddSq,    ///< a*b + c*c
    SquareSum,   ///< (a+b)^2
    RotMul,      ///< rot1(a*b)
    DiffMul,     ///< (a-b)*c
    MulSubMul,   ///< a*b - (-b)*c
};
inline constexpr std::size_t kTemplates = 6;

struct Circuit {
    std::vector<uint8_t> bytes;  ///< wire envelope of the he::Program
    std::size_t inputs = 0;
    Template kind = Template::Mul;  ///< functional sessions only
};

/// One request as planned by the client, before wire encoding.
struct Planned {
    uint64_t index = 0;   ///< position in the trace (unique)
    uint64_t session = 0;
    serve::Op op = serve::Op::MulLin;
    std::size_t circuit = 0;  ///< Op::Program: index into Inputs::circuits
    double arrival_ns = 0.0;
    serve::Status expected = serve::Status::Ok;
};

/// Everything the seed generates that is independent of the measured
/// set-up: sessions, circuits, operand values and the request stream.
struct Inputs {
    std::vector<uint64_t> session_ids;
    /// Functional workloads: operand pool indices (a, b, c) per session
    /// and the circuit each session ships.
    std::vector<std::array<std::size_t, 3>> session_operands;
    std::vector<std::size_t> session_circuit;
    /// Tenant workload: each session's circuit indices.
    std::vector<std::vector<std::size_t>> session_circuits;
    std::vector<Circuit> circuits;
    /// Plaintext slot values of the operand pool.
    std::vector<std::vector<double>> operand_values;
};

/// Indices 0..n-1 dealt in seeded shuffled rounds: each once per round.
class Deck {
public:
    explicit Deck(std::size_t n) : cards_(n), pos_(n) {}
    std::size_t deal(std::mt19937_64 &rng);

private:
    std::vector<std::size_t> cards_;
    std::size_t pos_;
};

/// Deterministic request stream: block-stratified op mix, sessions dealt
/// from decks, seeded arrivals at the offered rate `rate_rps`.
class TraceGen {
public:
    TraceGen(const Options &opts, const Shape &shape, const Inputs &inputs,
             double rate_rps);
    Planned next();

private:
    void refill();

    const Shape *shape_;
    const Inputs *inputs_;
    bool tenant_;
    double mean_gap_ns_;
    std::mt19937_64 rng_;
    std::vector<Planned> block_;
    std::size_t block_pos_ = 0;
    Deck sessions_;
    Deck circuit_sessions_;  ///< functional Op::Program requests
    uint64_t index_ = 0;
    double arrival_ns_ = 0.0;
};

Inputs make_inputs(const Options &opts, const Shape &shape);

/// Plaintext model of a planned functional request: the slot values the
/// decrypted result must hold.  `out_scale` is the result's scale metadata
/// (the ModSwitchAdd routine adopts the product's scale for its addend).
std::vector<double> expected_values(const Planned &p, const Inputs &in,
                                    double out_scale);

// ---------------------------------------------------------------------------
// Measured set-up and the server under test
// ---------------------------------------------------------------------------

/// Host worker threads per private pool.  The caller participates in
/// parallel_for, so each pool keeps (workers + 1) threads busy.
inline constexpr unsigned kPoolWorkers = 1;

/// Encoding scale of every client operand: the scale the server assumes
/// when it compiles client circuits at admission.
inline constexpr double kScale = 1099511627776.0;  // 2^40
/// Accumulations chained by every MatmulTile request.
inline constexpr uint64_t kMatmulTiles = 2;

/// The server under test: one InferenceServer on a private pool, or a
/// ShardedServer (which owns one pool per shard).
struct Server {
    std::unique_ptr<xgpu::ThreadPool> pool;
    std::unique_ptr<serve::InferenceServer> single;
    std::unique_ptr<serve::ShardedServer> sharded;

    void submit(std::span<const uint8_t> bytes);
    std::vector<serve::Response> run();
    serve::LatencyStats stats() const;
    std::size_t shard_of(uint64_t session) const;
    std::size_t shard_count() const;
    std::size_t lane_count() const;
};

/// What one set-up builds: context, client keys and codec, the operand
/// pool, and the server with its keys registered.
struct Env {
    std::unique_ptr<ckks::CkksContext> ctx;
    std::unique_ptr<ckks::KeyGenerator> keygen;
    std::unique_ptr<ckks::CkksEncoder> encoder;
    std::unique_ptr<ckks::Encryptor> encryptor;
    std::unique_ptr<ckks::Decryptor> decryptor;
    /// Shared tenant keys (serving) or the tenants' keysets.
    std::vector<ckks::RelinKeys> relin;
    ckks::GaloisKeys galois;
    std::vector<std::vector<uint8_t>> operands;  ///< serialized ciphertexts
    std::size_t keyset_bytes = 0;
    Server server;
};

serve::ServerConfig server_config(bool functional);
serve::ShardedConfig sharded_config(const Shape &shape,
                                    std::size_t key_budget_bytes,
                                    bool functional);
/// A fresh server over `env`'s context and keys; `functional = false`
/// gives the capacity replay's cost-only twin of the measured server.
Server make_server(const Env &env, const Shape &shape, const Inputs &inputs,
                   bool functional);
/// One complete, measured set-up.
std::unique_ptr<Env> setup(const Shape &shape, const Inputs &inputs,
                           uint64_t seed);

/// Wire bytes of a planned request (client-side encoding).
std::vector<uint8_t> encode_request(const Planned &p, const Inputs &in,
                                    const Env &env, const Shape &shape,
                                    bool cost_only);

// ---------------------------------------------------------------------------
// Serving windows and checks
// ---------------------------------------------------------------------------

/// Matches responses to the requests of one drain and checks outcomes.
/// Functional results are decrypted once per distinct (session, op) and
/// compared with the plaintext model; repeats compare a result hash.
class Checker {
public:
    Checker(const Inputs &inputs, const Env &env, bool functional);

    /// Checks one drain; returns the number of requests whose outcome
    /// differs from the expected one.  Records per-request sim latency
    /// (complete - arrival) for answered requests in `sim_ns` (indexed
    /// like `planned`, -1 when unanswered).
    std::size_t check(const std::vector<Planned> &planned,
                      const std::vector<serve::Response> &responses,
                      std::vector<double> &sim_ns);

    std::vector<std::string> errors;
    /// Client decrypt+decode wall per checked result (ms).
    std::vector<double> decrypt_ms;

private:
    bool result_ok(const Planned &p, const serve::Response &r);

    const Inputs *inputs_;
    const Env *env_;
    bool functional_;
    std::map<uint64_t, uint64_t> result_hash_;  ///< (session, op) -> hash
};

/// Outcome of one closed-loop window.
struct Window {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    double server_ms = 0.0;  ///< summed submit..run(..stats) intervals
    std::vector<double> drain_ms;  ///< each drain's submit..run(..stats)
    std::vector<double> wall_ms;  ///< per-request submit -> run() return
    std::vector<double> sim_ns;   ///< per-request complete - arrival
    std::vector<Planned> planned;
    std::vector<std::size_t> bytes_in;
    std::vector<std::size_t> bytes_out;

    void append(const Window &o);
};

/// Optional per-drain hook (the traced run folds spans here, outside the
/// timed intervals).
using CycleHook = std::function<void(const std::vector<Planned> &,
                                     const std::vector<serve::Response> &)>;

/// Serves drains of `shape.cycle` requests until `seconds` of wall time
/// have passed and at least `min_requests` were executed, or exactly
/// `max_cycles` drains when that is non-zero.  Every drain is checked
/// outside the timed intervals; `plant` corrupts the first drain.
Window serve_window(Env &env, TraceGen &gen, const Inputs &inputs,
                    const Shape &shape, Checker &checker, double seconds,
                    std::size_t min_requests, std::size_t max_cycles,
                    const std::string &plant, const CycleHook &hook = {});

/// Highest offered sim rate on the ladder (refined between rungs) whose
/// cost-only replay keeps sim p99 within the limit without a growing
/// backlog.
double sim_capacity(const Options &opts, const Shape &shape,
                    const Inputs &inputs, const Env &env,
                    std::vector<std::string> &log, std::size_t &failed);

/// The traced run: per-layer metrics.  Appends failures to `failed`.
std::vector<Metric> traced_run(const Options &opts, const Shape &shape,
                               const Inputs &inputs, Env &env,
                               TraceGen &gen, Checker &checker,
                               std::size_t &attempted, std::size_t &failed,
                               std::vector<std::string> &log);

/// Peak resident set size of this process (MB).
double peak_rss_mb();
/// Live threads of this process (from /proc/self/status).
int thread_count();

}  // namespace perfbench
