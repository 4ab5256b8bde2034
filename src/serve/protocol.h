// Client/server message types for the encrypted-inference frontend: a
// Request names a fixed-function op (a Section IV-C routine or a matmul
// tile job) or ships a client circuit, with its operand ciphertexts as
// opaque wire buffers; either way it is one he::Program to the server,
// and canonical_program() is the one place a fixed-function Op maps to
// its program.  A Response carries the serialized result plus the
// request's enqueue/dispatch/complete timestamps off the simulated clock.
// Both serialize through the src/wire envelope, so a full client ->
// server -> client round trip moves nothing but validated bytes.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>

#include "he/program.h"
#include "wire/wire.h"

namespace xehe::serve {

/// The server-side operations a request can name: the five benchmarked
/// routines of Section IV-C, the matmul tile-accumulation job of
/// Section IV-E, and Program — an arbitrary client-defined he:: circuit
/// shipped as wire bytes, so new workloads need no server change.
enum class Op : uint8_t {
    MulLin = 0,
    MulLinRS = 1,
    SqrLinRS = 2,
    MulLinRSModSwAdd = 3,
    Rotate = 4,
    MatmulTile = 5,
    Program = 6,
};

const char *op_name(Op op);

/// Per-request backend selection (wire v4).  Auto and Gpu run on the
/// server's GPU pool when it is up; otherwise (the pool never came up, or
/// "gpu" was switched off mid-run) they run on a host lane and count in
/// LatencyStats::fallbacks rather than failing.  Host pins the request to
/// a host lane.
enum class BackendHint : uint8_t {
    Auto = 0,
    Host = 1,
    Gpu = 2,
};

const char *backend_hint_name(BackendHint hint);

/// Operand ciphertexts required by a fixed-function op (1 to 3): its
/// canonical program's input count; 0 for Op::Program, whose arity is
/// the shipped program's.
std::size_t op_arity(Op op);

struct Request {
    uint64_t session_id = 0;
    Op op = Op::MulLin;
    int rotate_step = 1;          ///< Op::Rotate only; |step| <= 2^20
    uint64_t matmul_tiles = 1;    ///< Op::MatmulTile: accumulations chained
    /// Arrival time on the simulated clock; admission orders by this.
    double arrival_ns = 0.0;
    /// Cost-only requests carry no ciphertext bytes: the server fabricates
    /// operands at `cost_only_level` (0 = max level) and charges the
    /// upload, matching the paper's N = 32K cost-only operating point.
    bool cost_only = false;
    uint64_t cost_only_level = 0;
    /// Which backend should execute this request (see BackendHint).
    BackendHint backend = BackendHint::Auto;
    /// Operand ciphertexts, each a self-contained wire envelope
    /// (wire::serialize of a ckks::Ciphertext), in op order (for
    /// Op::Program: in program-input order).
    std::vector<std::vector<uint8_t>> inputs;
    /// Op::Program only: the circuit, a self-contained wire envelope
    /// (wire::serialize of an he::Program with exactly one output).
    std::vector<uint8_t> program;
};

/// Typed failure classes, so clients can react to overload (retry with
/// backoff elsewhere) differently from corruption (drop) or execution
/// faults (report) without parsing error strings.
enum class Status : uint8_t {
    Ok = 0,
    ParseError = 1,  ///< request/chunk bytes failed wire validation
    ExecError = 2,   ///< request was valid but evaluation failed
    Overloaded = 3,  ///< shard credit window exhausted; never enqueued
    /// The shipped he::Program failed static verification at admission
    /// (he::ProgramAnalyzer): level underflow, size violations, missing
    /// rotations, outputs aliasing inputs.  Rejected before any lane
    /// dispatch, so no device time is charged; the error string carries
    /// the first analyzer diagnostic.
    InvalidProgram = 4,
};

const char *status_name(Status s);

struct Response {
    uint64_t session_id = 0;
    bool ok = false;
    Status code = Status::ExecError;  ///< Status::Ok iff ok
    std::string error;            ///< set when !ok
    /// Serialized result ciphertext (functional servers only).
    std::vector<uint8_t> result;
    // Timestamps on the simulated clock (ns).
    double enqueue_ns = 0.0;      ///< request arrival at admission
    double dispatch_ns = 0.0;     ///< first kernel submitted on the lane
    double complete_ns = 0.0;     ///< lane timeline after result download

    double latency_ns() const noexcept { return complete_ns - enqueue_ns; }
    double queueing_ns() const noexcept { return dispatch_ns - enqueue_ns; }
};

/// The field rules every Request satisfies however it arrives (wire
/// envelope, chunk stream or direct submission): op and backend-hint
/// range, a rotation step in [-2^20, 2^20] and matmul tiles in [1, 2^20]
/// (the Program IR's immediate bounds), cost-only level <= 64, a finite
/// non-negative arrival time, the input count against the op's arity,
/// and program bytes present exactly for Op::Program.  Throws
/// wire::WireError naming the first rule broken.
void validate(const Request &req);

/// The program a fixed-function request that passed validate() lowers
/// to: its routine's, rotate_program(rotate_step) or
/// matmul_tile_program(matmul_tiles).  The four routine programs are
/// built once and shared.  Throws std::invalid_argument for Op::Program,
/// whose program is the client's.
std::shared_ptr<const he::Program> canonical_program(const Request &req);

// wire::serialize / serialized_bytes pick these up by ADL.
void save(wire::Writer &w, const Request &req);
void save(wire::Writer &w, const Response &resp);
void load(wire::Reader &r, Request &req);
void load(wire::Reader &r, Response &resp);

Request load_request(std::span<const uint8_t> buffer);
Response load_response(std::span<const uint8_t> buffer);

// ---------------------------------------------------------------------------
// Streaming chunked request path: a large request (many or big operand
// ciphertexts) travels as bounded wire chunk frames instead of one
// monolithic envelope.  The parser consumes the request *body* bytes
// incrementally — header fields first, then each operand buffer straight
// into its own per-input vector — so the receiver never materializes the
// whole request as a single contiguous buffer; integrity comes from the
// per-chunk checksums instead of the envelope checksum.
// ---------------------------------------------------------------------------

/// Serializes `req`'s body and slices it into checksummed chunk frames
/// for `stream_id` (client-side helper; the client may hold the whole
/// request anyway).
std::vector<std::vector<uint8_t>> chunk_request(
    const Request &req, uint64_t stream_id,
    std::size_t max_payload = wire::kMaxChunkPayload);

/// Incremental parser over Request body bytes.  feed() accepts arbitrary
/// spans; buffered state is bounded by the fixed header plus the operand
/// currently being filled (which the final Request owns anyway).  Throws
/// wire::WireError on any field that monolithic load() would reject.
class StreamingRequestParser {
public:
    /// Consumes `bytes`; returns true once the request is complete.
    /// Trailing bytes beyond a complete request throw.
    bool feed(std::span<const uint8_t> bytes);
    /// Moves the parsed request out.  Only valid once complete.
    Request take();

private:
    enum class State : uint8_t {
        /// tag(1) session(8) op(1) rotate(8) matmul(8) arrival(8)
        /// cost_only(1) cost_level(8) backend_hint(1) input_count(1)
        Fixed,
        InputLen,     ///< u64 length of the next operand
        InputBody,    ///< operand bytes -> request_.inputs.back()
        ProgramLen,   ///< u64 program length
        ProgramBody,  ///< program bytes -> request_.program
        Done,
    };

    void start_next_input();

    State state_ = State::Fixed;
    std::vector<uint8_t> pending_;   ///< partial fixed header / length field
    std::size_t need_ = 45;          ///< bytes wanted in the current state
    std::size_t input_count_ = 0;
    std::size_t inputs_parsed_ = 0;
    std::size_t body_remaining_ = 0;  ///< of the operand/program being read
    Request request_;
};

/// Reassembles interleaved chunk-frame streams into Requests, checking
/// each stream's frame order and consistency.  The stream table is bounded
/// at kMaxOpenStreams by evicting the least-recently-fed stream, so
/// abandoned streams cannot pin it.
class ChunkAssembler {
public:
    static constexpr std::size_t kMaxOpenStreams = 256;

    /// What one frame did (a frame may both evict and fail).
    struct Fed {
        std::optional<Request> request;  ///< completed by this frame
        bool evicted = false;  ///< a stale stream was dropped for room
        std::string error;  ///< set: frame rejected, its stream discarded
    };

    Fed feed(std::span<const uint8_t> frame);
    /// Streams with at least one accepted chunk that have not completed.
    std::size_t open_streams() const noexcept { return streams_.size(); }

private:
    struct Stream {
        StreamingRequestParser parser;
        uint32_t next_seq = 0;
        uint64_t received = 0;
        uint64_t total = 0;
        uint64_t last_fed = 0;  ///< tick of the latest frame
    };
    std::unordered_map<uint64_t, Stream> streams_;
    uint64_t tick_ = 0;  ///< monotone staleness clock, one per frame
};

}  // namespace xehe::serve
