#include "serve/protocol.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace xehe::serve {

namespace {

/// Per-operand bound for the streaming path (the monolithic path is
/// implicitly bounded by its envelope length).
constexpr std::size_t kMaxInputBytes = std::size_t{1} << 26;

void check(bool condition, const char *what) {
    if (!condition) {
        throw wire::WireError(what);
    }
}

/// The rules on the fields before the operand buffers.
void check_header(const Request &req, std::size_t input_count) {
    check(static_cast<uint8_t>(req.op) <= static_cast<uint8_t>(Op::Program),
          "wire: bad op");
    // The Program IR's immediate bounds (the fields become node imms).
    check(req.rotate_step >= -he::kMaxRotateStep &&
              req.rotate_step <= he::kMaxRotateStep,
          "wire: bad rotation step");
    check(req.matmul_tiles >= 1 && req.matmul_tiles <= he::kMaxAccumulations,
          "wire: bad matmul tile count");
    check(std::isfinite(req.arrival_ns) && req.arrival_ns >= 0.0,
          "wire: bad arrival time");
    check(req.cost_only_level <= 64, "wire: bad cost-only level");
    check(static_cast<uint8_t>(req.backend) <=
              static_cast<uint8_t>(BackendHint::Gpu),
          "wire: bad backend hint");
    if (req.op == Op::Program) {
        // The exact arity is the shipped program's input count; the
        // server's admission checks it after decoding the program.
        // 64 matches the Program IR's own input bound.
        check(input_count <= 64, "wire: bad input count");
        check(!req.cost_only || input_count == 0,
              "wire: cost-only request with inputs");
    } else {
        check(input_count <= 3, "wire: bad input count");
        check(req.cost_only ? input_count == 0
                            : input_count == op_arity(req.op),
              "wire: input count does not match op");
    }
}

void check_program_size(const Request &req, uint64_t program_len) {
    check(program_len <= (1u << 24), "wire: oversized program");
    check(req.op == Op::Program ? program_len > 0 : program_len == 0,
          "wire: program bytes do not match op");
}

/// Reads and checks the fixed Request-body prefix (tag through input
/// count); returns the input count.
std::size_t read_header(wire::Reader &r, Request &req) {
    check(r.u8() == static_cast<uint8_t>(wire::Tag::Request),
          "wire: expected Request");
    req.session_id = r.u64();
    req.op = static_cast<Op>(r.u8());
    // Saturated into int, so a step past its range still fails the rule.
    req.rotate_step = static_cast<int>(std::clamp<int64_t>(
        static_cast<int64_t>(r.u64()), std::numeric_limits<int>::min(),
        std::numeric_limits<int>::max()));
    req.matmul_tiles = r.u64();
    req.arrival_ns = r.f64();
    const uint8_t cost_only = r.u8();
    check(cost_only <= 1, "wire: bad flag byte");
    req.cost_only = cost_only != 0;
    req.cost_only_level = r.u64();
    req.backend = static_cast<BackendHint>(r.u8());
    const uint8_t count = r.u8();
    check_header(req, count);
    return count;
}

}  // namespace

const char *status_name(Status s) {
    switch (s) {
        case Status::Ok: return "Ok";
        case Status::ParseError: return "ParseError";
        case Status::ExecError: return "ExecError";
        case Status::Overloaded: return "Overloaded";
        case Status::InvalidProgram: return "InvalidProgram";
    }
    return "unknown";
}

const char *op_name(Op op) {
    switch (op) {
        case Op::MulLin: return "MulLin";
        case Op::MulLinRS: return "MulLinRS";
        case Op::SqrLinRS: return "SqrLinRS";
        case Op::MulLinRSModSwAdd: return "MulLinRSModSwAdd";
        case Op::Rotate: return "Rotate";
        case Op::MatmulTile: return "MatmulTile";
        case Op::Program: return "Program";
    }
    return "unknown";
}

const char *backend_hint_name(BackendHint hint) {
    switch (hint) {
        case BackendHint::Auto: return "auto";
        case BackendHint::Host: return "host";
        case BackendHint::Gpu: return "gpu";
    }
    return "unknown";
}

std::shared_ptr<const he::Program> canonical_program(const Request &req) {
    const auto shared = [](he::Program program) {
        return std::make_shared<const he::Program>(std::move(program));
    };
    // The routines' programs never change, so each is built once.
    static const std::shared_ptr<const he::Program> routines[] = {
        shared(he::mul_lin_program()), shared(he::mul_lin_rs_program()),
        shared(he::sqr_lin_rs_program()),
        shared(he::mul_lin_rs_modsw_add_program())};
    switch (req.op) {
        case Op::MulLin: return routines[0];
        case Op::MulLinRS: return routines[1];
        case Op::SqrLinRS: return routines[2];
        case Op::MulLinRSModSwAdd: return routines[3];
        case Op::Rotate: return shared(he::rotate_program(req.rotate_step));
        case Op::MatmulTile:
            return shared(he::matmul_tile_program(
                static_cast<uint32_t>(req.matmul_tiles)));
        case Op::Program: break;
    }
    throw std::invalid_argument(
        "serve: a client circuit has no canonical program");
}

std::size_t op_arity(Op op) {
    if (op == Op::Program) {
        return 0;  // dynamic: the program's input count
    }
    Request req;
    req.op = op;
    return canonical_program(req)->num_inputs;
}

void save(wire::Writer &w, const Request &req) {
    w.u8(static_cast<uint8_t>(wire::Tag::Request));
    w.u64(req.session_id);
    w.u8(static_cast<uint8_t>(req.op));
    w.u64(static_cast<uint64_t>(static_cast<int64_t>(req.rotate_step)));
    w.u64(req.matmul_tiles);
    w.f64(req.arrival_ns);
    w.u8(req.cost_only ? 1 : 0);
    w.u64(req.cost_only_level);
    w.u8(static_cast<uint8_t>(req.backend));
    w.u8(static_cast<uint8_t>(req.inputs.size()));
    for (const auto &input : req.inputs) {
        w.u64(input.size());
        w.bytes(input);
    }
    w.u64(req.program.size());
    w.bytes(req.program);
}

void validate(const Request &req) {
    check_header(req, req.inputs.size());
    check_program_size(req, req.program.size());
}

void load(wire::Reader &r, Request &req) {
    const std::size_t count = read_header(r, req);
    req.inputs.clear();
    req.inputs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const uint64_t len = r.u64();
        const auto view = r.bytes(len);  // bounds-checked
        req.inputs.emplace_back(view.begin(), view.end());
    }
    const uint64_t program_len = r.u64();
    check_program_size(req, program_len);
    const auto program = r.bytes(program_len);
    req.program.assign(program.begin(), program.end());
}

void save(wire::Writer &w, const Response &resp) {
    w.u8(static_cast<uint8_t>(wire::Tag::Response));
    w.u64(resp.session_id);
    w.u8(resp.ok ? 1 : 0);
    w.u8(static_cast<uint8_t>(resp.code));
    w.u64(resp.error.size());
    w.bytes(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t *>(resp.error.data()),
        resp.error.size()));
    w.u64(resp.result.size());
    w.bytes(resp.result);
    w.f64(resp.enqueue_ns);
    w.f64(resp.dispatch_ns);
    w.f64(resp.complete_ns);
}

void load(wire::Reader &r, Response &resp) {
    check(r.u8() == static_cast<uint8_t>(wire::Tag::Response),
          "wire: expected Response");
    resp.session_id = r.u64();
    const uint8_t ok = r.u8();
    check(ok <= 1, "wire: bad flag byte");
    resp.ok = ok != 0;
    const uint8_t code = r.u8();
    check(code <= static_cast<uint8_t>(Status::InvalidProgram),
          "wire: bad status code");
    resp.code = static_cast<Status>(code);
    check(resp.ok == (resp.code == Status::Ok),
          "wire: status code inconsistent with ok flag");
    const uint64_t error_len = r.u64();
    check(error_len <= (1u << 16), "wire: oversized error string");
    const auto error = r.bytes(error_len);
    resp.error.assign(error.begin(), error.end());
    const uint64_t result_len = r.u64();
    const auto result = r.bytes(result_len);
    resp.result.assign(result.begin(), result.end());
    resp.enqueue_ns = r.f64();
    resp.dispatch_ns = r.f64();
    resp.complete_ns = r.f64();
    for (const double t : {resp.enqueue_ns, resp.dispatch_ns,
                           resp.complete_ns}) {
        check(std::isfinite(t) && t >= 0.0, "wire: bad timestamp");
    }
}

Request load_request(std::span<const uint8_t> buffer) {
    return wire::load_enveloped<Request>(buffer);
}

// ---------------------------------------------------------------------------
// Streaming chunked request path
// ---------------------------------------------------------------------------

std::vector<std::vector<uint8_t>> chunk_request(const Request &req,
                                                uint64_t stream_id,
                                                std::size_t max_payload) {
    wire::Writer w;
    save(w, req);
    const std::vector<uint8_t> body = w.take();
    return wire::chunk_message(stream_id, body, max_payload);
}

void StreamingRequestParser::start_next_input() {
    state_ = inputs_parsed_ < input_count_ ? State::InputLen
                                           : State::ProgramLen;
    need_ = 8;
}

bool StreamingRequestParser::feed(std::span<const uint8_t> bytes) {
    while (!bytes.empty()) {
        check(state_ != State::Done,
              "wire: trailing bytes after complete request");
        if (state_ == State::InputBody || state_ == State::ProgramBody) {
            auto &target = state_ == State::InputBody ? request_.inputs.back()
                                                      : request_.program;
            const std::size_t take = std::min(body_remaining_, bytes.size());
            target.insert(target.end(), bytes.begin(), bytes.begin() + take);
            bytes = bytes.subspan(take);
            body_remaining_ -= take;
        } else {
            const std::size_t take =
                std::min(need_ - pending_.size(), bytes.size());
            pending_.insert(pending_.end(), bytes.begin(),
                            bytes.begin() + take);
            bytes = bytes.subspan(take);
            if (pending_.size() < need_) {
                break;  // every byte is buffered
            }
            wire::Reader r(pending_);
            if (state_ == State::Fixed) {
                input_count_ = read_header(r, request_);
                request_.inputs.reserve(input_count_);
                start_next_input();
            } else {
                const uint64_t len = r.u64();
                std::vector<uint8_t> *target = &request_.program;
                if (state_ == State::InputLen) {
                    check(len <= kMaxInputBytes,
                          "wire: oversized operand buffer");
                    target = &request_.inputs.emplace_back();
                    ++inputs_parsed_;
                    state_ = State::InputBody;
                } else {
                    check_program_size(request_, len);
                    state_ = State::ProgramBody;
                }
                // Eagerly reserve at most one chunk's worth: a
                // declared-but-never-sent length must not commit memory
                // before the bytes actually arrive.
                target->reserve(
                    std::min<std::size_t>(len, wire::kMaxChunkPayload));
                body_remaining_ = len;
            }
            pending_.clear();
        }
        if (state_ == State::InputBody && body_remaining_ == 0) {
            start_next_input();
        } else if (state_ == State::ProgramBody && body_remaining_ == 0) {
            state_ = State::Done;
        }
    }
    return state_ == State::Done;
}

Request StreamingRequestParser::take() {
    check(state_ == State::Done, "wire: request incomplete");
    return std::move(request_);
}

ChunkAssembler::Fed ChunkAssembler::feed(std::span<const uint8_t> frame) {
    Fed fed;
    wire::ChunkView chunk;
    try {
        chunk = wire::open_chunk(frame);
    } catch (const wire::WireError &e) {
        // The frame's header cannot be trusted, so no stream state can be
        // charged for it; reject the frame alone.
        fed.error = e.what();
        return fed;
    }

    auto it = streams_.find(chunk.stream_id);
    if (it == streams_.end()) {
        if (streams_.size() >= kMaxOpenStreams) {
            streams_.erase(std::min_element(
                streams_.begin(), streams_.end(),
                [](const auto &a, const auto &b) {
                    return a.second.last_fed < b.second.last_fed;
                }));
            fed.evicted = true;
        }
        it = streams_.emplace(chunk.stream_id, Stream{}).first;
        it->second.total = chunk.total_len;
    }
    Stream &stream = it->second;
    stream.last_fed = ++tick_;

    try {
        if (chunk.seq != stream.next_seq || chunk.offset != stream.received ||
            chunk.total_len != stream.total) {
            throw wire::WireError(
                "wire: chunk out of order or inconsistent with stream");
        }
        const bool complete = stream.parser.feed(chunk.payload);
        stream.next_seq = chunk.seq + 1;
        stream.received += chunk.payload.size();
        if (chunk.last) {
            if (!complete || stream.received != stream.total) {
                throw wire::WireError(
                    "wire: stream ended before request was complete");
            }
            fed.request = stream.parser.take();
            streams_.erase(it);
        } else if (complete) {
            throw wire::WireError("wire: request complete before final chunk");
        }
    } catch (const wire::WireError &e) {
        // Abort the whole stream: partial per-input state is discarded.
        streams_.erase(chunk.stream_id);
        fed.error = e.what();
    }
    return fed;
}

Response load_response(std::span<const uint8_t> buffer) {
    return wire::load_enveloped<Response>(buffer);
}

}  // namespace xehe::serve
