#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "ckks/galois.h"
#include "he/analyze.h"
#include "he/compiler.h"
#include "obs/trace.h"

namespace xehe::serve {

namespace {

/// Deterministic host-lane time model: per work unit, per RNS limb.
/// The host backend has no device clock, so host-executed requests charge
/// a synthetic, strictly positive lane time — batching, lane contention
/// and percentile behavior stay measurable (and deterministic) in
/// fallback mode.  Calibrated to sit above the simulated GPU on the same
/// work: falling back is graceful, not free.
constexpr double kHostNodeNs = 40000.0;
/// Host-side charge for re-staging an evicted expanded keyset (per byte).
constexpr double kHostKeyLoadNsPerByte = 0.25;

/// Operand level: the max level, or the requested one for cost-only sweeps.
std::size_t input_level(const Request &r, const ckks::CkksContext &host) {
    return r.cost_only && r.cost_only_level != 0
               ? std::min<std::size_t>(r.cost_only_level, host.max_level())
               : host.max_level();
}

/// A program's work in host-lane units (at least one): one per node, but
/// a MultiplyAcc counts each of its `imm` products and sums.
std::size_t work_units(const he::Program &program) {
    std::size_t units = 0;
    for (const he::Program::Node &node : program.nodes) {
        units += node.op == he::OpCode::MultiplyAcc ? 2 * node.imm : 1;
    }
    return std::max<std::size_t>(units, 1);
}

/// Throws unless `keys` hold every key `program` switches.  Checked on
/// every lane before operands exist, so a cost-only host lane (which
/// charges without executing) fails like a device lane would.
void require_keys(const he::Program &program, const he::ProgramKeys &keys,
                  std::size_t n) {
    const ckks::GaloisTool galois_tool(n);
    for (const he::Program::Node &node : program.nodes) {
        const he::KeyNeed need = he::op_semantics(node.op).key;
        if (need == he::KeyNeed::Relin && keys.relin == nullptr) {
            throw std::invalid_argument(
                "he: program needs relinearization keys");
        }
        if (need == he::KeyNeed::Galois ||
            need == he::KeyNeed::Conjugation) {
            if (keys.galois == nullptr) {
                throw std::invalid_argument("he: program needs galois keys");
            }
            const uint64_t elt = need == he::KeyNeed::Galois
                                     ? galois_tool.elt_from_step(node.imm)
                                     : galois_tool.conjugation_elt();
            if (elt != 1 && !keys.galois->has(elt)) {
                throw std::invalid_argument("missing galois key");
            }
        }
    }
}

/// The most work one request may carry: the largest legal MatmulTile's
/// (bounded immediates alone would let a circuit hold its lane for days).
constexpr std::size_t kMaxWorkUnits = 2 * he::kMaxAccumulations;

}  // namespace

void ServerConfig::validate() const {
    if (max_batch == 0) {
        throw ConfigError("serve: max_batch must be >= 1");
    }
    if (!std::isfinite(batch_window_ns) || batch_window_ns <= 0.0) {
        throw ConfigError(
            "serve: batch_window_ns must be positive and finite");
    }
    if (queue_count < 0) {
        throw ConfigError("serve: queue_count must be >= 0 (0 = per tile)");
    }
    if (key_budget_bytes == 0) {
        throw ConfigError("serve: key_budget_bytes must be positive");
    }
}

InferenceServer::InferenceServer(const ckks::CkksContext &host,
                                 xgpu::DeviceSpec spec,
                                 core::GpuOptions options,
                                 ServerConfig config,
                                 std::shared_ptr<KeyManager> key_manager,
                                 xgpu::ThreadPool *pool)
    : host_(&host), config_((config.validate(), config)),
      host_backend_(std::make_unique<he::HostBackend>(
          host, pool != nullptr ? pool : &xgpu::ThreadPool::global())),
      key_manager_(key_manager
                       ? std::move(key_manager)
                       : std::make_shared<KeyManager>(
                             host, config.key_budget_bytes, pool)),
      compile_cache_(host) {
    try {
        pool_ = std::make_unique<core::GpuEvaluatorPool>(
            host, spec, options, config_.queue_count, pool);
    } catch (const he::BackendUnavailable &) {
        // "gpu" is switched off: come up host-only instead of refusing.
    }
    if (pool_) {
        pool_->set_functional(config_.functional);
        // Lane construction uploaded NTT tables; serving starts at zero.
        pool_->scheduler().reset_clocks();
        host_lane_ns_.assign(pool_->lane_count(), 0.0);
    } else {
        // Host-only: mirror the lane topology the GPU pool would have
        // had, so session -> lane placement (and the multi-lane
        // throughput behavior) survives the fallback.
        const std::size_t lanes =
            config_.queue_count > 0
                ? static_cast<std::size_t>(config_.queue_count)
                : static_cast<std::size_t>(std::max(spec.tiles, 1));
        host_lane_ns_.assign(lanes, 0.0);
    }
    obs_host_lane_tracks_.assign(host_lane_ns_.size(), 0);
}

void InferenceServer::set_keys(ckks::RelinKeys relin, ckks::GaloisKeys galois) {
    relin_ = std::move(relin);
    galois_ = std::move(galois);
}

void InferenceServer::register_session_keys(uint64_t session_id,
                                            const ckks::RelinKeys &relin,
                                            const ckks::GaloisKeys &galois) {
    key_manager_->register_session(session_id, relin, galois);
}

void InferenceServer::reject(uint64_t session_id, Status code,
                             std::string error) {
    parse_failures_.push_back(
        record_failure(counts_, session_id, code, std::move(error)));
}

void InferenceServer::submit(std::span<const uint8_t> request_bytes) {
    obs::Span span("wire.parse", obs::Category::Wire);
    if (span.active()) {
        span.set_detail(std::to_string(request_bytes.size()) + " bytes");
    }
    try {
        submit(load_request(request_bytes));
    } catch (const wire::WireError &e) {
        reject(0, Status::ParseError, e.what());
    }
}

void InferenceServer::submit(Request request) {
    try {
        validate(request);
    } catch (const wire::WireError &e) {
        reject(request.session_id, Status::ParseError, e.what());
        return;
    }
    Admitted entry{std::move(request), nullptr, {}};
    if (admit(entry)) {
        pending_.push_back(std::move(entry));
    }
}

bool InferenceServer::admit(Admitted &entry) {
    const Request &request = entry.request;
    const bool client = request.op == Op::Program;
    obs::Span span("serve.analyze", obs::Category::Serve);
    try {
        entry.program = client ? std::make_shared<const he::Program>(
                                     he::load_program(request.program, *host_))
                               : canonical_program(request);
        util::require(entry.program->outputs.size() == 1,
                      "served programs must have exactly one output");
        util::require(request.cost_only ||
                          request.inputs.size() == entry.program->num_inputs,
                      "input count does not match the program");
        // Exact facts of the operands the program will run on, for the
        // analyzer, the compiler and the lane: a cost-only request's are
        // fabricated (size 2, input_level, 2^40), else each header's.
        if (request.cost_only) {
            entry.facts.assign(entry.program->num_inputs,
                               {2, input_level(request, *host_),
                                core::kWorkloadScale});
        } else {
            for (const auto &bytes : request.inputs) {
                const wire::CiphertextHeader h =
                    wire::load_ciphertext_header(bytes, *host_);
                entry.facts.push_back({h.size, h.rns, h.scale});
            }
        }
    } catch (const std::exception &e) {
        reject(request.session_id, Status::ParseError, e.what());
        return false;
    }
    if (work_units(*entry.program) > kMaxWorkUnits) {
        reject(request.session_id, Status::InvalidProgram,
               "serve: program rejected: more work than the largest "
               "matmul tile");
        return false;
    }
    he::AnalyzerOptions aopts;
    // Only client circuits are re-planned, so only they assume alignment.
    aopts.assume_alignment = client && config_.compile_programs;
    // Decoding or building just validated structurally, and admission
    // acts on ok() and the first error only.
    aopts.assume_validated = true;
    aopts.errors_only = true;
    const he::ProgramAnalyzer analyzer(*host_, std::move(aopts));
    const he::AnalysisReport report =
        analyzer.analyze(*entry.program, entry.facts);
    if (span.active()) {
        span.set_detail(std::to_string(entry.program->nodes.size()) +
                        " nodes, " + std::to_string(report.error_count()) +
                        " errors");
    }
    if (report.ok()) {
        return true;
    }
    reject(request.session_id, Status::InvalidProgram,
           "serve: program rejected: " + report.summary());
    return false;
}

void InferenceServer::submit_chunk(std::span<const uint8_t> frame) {
    obs::Span span("wire.chunk", obs::Category::Wire);
    if (span.active()) {
        span.set_detail(std::to_string(frame.size()) + " bytes");
    }
    ChunkAssembler::Fed fed = streams_.feed(frame);
    if (fed.evicted) {
        reject(0, Status::Overloaded, "serve: evicted stale chunk stream");
    }
    if (!fed.error.empty()) {
        reject(0, Status::ParseError, std::move(fed.error));
    }
    if (fed.request) {
        submit(std::move(*fed.request));
    }
}

std::vector<Response> InferenceServer::run() {
    std::vector<Response> responses = std::move(parse_failures_);
    parse_failures_.clear();
    responses.reserve(responses.size() + pending_.size());

    // Admission order is arrival order (stable for ties: submission order).
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const Admitted &a, const Admitted &b) {
                         return a.request.arrival_ns < b.request.arrival_ns;
                     });

    std::size_t i = 0;
    while (i < pending_.size()) {
        // The batch opens when its first request arrives (or when the
        // previous batch dispatched, if the queue is backed up).
        const double batch_open =
            std::max(admission_clock_ns_, pending_[i].request.arrival_ns);
        std::size_t j = i;
        while (j < pending_.size() && j - i < config_.max_batch &&
               pending_[j].request.arrival_ns <= batch_open) {
            ++j;
        }
        double dispatch_time = batch_open;
        if (j - i < config_.max_batch && config_.batch_window_ns > 0.0) {
            // Dynamic batching: hold the partial batch open for the
            // admission window, taking late arrivals.
            const double deadline = batch_open + config_.batch_window_ns;
            while (j < pending_.size() && j - i < config_.max_batch &&
                   pending_[j].request.arrival_ns <= deadline) {
                dispatch_time = std::max(dispatch_time,
                                         pending_[j].request.arrival_ns);
                ++j;
            }
            if (j - i == config_.max_batch) {
                // Filled early: dispatch the moment the last slot filled.
            } else if (j < pending_.size()) {
                // Still partial with more traffic coming: the server waited
                // out the whole window before giving up on filling.
                dispatch_time = deadline;
            }
            // Partial batch at the end of the trace: dispatch at the last
            // arrival — there is nothing left to wait for.
        }

        for (std::size_t k = i; k < j; ++k) {
            responses.push_back(dispatch(pending_[k], dispatch_time));
            const Response &resp = responses.back();
            if (resp.ok) {
                latency_.add(resp);
                ServeMetrics::instance().requests.add();
                ServeMetrics::instance().latency_ns.observe(
                    resp.latency_ns());
            } else {
                count_failure(counts_, resp.code);
            }
        }
        ++counts_.batches;
        ServeMetrics::instance().batches.add();
        if (obs::tracing_enabled()) {
            // Batch spans sit beside (not above) their requests: a
            // request's completion extends past the batch's dispatch, so
            // parenting it under the batch would break containment.
            obs::record_sim_span("serve.batch", obs::Category::Serve,
                                 batch_open, dispatch_time, obs_serve_track(),
                                 "n=" + std::to_string(j - i));
        }
        admission_clock_ns_ = dispatch_time;
        i = j;
    }
    pending_.clear();
    return responses;
}

Response InferenceServer::dispatch(const Admitted &entry,
                                   double dispatch_time) {
    const Request &request = entry.request;
    if (!obs::tracing_enabled()) {
        return route(entry, dispatch_time);
    }
    // The request's identity, then its reserved span id as context, so
    // everything recorded below joins the tree from front door to device.
    obs::ContextScope identity(0, obs::next_request_id(), request.session_id);
    const uint64_t span_id = obs::TraceRecorder::instance().next_id();
    Response resp;
    {
        obs::ContextScope scope(span_id);
        resp = route(entry, dispatch_time);
    }
    obs::record_sim_span("serve.request", obs::Category::Serve,
                         resp.enqueue_ns, resp.complete_ns, obs_serve_track(),
                         std::string(op_name(request.op)) +
                             (resp.ok ? " ok" : " failed"),
                         span_id);
    return resp;
}

uint32_t InferenceServer::obs_serve_track() {
    if (obs_serve_track_ == 0) {
        obs_serve_track_ = obs::next_track();
    }
    return obs_serve_track_;
}

/// What differs between the backends a request can execute on.
class InferenceServer::Lane {
public:
    virtual he::Backend &backend() = 0;
    /// Starts the request no earlier than `dispatch_time` (a busy lane
    /// pushes it later: queueing delay); returns the start.
    virtual double start(double dispatch_time) = 0;
    /// Charges re-staging `bytes` of evicted expanded key material.
    virtual void charge_key_load(std::size_t bytes) = 0;
    /// Charges `units` of program work (work_units) over `limbs` RNS
    /// limbs (a device lane's kernels charge themselves).
    virtual void charge_compute(std::size_t /*units*/,
                                std::size_t /*limbs*/) {}
    /// Operands of a cost-only request, with the admitted facts, or
    /// nullopt when the lane charges cost-only requests without executing.
    virtual std::optional<std::vector<he::Cipher>> cost_only_operands(
        std::span<const he::InputFacts> /*facts*/) {
        return std::nullopt;
    }
    /// Charges moving a result the response does not carry off the lane.
    virtual void drop_result(const he::Cipher & /*result*/) {}
    /// Ends the request; returns its completion time.
    virtual double finish() = 0;
    virtual uint32_t track() = 0;  ///< Perfetto track of serve.lane
    virtual std::string detail() const = 0;

protected:
    ~Lane() = default;  // lanes live on the stack, never deleted as Lane
};

/// One lane of the GPU evaluator pool, on the simulated device clock.
class InferenceServer::GpuLane final : public Lane {
public:
    /// Throws he::BackendUnavailable, before any clock or key side
    /// effect, if "gpu" has been switched off under the server.
    GpuLane(InferenceServer &server, uint64_t session_id)
        : index_(server.pool_->lane_of(session_id)),
          gpu_(server.pool_->context(index_)),
          evaluator_(server.pool_->evaluator(index_)),
          backend_(gpu_, evaluator_) {
        he::require_backend("gpu");
    }

    he::Backend &backend() override { return backend_; }
    double start(double dispatch_time) override {
        gpu_.queue().advance_to(dispatch_time);
        return gpu_.queue().clock_ns();
    }
    void charge_key_load(std::size_t bytes) override {
        evaluator_.charge_key_upload(bytes);
    }
    std::optional<std::vector<he::Cipher>> cost_only_operands(
        std::span<const he::InputFacts> facts) override {
        // Allocated with the upload charged, never encrypted (the paper's
        // N = 32K operating point).
        std::vector<he::Cipher> operands;
        for (const he::InputFacts &f : facts) {
            auto ct = core::allocate_ciphertext(gpu_, f.size, f.level,
                                                f.scale);
            gpu_.queue().transfer(ct.all().size() * sizeof(uint64_t));
            operands.push_back(backend_.adopt(std::move(ct)));
        }
        return operands;
    }
    void drop_result(const he::Cipher &result) override {
        gpu_.queue().transfer(backend_.native(result).all().size() *
                              sizeof(uint64_t));
    }
    double finish() override { return gpu_.queue().clock_ns(); }
    uint32_t track() override { return gpu_.queue().obs_track(); }
    std::string detail() const override {
        return "lane=" + std::to_string(index_);
    }

private:
    std::size_t index_;
    core::GpuContext &gpu_;
    core::GpuEvaluator &evaluator_;
    he::GpuBackend backend_;
};

/// A simulated host lane: the host backend evaluates functional requests
/// for real, and a deterministic synthetic clock keeps latency, batching
/// and lane contention measurable without a device.  Same session -> lane
/// placement as the pool, so the topology survives a fallback.
class InferenceServer::HostLane final : public Lane {
public:
    HostLane(InferenceServer &server, uint64_t session_id)
        : server_(server),
          index_(session_id % server.host_lane_ns_.size()) {}

    he::Backend &backend() override { return *server_.host_backend_; }
    double start(double dispatch_time) override {
        clock_ = std::max(server_.host_lane_ns_[index_], dispatch_time);
        return clock_;
    }
    void charge_key_load(std::size_t bytes) override {
        clock_ += kHostKeyLoadNsPerByte * static_cast<double>(bytes);
    }
    void charge_compute(std::size_t units, std::size_t limbs) override {
        // Strictly positive, so dispatch < complete for every request.
        clock_ += kHostNodeNs * static_cast<double>(units) *
                  static_cast<double>(limbs);
    }
    double finish() override {
        server_.host_lane_ns_[index_] = clock_;
        return clock_;
    }
    uint32_t track() override {
        uint32_t &track = server_.obs_host_lane_tracks_[index_];
        if (track == 0) {
            track = obs::next_track();
        }
        return track;
    }
    std::string detail() const override {
        return "host lane=" + std::to_string(index_);
    }

private:
    InferenceServer &server_;
    std::size_t index_;
    double clock_ = 0.0;
};

Response InferenceServer::route(const Admitted &entry, double dispatch_time) {
    // An explicit hint wins; Auto takes the GPU pool when one is up.  A
    // request that wanted the GPU but cannot have it runs on host, counted
    // as a fallback instead of failing.
    const Request &request = entry.request;
    const bool wants_gpu = request.backend != BackendHint::Host;
    bool fallback = wants_gpu && !pool_;
    if (wants_gpu && pool_) {
        try {
            GpuLane lane(*this, request.session_id);
            return execute(entry, lane, dispatch_time);
        } catch (const he::BackendUnavailable &) {
            // Only the lane's construction can throw here (execute maps
            // every error to a Status): "gpu" was switched off between
            // construction and dispatch, so degrade this request.
            fallback = true;
        }
    }
    ++counts_.host_requests;
    ServeMetrics::instance().host_requests.add();
    if (fallback) {
        ++counts_.fallbacks;
        ServeMetrics::instance().fallbacks.add();
    }
    HostLane lane(*this, request.session_id);
    return execute(entry, lane, dispatch_time);
}

Response InferenceServer::execute(const Admitted &entry, Lane &lane,
                                  double dispatch_time) {
    Response resp;
    resp.session_id = entry.request.session_id;
    resp.enqueue_ns = entry.request.arrival_ns;
    resp.dispatch_ns = lane.start(dispatch_time);
    // Lane-schedule span, reserved and pushed as context so key, compile
    // and kernel spans parent into it; recorded after its scope pops, so
    // it parents into the request span.
    const uint64_t lane_span =
        obs::tracing_enabled() ? obs::TraceRecorder::instance().next_id()
                               : 0;
    {
        obs::ContextScope lane_scope(lane_span);
        try {
            resp.result = evaluate(entry, lane);
            resp.ok = true;
            resp.code = Status::Ok;
        } catch (const he::ProgramRejected &e) {
            resp.code = Status::InvalidProgram;
            resp.error = e.what();
        } catch (const std::exception &e) {
            resp.code = Status::ExecError;
            resp.error = e.what();
        }
    }
    resp.complete_ns = lane.finish();
    if (lane_span != 0) {
        obs::record_sim_span("serve.lane", obs::Category::Schedule,
                             resp.dispatch_ns, resp.complete_ns, lane.track(),
                             lane.detail(), lane_span);
    }
    return resp;
}

std::vector<uint8_t> InferenceServer::evaluate(const Admitted &entry,
                                               Lane &lane) {
    const Request &request = entry.request;
    // Evaluation keys: the session's own (through the KeyManager's LRU
    // cache) when registered, else the shared tenant keys.  Re-staging the
    // keys of a cache miss makes eviction pressure visible in the tail.
    he::ProgramKeys keys;
    keys.relin = relin_.key.keys.empty() ? nullptr : &relin_;
    keys.galois = galois_.keys.empty() ? nullptr : &galois_;
    std::shared_ptr<const SessionKeys> session_keys;
    if (key_manager_->has(request.session_id)) {
        KeyManager::Acquired acq = key_manager_->acquire(request.session_id);
        session_keys = std::move(acq.keys);
        keys.relin = &session_keys->relin;
        keys.galois = &session_keys->galois;
        if (acq.miss) {
            lane.charge_key_load(acq.expanded_bytes);
        }
    }
    const std::size_t level = input_level(request, *host_);

    // A client circuit runs compiled for the facts admission accepted it
    // against (so it compiles), cached so a repeat pays the compile once.
    std::shared_ptr<const he::Program> program = entry.program;
    if (request.op == Op::Program && config_.compile_programs) {
        program = compile_cache_.find(*entry.program, entry.facts);
        if (program) {
            ServeMetrics::instance().program_cache_hits.add();
        } else {
            ServeMetrics::instance().programs_compiled.add();
            program = compile_cache_.insert(*entry.program, entry.facts);
        }
    }
    require_keys(*program, keys, host_->n());
    lane.charge_compute(work_units(*program), level + 1);

    // Operands: deserialize + upload, or the lane's cost-only stand-ins.
    he::Backend &backend = lane.backend();
    std::optional<std::vector<he::Cipher>> operands;
    if (request.cost_only) {
        operands = lane.cost_only_operands(entry.facts);
    } else {
        operands.emplace();
        for (const auto &bytes : request.inputs) {
            operands->push_back(
                backend.upload(wire::load_ciphertext(bytes, *host_)));
        }
    }
    if (!operands) {
        return {};  // charged, not executed
    }

    he::Cipher result = std::move(
        he::run_program(*program, backend, *operands, keys).front());
    if (!config_.functional) {
        lane.drop_result(result);
        return {};
    }
    // Download blocks a device lane (the Decrypt-side sync of Fig. 2).
    return wire::serialize(backend.download(result));
}

LatencyStats InferenceServer::stats() const {
    LatencyStats stats = counts_;
    stats.keys = key_manager_->stats();
    const InferenceServer *self = this;
    publish_device_gauges({&self, 1});
    latency_.summarize(stats);
    return stats;
}

void InferenceServer::publish_device_gauges(
    std::span<const InferenceServer *const> servers) {
    // Published at stats points only: per-kernel registry updates would
    // put atomics on the hot path.
    double makespan = 0.0, busy = 0.0, kernel = 0.0, live = 0.0, peak = 0.0;
    bool gpu = false;
    for (const InferenceServer *server : servers) {
        core::GpuEvaluatorPool *pool = server->pool_.get();
        if (pool == nullptr) {
            continue;
        }
        gpu = true;
        makespan = std::max(makespan, pool->makespan_ns());
        busy += pool->busy_ns();
        for (std::size_t lane = 0; lane < pool->lane_count(); ++lane) {
            xgpu::Queue &queue = pool->context(lane).queue();
            kernel += queue.profiler().total_ns();
            const xgpu::MemoryCache::Stats &cache = queue.cache().stats();
            live += static_cast<double>(cache.live_bytes);
            peak += static_cast<double>(cache.peak_live_bytes);
        }
    }
    if (gpu) {
        auto &reg = obs::Registry::global();
        reg.gauge("xgpu.makespan_ns").set(makespan);
        reg.gauge("xgpu.busy_ns").set(busy);
        reg.gauge("xgpu.kernel_ns").set(kernel);
        reg.gauge("xgpu.cache.live_bytes").set(live);
        reg.gauge("xgpu.cache.peak_live_bytes").set(peak);
    }
}

}  // namespace xehe::serve
