#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "he/analyze.h"
#include "he/compiler.h"
#include "obs/trace.h"

namespace xehe::serve {

// The first five Op values name the Section IV-C routines in Routine
// order, so the server can map a fixed-function request straight onto its
// canonical program.
static_assert(static_cast<int>(Op::MulLin) ==
                  static_cast<int>(core::Routine::MulLin) &&
              static_cast<int>(Op::MulLinRS) ==
                  static_cast<int>(core::Routine::MulLinRS) &&
              static_cast<int>(Op::SqrLinRS) ==
                  static_cast<int>(core::Routine::SqrLinRS) &&
              static_cast<int>(Op::MulLinRSModSwAdd) ==
                  static_cast<int>(core::Routine::MulLinRSModSwAdd) &&
              static_cast<int>(Op::Rotate) ==
                  static_cast<int>(core::Routine::Rotate));

namespace {

constexpr double kScale = 1099511627776.0;  // 2^40

/// Deterministic host-lane time model: per program node, per RNS limb.
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
      key_manager_(key_manager
                       ? std::move(key_manager)
                       : std::make_shared<KeyManager>(
                             host, config.key_budget_bytes, pool)) {
    he::BackendRegistry &registry = he::BackendRegistry::instance();
    if (registry.available("gpu")) {
        try {
            pool_ = std::make_unique<core::GpuEvaluatorPool>(
                host, spec, options, config_.queue_count, pool);
        } catch (const he::BackendUnavailable &) {
            // The probe passed but construction failed: degrade to
            // host-only instead of refusing to come up.
            pool_.reset();
        }
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
    he::BackendEnv env;
    env.context = &host;
    host_bundle_ = registry.create("host", env);
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
    Admitted entry{std::move(request), nullptr};
    if (entry.request.op == Op::Program && !admit_program(entry)) {
        return;
    }
    pending_.push_back(std::move(entry));
}

bool InferenceServer::admit_program(Admitted &entry) {
    const Request &request = entry.request;
    obs::Span span("serve.analyze", obs::Category::Serve);
    try {
        auto program = std::make_shared<he::Program>(
            he::load_program(request.program, *host_));
        util::require(program->outputs.size() == 1,
                      "served programs must have exactly one output");
        entry.program = std::move(program);
    } catch (const std::exception &e) {
        reject(request.session_id, Status::ParseError, e.what());
        return false;
    }
    // The execution level is known at the front door; input sizes and
    // scales are the client's.  Cost-only operands are fabricated (size 2,
    // kScale, exactly input_level), so their facts are exact; without the
    // compiler the level is whatever the client shipped.  These facts are
    // at least as exact as the compiler's, so no later re-check is needed.
    he::InputFacts facts;
    facts.size = request.cost_only ? 2 : 0;
    facts.level = config_.compile_programs || request.cost_only
                      ? input_level(request, *host_)
                      : 0;
    facts.scale =
        request.cost_only && !config_.compile_programs ? kScale : 0.0;
    he::AnalyzerOptions aopts;
    aopts.assume_alignment = config_.compile_programs;
    // load_program just validated structurally, and admission acts on
    // ok() and the first error only.
    aopts.assume_validated = true;
    aopts.errors_only = true;
    const he::ProgramAnalyzer analyzer(*host_, std::move(aopts));
    const he::AnalysisReport report = analyzer.analyze(*entry.program, facts);
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

std::shared_ptr<const he::Program> InferenceServer::compiled_program(
    const Admitted &entry, std::size_t input_level) {
    // Session id + input level + program bytes: a hit is a byte-equal
    // submission compiled under identical assumptions.
    const uint64_t session_id = entry.request.session_id;
    const std::vector<uint8_t> &bytes = entry.request.program;
    std::string key;
    key.reserve(2 * sizeof(uint64_t) + bytes.size());
    const uint64_t level64 = input_level;
    key.append(reinterpret_cast<const char *>(&session_id),
               sizeof(session_id));
    key.append(reinterpret_cast<const char *>(&level64), sizeof(level64));
    key.append(reinterpret_cast<const char *>(bytes.data()), bytes.size());
    if (auto it = program_cache_.find(key); it != program_cache_.end()) {
        ++program_cache_hits_;
        ServeMetrics::instance().program_cache_hits.add();
        return it->second;
    }
    ServeMetrics::instance().programs_compiled.add();

    // Admission analyzed this circuit (rejected ones never occupy a slot);
    // the compiler self-verifies its output.
    he::CompilerOptions copts;
    copts.input_level = input_level;
    copts.input_scale = kScale;  // the serving admission scale
    he::ProgramCompiler compiler(*host_, copts);
    auto compiled = std::make_shared<const he::Program>(
        compiler.compile(*entry.program).program);

    constexpr std::size_t kCacheCap = 256;
    if (program_cache_.size() >= kCacheCap) {
        program_cache_.clear();
    }
    program_cache_.emplace(std::move(key), compiled);
    return compiled;
}

std::size_t InferenceServer::route_cost(const Request &request) const {
    if (request.op == Op::MatmulTile) {
        return 2 * static_cast<std::size_t>(request.matmul_tiles);
    }
    if (request.op == Op::Program) {
        // Routing runs before execution looks at the circuit; its wire
        // size is a monotone proxy for node count.
        return request.program.size() / 16;
    }
    return core::routine_program(static_cast<core::Routine>(request.op))
        .nodes.size();
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
    /// Charges `nodes` program nodes over `limbs` RNS limbs (a device
    /// lane's kernels charge themselves).
    virtual void charge_compute(std::size_t /*nodes*/,
                                std::size_t /*limbs*/) {}
    /// Operands of a cost-only request, or nullopt when the lane charges
    /// cost-only requests without executing them.
    virtual std::optional<std::vector<he::Cipher>> cost_only_operands(
        std::size_t /*arity*/, std::size_t /*level*/) {
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
    /// effect, if "gpu" has been pulled out from under the server.
    GpuLane(InferenceServer &server, uint64_t session_id)
        : index_(server.pool_->lane_of(session_id)),
          gpu_(server.pool_->context(index_)),
          evaluator_(server.pool_->evaluator(index_)) {
        he::BackendEnv env;
        env.context = server.host_;
        env.gpu_context = &gpu_;
        env.gpu_evaluator = &evaluator_;
        bundle_ = he::BackendRegistry::instance().create("gpu", env);
        backend_ = &static_cast<he::GpuBackend &>(bundle_.backend());
    }

    he::Backend &backend() override { return *backend_; }
    double start(double dispatch_time) override {
        gpu_.queue().advance_to(dispatch_time);
        return gpu_.queue().clock_ns();
    }
    void charge_key_load(std::size_t bytes) override {
        evaluator_.charge_key_upload(bytes);
    }
    std::optional<std::vector<he::Cipher>> cost_only_operands(
        std::size_t arity, std::size_t level) override {
        // Allocated at level with the upload charged, never encrypted
        // (the paper's N = 32K operating point, as in run_batch_serving).
        std::vector<he::Cipher> operands;
        for (std::size_t a = 0; a < arity; ++a) {
            auto ct = core::allocate_ciphertext(gpu_, 2, level, kScale);
            gpu_.queue().transfer(ct.all().size() * sizeof(uint64_t));
            operands.push_back(backend_->adopt(std::move(ct)));
        }
        return operands;
    }
    void drop_result(const he::Cipher &result) override {
        gpu_.queue().transfer(backend_->native(result).all().size() *
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
    he::BackendBundle bundle_;
    he::GpuBackend *backend_ = nullptr;  ///< owned by bundle_
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

    he::Backend &backend() override { return server_.host_bundle_.backend(); }
    double start(double dispatch_time) override {
        clock_ = std::max(server_.host_lane_ns_[index_], dispatch_time);
        return clock_;
    }
    void charge_key_load(std::size_t bytes) override {
        clock_ += kHostKeyLoadNsPerByte * static_cast<double>(bytes);
    }
    void charge_compute(std::size_t nodes, std::size_t limbs) override {
        // Strictly positive, so dispatch < complete for every request.
        clock_ += kHostNodeNs * static_cast<double>(nodes) *
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
    // An explicit hint wins; Auto takes the GPU pool when one is up, unless
    // cost routing (when configured) keeps a small job on host.  A request
    // that wanted the GPU but cannot have it runs on host, counted as a
    // fallback instead of failing.
    const Request &request = entry.request;
    const bool wants_gpu = request.backend != BackendHint::Host;
    const bool cost_routed = request.backend == BackendHint::Auto &&
                             config_.host_route_max_cost > 0 &&
                             route_cost(request) <= config_.host_route_max_cost;
    bool fallback = wants_gpu && !pool_;
    if (wants_gpu && pool_ && !cost_routed) {
        try {
            GpuLane lane(*this, request.session_id);
            return execute(entry, lane, dispatch_time);
        } catch (const he::BackendUnavailable &) {
            // Only the lane's construction can throw here (execute maps
            // every error to a Status): the registry refused the backend
            // between admission and dispatch, so degrade this request.
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

    // A client circuit runs in compiled form when compile_programs is on,
    // cached per session so a re-submitted circuit pays the compile once.
    const bool is_program = request.op == Op::Program;
    std::shared_ptr<const he::Program> program = entry.program;
    if (is_program && config_.compile_programs) {
        program = compiled_program(entry, level);
    }
    const bool needs_relin = request.op != Op::Rotate &&
                             request.op != Op::MatmulTile && !is_program;
    util::require(!needs_relin || keys.relin != nullptr,
                  "relin keys not registered");
    util::require(request.op != Op::Rotate || keys.galois != nullptr,
                  "galois keys not registered");
    lane.charge_compute(
        std::max<std::size_t>(
            is_program ? program->nodes.size() : route_cost(request), 1),
        level + 1);

    // Operands: deserialize + upload, or the lane's cost-only stand-ins.
    he::Backend &backend = lane.backend();
    const std::size_t arity =
        is_program ? program->num_inputs : op_arity(request.op);
    std::optional<std::vector<he::Cipher>> operands;
    if (request.cost_only) {
        operands = lane.cost_only_operands(arity, level);
    } else {
        util::require(request.inputs.size() == arity,
                      "input count does not match op");
        operands.emplace();
        for (const auto &bytes : request.inputs) {
            operands->push_back(
                backend.upload(wire::load_ciphertext(bytes, *host_)));
        }
    }
    if (!operands) {
        return {};  // charged, not executed
    }

    he::Cipher result;
    if (request.op == Op::MatmulTile) {
        // One output tile of the encrypted matmul, strictly ordered on the
        // session's lane (Section IV-E).
        result = backend.multiply_acc((*operands)[0], (*operands)[1],
                                      request.matmul_tiles);
    } else {
        // Everything else is a program: the client's circuit or the
        // routine's canonical program, compiled as the routine harness
        // runs it (identity: these programs are already minimal).
        he::Program stepped_rotate;
        const he::Program *run = program.get();
        if (request.op == Op::Rotate && request.rotate_step != 1) {
            stepped_rotate = he::rotate_program(request.rotate_step);
            run = &stepped_rotate;
        } else if (!is_program) {
            const auto routine = static_cast<core::Routine>(request.op);
            run = config_.compile_programs
                      ? &core::routine_program_compiled(routine)
                      : &core::routine_program(routine);
        }
        result = std::move(
            he::run_program(*run, backend, *operands, keys).front());
    }
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

    // Publish the device-side aggregates that only exist at stats points
    // (per-kernel registry updates would put atomics on the hot path).
    auto &reg = obs::Registry::global();
    if (pool_) {
        reg.gauge("xgpu.makespan_ns").set(pool_->makespan_ns());
        reg.gauge("xgpu.busy_ns").set(pool_->busy_ns());
        std::size_t live = 0;
        std::size_t peak = 0;
        for (std::size_t lane = 0; lane < pool_->lane_count(); ++lane) {
            const xgpu::MemoryCache::Stats &cache =
                pool_->context(lane).queue().cache().stats();
            live += cache.live_bytes;
            peak += cache.peak_live_bytes;
        }
        reg.gauge("xgpu.cache.live_bytes").set(static_cast<double>(live));
        reg.gauge("xgpu.cache.peak_live_bytes")
            .set(static_cast<double>(peak));
    }
    latency_.summarize(stats);
    return stats;
}

}  // namespace xehe::serve
