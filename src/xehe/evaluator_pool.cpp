#include "xehe/evaluator_pool.h"

#include "he/backend.h"

namespace xehe::core {

GpuEvaluatorPool::GpuEvaluatorPool(const ckks::CkksContext &host,
                                   xgpu::DeviceSpec spec, GpuOptions options,
                                   int queue_count, xgpu::ThreadPool *pool)
    : scheduler_((he::require_backend("gpu"), std::move(spec)),
                 xgpu::ExecConfig{1, options.isa, true}, queue_count,
                 pool ? pool : &xgpu::ThreadPool::global()) {
    lanes_.reserve(scheduler_.queue_count());
    for (std::size_t i = 0; i < scheduler_.queue_count(); ++i) {
        // The pool owns the queues, so it — not the bound contexts —
        // decides the per-queue cache policy.
        scheduler_.queue(i).cache().set_enabled(options.use_memory_cache);
        Lane lane;
        lane.context = std::make_unique<GpuContext>(host, scheduler_.queue(i),
                                                    options);
        lane.evaluator = std::make_unique<GpuEvaluator>(*lane.context);
        lanes_.push_back(std::move(lane));
    }
}

}  // namespace xehe::core
