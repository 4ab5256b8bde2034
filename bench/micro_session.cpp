// Wall-clock microbenchmark of the managed he::Session surface on the
// host backend at N = 8192, L = 3: add at equal levels, add across a
// one-level gap (the session aligns the operands), and multiply
// (relinearize and rescale included).  Only the public Session API is
// used, so one source times any version of the session.
#include <benchmark/benchmark.h>

#include <vector>

#include "he/session.h"

namespace xc = xehe::ckks;
namespace xh = xehe::he;

namespace {

struct Rig {
    xc::CkksContext context{xc::EncryptionParameters::create(8192, 3)};
    xh::HostBackend backend{context};
    xh::Session session{backend};
    xh::Cipher a = session.encrypt(std::vector<double>(context.slots(), 0.25));
    xh::Cipher b = session.encrypt(std::vector<double>(context.slots(), 0.5));
    /// a * b, rescaled one level below a and b at the session scale.
    xh::Cipher product = session.multiply(a, b);

    static Rig &instance() {
        static Rig rig;
        return rig;
    }
};

}  // namespace

static void BM_SessionAdd(benchmark::State &state) {
    Rig &r = Rig::instance();
    for (auto _ : state) {
        xh::Cipher sum = r.session.add(r.a, r.b);
        benchmark::DoNotOptimize(sum);
    }
}
BENCHMARK(BM_SessionAdd)->Unit(benchmark::kMicrosecond);

static void BM_SessionAddLevelGap(benchmark::State &state) {
    Rig &r = Rig::instance();
    if (r.product.level() + 1 != r.a.level()) {
        state.SkipWithError("expected a one-level gap");
    }
    for (auto _ : state) {
        xh::Cipher sum = r.session.add(r.a, r.product);
        benchmark::DoNotOptimize(sum);
    }
}
BENCHMARK(BM_SessionAddLevelGap)->Unit(benchmark::kMicrosecond);

static void BM_SessionMultiply(benchmark::State &state) {
    Rig &r = Rig::instance();
    for (auto _ : state) {
        xh::Cipher product = r.session.multiply(r.a, r.b);
        benchmark::DoNotOptimize(product);
    }
}
BENCHMARK(BM_SessionMultiply)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
