#include "xehe/gpu_ciphertext.h"

#include <algorithm>

namespace xehe::core {

GpuCiphertext allocate_ciphertext(GpuContext &gpu, std::size_t size,
                                  std::size_t rns, double scale) {
    GpuCiphertext ct;
    ct.n = gpu.host().n();
    ct.size = size;
    ct.rns = rns;
    ct.scale = scale;
    ct.ntt_form = true;
    ct.data = gpu.allocate(size * rns * ct.n);
    return ct;
}

GpuCiphertext upload(GpuContext &gpu, const ckks::Ciphertext &ct) {
    GpuCiphertext out = allocate_ciphertext(gpu, ct.size, ct.rns, ct.scale);
    out.ntt_form = ct.ntt_form;
    if (gpu.queue().functional()) {  // a cost-only buffer has no payload
        std::copy(ct.data.begin(), ct.data.end(), out.data.data());
    }
    gpu.queue().transfer(ct.data.size() * sizeof(uint64_t));
    return out;
}

ckks::Ciphertext download(GpuContext &gpu, const GpuCiphertext &ct) {
    ckks::Ciphertext out;
    out.resize(ct.n, ct.size, ct.rns);
    out.scale = ct.scale;
    out.ntt_form = ct.ntt_form;
    if (gpu.queue().functional()) {  // cost-only: the zeros resize() left
        const auto src = ct.all();
        std::copy(src.begin(), src.end(), out.data.begin());
    }
    gpu.queue().transfer(out.data.size() * sizeof(uint64_t));
    gpu.queue().wait();  // the pipeline's single blocking point
    return out;
}

}  // namespace xehe::core
