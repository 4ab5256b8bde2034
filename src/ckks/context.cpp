#include "ckks/context.h"

#include <algorithm>

namespace xehe::ckks {

EncryptionParameters EncryptionParameters::create(std::size_t poly_degree,
                                                  std::size_t levels,
                                                  int data_bits,
                                                  int special_bits) {
    util::require(levels >= 1, "need at least one data prime");
    EncryptionParameters params;
    params.poly_degree = poly_degree;
    if (data_bits == special_bits) {
        params.coeff_modulus =
            util::generate_ntt_primes(data_bits, poly_degree, levels + 1);
    } else {
        params.coeff_modulus =
            util::generate_ntt_primes(data_bits, poly_degree, levels);
        const auto special =
            util::generate_ntt_primes(special_bits, poly_degree, 1);
        params.coeff_modulus.push_back(special[0]);
    }
    return params;
}

CkksContext::CkksContext(EncryptionParameters params)
    : params_(std::move(params)) {
    util::require(util::is_power_of_two(params_.poly_degree),
                  "poly degree must be a power of two");
    util::require(params_.coeff_modulus.size() >= 2,
                  "need at least one data prime and the special prime");
    log_n_ = util::log2_exact(params_.poly_degree);
    tables_ = ntt::make_ntt_tables(params_.poly_degree, params_.coeff_modulus);

    const std::size_t k = key_rns();
    inv_last_.resize(k);
    half_.resize(k);
    half_mod_.resize(k);
    for (std::size_t j = 0; j < k; ++j) {
        half_[j] = params_.coeff_modulus[j].value() >> 1;
        inv_last_[j].resize(j);
        half_mod_[j].resize(j);
        for (std::size_t i = 0; i < j; ++i) {
            const Modulus &qi = params_.coeff_modulus[i];
            uint64_t inv = 0;
            util::require(
                util::try_invert_mod(
                    params_.coeff_modulus[j].value() % qi.value(), qi, &inv),
                "coeff moduli must be distinct primes");
            inv_last_[j][i] = MultiplyModOperand(inv, qi);
            half_mod_[j][i] = util::barrett_reduce_64(half_[j], qi);
        }
    }
}

}  // namespace xehe::ckks
