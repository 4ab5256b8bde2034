// Reference (host, scalar) negacyclic NTT — the correctness oracle for all
// GPU kernel variants, playing the role Intel HEXL's CPU path plays for the
// paper.  Also provides an O(N^2) textbook negacyclic transform and
// polynomial multiplication used to validate the fast transforms.
#pragma once

#include <span>

#include "ntt/ntt_tables.h"

namespace xehe::ntt {

/// In-place forward negacyclic NTT (Harvey lazy butterflies, final values
/// reduced to [0, q)).  Output is in bit-reversed evaluation order:
/// out[j] = a(ψ^{2·bitreverse(j, log N) + 1}).
void ntt_forward(std::span<uint64_t> a, const NttTables &tables);

/// In-place inverse negacyclic NTT (Gentleman-Sande), consuming the
/// bit-reversed order produced by ntt_forward; output reduced to [0, q).
void ntt_inverse(std::span<uint64_t> a, const NttTables &tables);

/// Textbook O(N^2) negacyclic evaluation with the same output ordering as
/// ntt_forward.  For tests.
void naive_negacyclic_ntt(std::span<const uint64_t> a, std::span<uint64_t> out,
                          const NttTables &tables);

/// Schoolbook negacyclic polynomial product c = a * b mod (x^N + 1, q).
void naive_negacyclic_multiply(std::span<const uint64_t> a,
                               std::span<const uint64_t> b,
                               std::span<uint64_t> c, const Modulus &q);

}  // namespace xehe::ntt
