// Reference (host) negacyclic NTT — the correctness oracle for all GPU
// kernel variants, playing the role Intel HEXL's CPU path plays for the
// paper.  Like HEXL, the transforms run 8-lane AVX-512 IFMA52 butterflies
// where the CPU and the modulus allow and scalar Harvey butterflies
// elsewhere; both give the same words.  Also provides an O(N^2) textbook
// negacyclic transform and polynomial multiplication used to validate the
// fast transforms.
//
// Dispatch: ntt_forward/ntt_inverse take the vector path exactly when
// detail::uses_ifma(tables) holds — the CPU reports AVX-512F and
// AVX-512 IFMA (x86-64 builds only), q < 2^50 (so lazy values below 4q fit
// the 52-bit multiplier) and N >= 16.  Otherwise they run the scalar
// loops, detail::forward_scalar/inverse_scalar.  No option selects the
// path; outputs are canonical residues, so both paths write the same words.
#pragma once

#include <span>

#include "ntt/ntt_tables.h"

namespace xehe::ntt {

/// In-place forward negacyclic NTT (Harvey lazy butterflies, final values
/// reduced to [0, q)).  Accepts inputs in [0, 4q).  Output is in
/// bit-reversed evaluation order:
/// out[j] = a(ψ^{2·bitreverse(j, log N) + 1}).
void ntt_forward(std::span<uint64_t> a, const NttTables &tables);

/// In-place inverse negacyclic NTT (Gentleman-Sande), consuming the
/// bit-reversed order produced by ntt_forward.  Accepts inputs in [0, 2q);
/// output reduced to [0, q).
void ntt_inverse(std::span<uint64_t> a, const NttTables &tables);

/// Textbook O(N^2) negacyclic evaluation with the same output ordering as
/// ntt_forward.  For tests.
void naive_negacyclic_ntt(std::span<const uint64_t> a, std::span<uint64_t> out,
                          const NttTables &tables);

/// Schoolbook negacyclic polynomial product c = a * b mod (x^N + 1, q).
void naive_negacyclic_multiply(std::span<const uint64_t> a,
                               std::span<const uint64_t> b,
                               std::span<uint64_t> c, const Modulus &q);

namespace detail {

/// The scalar loops: one Harvey butterfly at a time, same contract as
/// ntt_forward/ntt_inverse.  The only path when uses_ifma() is false, and
/// the oracle the vector path is tested against.
void forward_scalar(std::span<uint64_t> a, const NttTables &tables);
void inverse_scalar(std::span<uint64_t> a, const NttTables &tables);

/// True when ntt_forward/ntt_inverse run the AVX-512 IFMA path for these
/// tables (the dispatch rule above).
bool uses_ifma(const NttTables &tables) noexcept;

}  // namespace detail

}  // namespace xehe::ntt
