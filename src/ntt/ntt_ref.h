// Reference (host) negacyclic NTT — the correctness oracle for all GPU
// kernel variants, playing the role Intel HEXL's CPU path plays for the
// paper.  Like HEXL, the transforms run 8-lane AVX-512 butterflies where
// the CPU and the modulus allow and scalar Harvey butterflies elsewhere;
// every path gives the same words.  Also provides an O(N^2) textbook
// negacyclic transform and polynomial multiplication used to validate the
// fast transforms.
//
// Dispatch (detail::path, x86-64 builds only; N >= 16 for either vector
// path), three tiers:
//   - IFMA52 lanes for q < 2^50, on a CPU with AVX-512F, DQ and IFMA
//     (lazy values below 4q fit the 52-bit multiplier);
//   - 64-bit AVX-512F/DQ lanes for q < 2^61 (Modulus::kMaxBits), on a CPU
//     with AVX-512F and DQ: every other prime, the 60-bit special prime
//     included, and every prime on a CPU without IFMA;
//   - the scalar loops, detail::forward_scalar/inverse_scalar, otherwise.
// No option selects the path; outputs are canonical residues, so every
// path writes the same words.
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
/// ntt_forward/ntt_inverse.  The path when path() is Path::scalar, and the
/// oracle the vector paths are tested against.
void forward_scalar(std::span<uint64_t> a, const NttTables &tables);
void inverse_scalar(std::span<uint64_t> a, const NttTables &tables);

enum class Path { scalar, avx512, ifma };

/// The path ntt_forward/ntt_inverse run for these tables on this CPU (the
/// dispatch rule above).
Path path(const NttTables &tables) noexcept;

}  // namespace detail

}  // namespace xehe::ntt
