/**
 * @file
 * Binary (de)serialization of HyperPlonk proofs.
 *
 * A proof is a single message (non-interactivity); this is the wire format
 * a verifier service would consume. Layout: little-endian u32 lengths,
 * 32-byte canonical field elements, 97-byte uncompressed affine points
 * (x || y || flag: 1 for a finite point, 0 with zero coordinates for the
 * identity). Deserialization validates structure, canonical encodings and
 * point membership in the prime-order subgroup, and caps every length
 * field by the bytes left before allocating; the round-trip, tamper and
 * mutation tests live in tests/test_serialize.cpp.
 */
#ifndef ZKPHIRE_HYPERPLONK_SERIALIZE_HPP
#define ZKPHIRE_HYPERPLONK_SERIALIZE_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "hyperplonk/proof.hpp"

namespace zkphire::hyperplonk {

/** Serialize a proof to bytes. */
std::vector<std::uint8_t> serializeProof(const HyperPlonkProof &proof);

/**
 * Parse a proof. Returns nullopt on malformed input (truncation, bad
 * lengths, non-canonical field elements or point encodings, or points not
 * on the curve or not in G1).
 */
std::optional<HyperPlonkProof>
deserializeProof(std::span<const std::uint8_t> bytes);

} // namespace zkphire::hyperplonk

#endif // ZKPHIRE_HYPERPLONK_SERIALIZE_HPP
