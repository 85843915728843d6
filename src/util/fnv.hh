/**
 * @file
 * 64-bit FNV-1a, the hash behind every stateHash() and the checker's
 * coverage signatures.
 *
 * mix(v) hashes the eight little-endian bytes of @p v, but runs the
 * byte loop only up to v's highest nonzero byte.  XOR with a zero
 * byte is the identity, so each remaining zero byte is one multiply
 * by the prime, and those fold (mod 2^64) into a single multiply by a
 * precomputed power of it.  Every digest equals the byte-wise loop's;
 * small values, the common case in machine state, cost one to three
 * multiplies instead of eight.
 */

#ifndef ULDMA_UTIL_FNV_HH
#define ULDMA_UTIL_FNV_HH

#include <array>
#include <cstdint>
#include <string_view>

namespace uldma {

/** 64-bit FNV-1a accumulator. */
struct Fnv1a
{
    static constexpr std::uint64_t offsetBasis = 0xcbf29ce484222325ULL;
    static constexpr std::uint64_t prime = 0x100000001b3ULL;

    std::uint64_t h = offsetBasis;

    /** Mix the eight little-endian bytes of @p v. */
    void
    mix(std::uint64_t v)
    {
        unsigned zeroBytes = 8;
        for (; v != 0; v >>= 8, --zeroBytes) {
            h ^= v & 0xff;
            h *= prime;
        }
        h *= primePowers[zeroBytes];
    }

    /**
     * Mix @p words zero words, exactly as that many mix(0) calls
     * would: each is one multiply by prime^8, so together they are one
     * multiply by prime^(8 * words), raised here by square-and-multiply.
     */
    void
    mixZeros(std::uint64_t words)
    {
        std::uint64_t power = 1;
        for (std::uint64_t base = primePowers[8]; words != 0;
             words >>= 1, base *= base) {
            if (words & 1)
                power *= base;
        }
        h *= power;
    }

    /** Mix every byte of @p bytes. */
    void
    mixBytes(std::string_view bytes)
    {
        for (const unsigned char c : bytes) {
            h ^= c;
            h *= prime;
        }
    }

  private:
    /** primePowers[k] == prime^k mod 2^64, for k = 0..8. */
    static constexpr std::array<std::uint64_t, 9> primePowers = [] {
        std::array<std::uint64_t, 9> p{};
        p[0] = 1;
        for (unsigned k = 1; k < p.size(); ++k)
            p[k] = p[k - 1] * prime;
        return p;
    }();
};

} // namespace uldma

#endif // ULDMA_UTIL_FNV_HH
