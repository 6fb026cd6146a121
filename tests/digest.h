// FNV-1a 64-bit digest of a byte string. Tests use it to pin outputs
// that must stay byte-identical (trained weights, exported artifacts)
// to values recorded from a known-good build: any reordering of the
// floating-point work that produced them changes the digest.

#ifndef RUMBA_TESTS_DIGEST_H_
#define RUMBA_TESTS_DIGEST_H_

#include <cstdint>
#include <string_view>

namespace rumba::testutil {

inline uint64_t
Fnv1a64(std::string_view bytes)
{
    uint64_t hash = 14695981039346656037ull;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    return hash;
}

}  // namespace rumba::testutil

#endif  // RUMBA_TESTS_DIGEST_H_
