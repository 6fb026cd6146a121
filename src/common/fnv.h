#ifndef RUMBA_COMMON_FNV_H_
#define RUMBA_COMMON_FNV_H_

/**
 * @file
 * FNV-1a 64-bit: cheap, stable across runs and platforms, and
 * collision-resistant enough for "is this the same blob / batch?".
 * Not cryptographic. Artifact checksums and request input digests
 * both use it.
 */

#include <cstddef>
#include <cstdint>

namespace rumba {

/** FNV-1a 64 over @p size raw bytes at @p data. */
inline uint64_t
Fnv1a64(const void* data, size_t size)
{
    const auto* bytes = static_cast<const unsigned char*>(data);
    uint64_t hash = 14695981039346656037ull;
    for (size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

}  // namespace rumba

#endif  // RUMBA_COMMON_FNV_H_
