#include "artifact.hpp"

#include <cstdio>

#include "sim/rng.hpp"

namespace mcps::pipeline {

namespace {

using sim::fnv1a64;

/// Continues \p h over one string field. A field separator that cannot
/// appear in the data keeps ("ab","c") and ("a","bc") from colliding.
std::uint64_t fnv1a_field(std::uint64_t h, std::string_view s) noexcept {
    return fnv1a64("\xff", fnv1a64(s, h));
}

/// Continues \p h over the eight bytes of \p v, least significant first.
std::uint64_t fnv1a_field(std::uint64_t h, std::uint64_t v) noexcept {
    char bytes[8];
    for (std::size_t i = 0; i < 8; ++i) {
        bytes[i] = static_cast<char>((v >> (8 * i)) & 0xffU);
    }
    return fnv1a64(std::string_view{bytes, sizeof bytes}, h);
}

}  // namespace

std::uint64_t Artifact::digest() const noexcept {
    std::uint64_t h = sim::kFnvOffset;
    h = fnv1a_field(h, kind);
    h = fnv1a_field(h, payload);
    return h;
}

std::string Artifact::digest_hex() const { return hex64(digest()); }

std::string hex64(std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string artifact_key(std::string_view pass_name, std::string_view params,
                         const std::vector<std::uint64_t>& input_digests,
                         std::string_view output) {
    std::uint64_t h = sim::kFnvOffset;
    h = fnv1a_field(h, pass_name);
    h = fnv1a_field(h, params);
    for (const std::uint64_t d : input_digests) h = fnv1a_field(h, d);
    h = fnv1a_field(h, output);
    return std::string{output} + "@" + hex64(h);
}

}  // namespace mcps::pipeline
