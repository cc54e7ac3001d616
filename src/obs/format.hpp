/// \file format.hpp
/// \brief Deterministic number formatting for observability exporters.
///
/// Golden traces are byte-diffed, so every number must render the same
/// way on every run. Integral values print as integers (no exponent, no
/// trailing zeros); everything else prints with %.17g, which
/// round-trips IEEE doubles exactly. Non-finite values render as JSON
/// null — they are never valid metric/event payloads, but an exporter
/// must not emit invalid JSON even for buggy inputs.

#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace mcps::obs {

[[nodiscard]] inline std::string format_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof buf, "%.17g", v);
    }
    return buf;
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
/// The one escaper for every JSON writer in the tree (obs exporters,
/// serve protocol, analysis findings/SARIF). Input is passed through
/// byte for byte otherwise, so it must stay correct for arbitrary
/// content.
[[nodiscard]] inline std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(
                                      static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

}  // namespace mcps::obs
