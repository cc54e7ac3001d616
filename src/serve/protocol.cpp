#include "protocol.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>

#include "obs/format.hpp"

namespace mcps::serve {

namespace {

[[noreturn]] void bad(std::string message) {
    throw ProtocolError{"bad-request", std::move(message)};
}

/// Strict, total JSON scanner for the fixed envelope shapes. Escape
/// handling is limited to what the protocol itself emits (json_escape
/// below); anything else is a structured error. Balanced sub-values
/// ("spec", "artifacts", "stats") are captured as raw text with a depth
/// bound so adversarial nesting cannot recurse or allocate unboundedly.
class Scan {
public:
    explicit Scan(std::string_view t) : t_{t} {}

    void ws() noexcept {
        while (i_ < t_.size() &&
               std::isspace(static_cast<unsigned char>(t_[i_])) != 0) {
            ++i_;
        }
    }

    char peek() {
        ws();
        if (i_ >= t_.size()) bad("unexpected end of input");
        return t_[i_];
    }

    void expect(char c) {
        if (peek() != c) {
            bad(std::string{"expected '"} + c + "', got '" + t_[i_] + "'");
        }
        ++i_;
    }

    bool accept(char c) {
        ws();
        if (i_ < t_.size() && t_[i_] == c) {
            ++i_;
            return true;
        }
        return false;
    }

    /// Quoted string with the protocol's escape set.
    std::string string() {
        expect('"');
        std::string out;
        while (true) {
            if (i_ >= t_.size()) bad("unterminated string");
            const char c = t_[i_++];
            if (c == '"') return out;
            if (static_cast<unsigned char>(c) < 0x20) {
                bad("raw control byte in string");
            }
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (i_ >= t_.size()) bad("unterminated escape");
            const char e = t_[i_++];
            switch (e) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'n': out.push_back('\n'); break;
                case 't': out.push_back('\t'); break;
                case 'r': out.push_back('\r'); break;
                case 'u': {
                    if (i_ + 4 > t_.size()) bad("truncated \\u escape");
                    unsigned v = 0;
                    for (int k = 0; k < 4; ++k) {
                        const char h = t_[i_++];
                        v <<= 4;
                        if (h >= '0' && h <= '9') {
                            v |= static_cast<unsigned>(h - '0');
                        } else if (h >= 'a' && h <= 'f') {
                            v |= static_cast<unsigned>(h - 'a' + 10);
                        } else if (h >= 'A' && h <= 'F') {
                            v |= static_cast<unsigned>(h - 'A' + 10);
                        } else {
                            bad("invalid \\u escape digit");
                        }
                    }
                    if (v > 0x7F) {
                        // The protocol only ever \u-escapes control
                        // bytes; anything else arrives as raw UTF-8.
                        bad("\\u escape above U+007F unsupported");
                    }
                    out.push_back(static_cast<char>(v));
                    break;
                }
                default: bad(std::string{"unsupported escape '\\"} + e + "'");
            }
        }
    }

    std::uint64_t u64(std::string_view key) {
        ws();
        const std::size_t start = i_;
        while (i_ < t_.size() &&
               std::isdigit(static_cast<unsigned char>(t_[i_])) != 0) {
            ++i_;
        }
        const std::string_view v = t_.substr(start, i_ - start);
        std::uint64_t out = 0;
        const auto [p, ec] =
            std::from_chars(v.data(), v.data() + v.size(), out);
        if (v.empty() || ec != std::errc{} || p != v.data() + v.size()) {
            bad(std::string{key} + ": expected an unsigned integer");
        }
        return out;
    }

    bool boolean(std::string_view key) {
        ws();
        if (t_.substr(i_, 4) == "true") {
            i_ += 4;
            return true;
        }
        if (t_.substr(i_, 5) == "false") {
            i_ += 5;
            return false;
        }
        bad(std::string{key} + ": expected true or false");
    }

    /// Captures one balanced JSON value as raw text (object, array,
    /// string, number, bool or null). Depth-limited; string-aware.
    std::string_view raw_value() {
        ws();
        const std::size_t start = i_;
        int depth = 0;
        bool in_string = false;
        if (i_ >= t_.size()) bad("unexpected end of input");
        do {
            if (i_ >= t_.size()) bad("truncated value");
            const char c = t_[i_];
            if (in_string) {
                if (c == '\\') {
                    if (i_ + 1 >= t_.size()) bad("unterminated escape");
                    ++i_;
                } else if (c == '"') {
                    in_string = false;
                }
            } else if (c == '"') {
                in_string = true;
            } else if (c == '{' || c == '[') {
                if (++depth > kMaxDepth) bad("value nested too deeply");
            } else if (c == '}' || c == ']') {
                if (depth == 0) bad("unbalanced value");
                --depth;
            } else if (depth == 0 && (c == ',' || std::isspace(
                                          static_cast<unsigned char>(c)))) {
                break;  // bare scalar ended
            }
            ++i_;
        } while (depth > 0 || in_string ||
                 (i_ > start && t_[start] != '{' && t_[start] != '[' &&
                  t_[start] != '"' && i_ < t_.size() && t_[i_] != ',' &&
                  t_[i_] != '}' && t_[i_] != ']' &&
                  std::isspace(static_cast<unsigned char>(t_[i_])) == 0) ||
                 i_ == start);
        if (i_ == start) bad("empty value");
        return t_.substr(start, i_ - start);
    }

    void done() {
        ws();
        if (i_ != t_.size()) bad("trailing content after object");
    }

private:
    static constexpr int kMaxDepth = 16;
    std::string_view t_;
    std::size_t i_ = 0;
};

bool id_char(char c) noexcept {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '.' || c == '_' || c == ':' ||
           c == '-';
}

void validate_id(std::string_view id) {
    if (id.size() > kMaxIdBytes) bad("id longer than 64 bytes");
    for (const char c : id) {
        if (!id_char(c)) bad("id contains characters outside [A-Za-z0-9._:-]");
    }
}

}  // namespace

std::string_view to_string(QosClass c) noexcept {
    switch (c) {
        case QosClass::kClinical: return "clinical";
        case QosClass::kInteractive: return "interactive";
        case QosClass::kBatch: return "batch";
    }
    return "?";
}

QosClass parse_qos_class(std::string_view s) {
    if (s == "clinical") return QosClass::kClinical;
    if (s == "interactive") return QosClass::kInteractive;
    if (s == "batch") return QosClass::kBatch;
    throw ProtocolError{"bad-request",
                        "class: expected clinical|interactive|batch, got '" +
                            std::string{s} + "'"};
}

bool utf8_valid(std::string_view s) noexcept {
    std::size_t i = 0;
    while (i < s.size()) {
        const auto b0 = static_cast<unsigned char>(s[i]);
        std::size_t len;
        std::uint32_t cp;
        if (b0 < 0x80) {
            ++i;
            continue;
        } else if ((b0 & 0xE0) == 0xC0) {
            len = 2;
            cp = b0 & 0x1Fu;
        } else if ((b0 & 0xF0) == 0xE0) {
            len = 3;
            cp = b0 & 0x0Fu;
        } else if ((b0 & 0xF8) == 0xF0) {
            len = 4;
            cp = b0 & 0x07u;
        } else {
            return false;
        }
        if (i + len > s.size()) return false;
        for (std::size_t k = 1; k < len; ++k) {
            const auto b = static_cast<unsigned char>(s[i + k]);
            if ((b & 0xC0) != 0x80) return false;
            cp = (cp << 6) | (b & 0x3Fu);
        }
        // Overlong encodings, UTF-16 surrogates, out of range.
        if ((len == 2 && cp < 0x80) || (len == 3 && cp < 0x800) ||
            (len == 4 && cp < 0x10000) || (cp >= 0xD800 && cp <= 0xDFFF) ||
            cp > 0x10FFFF) {
            return false;
        }
        i += len;
    }
    return true;
}

Request parse_request(std::string_view line) {
    if (!utf8_valid(line)) bad("request line is not valid UTF-8");
    Scan s{line};
    Request r;
    bool seen_spec = false, seen_cmd = false, seen_id = false;
    bool seen_class = false, seen_no_cache = false;
    std::string cmd;
    s.expect('{');
    if (!s.accept('}')) {
        do {
            const std::string key = s.string();
            s.expect(':');
            if (key == "id") {
                if (seen_id) bad("duplicate field 'id'");
                seen_id = true;
                r.id = s.string();
                validate_id(r.id);
            } else if (key == "spec") {
                if (seen_spec) bad("duplicate field 'spec'");
                seen_spec = true;
                const std::string_view raw = s.raw_value();
                if (raw.empty() || raw.front() != '{') {
                    bad("spec: expected a JSON object");
                }
                try {
                    r.spec = scenario::parse_spec_json(raw);
                } catch (const scenario::SpecError& e) {
                    throw ProtocolError{"bad-spec", e.what()};
                }
            } else if (key == "class") {
                if (seen_class) bad("duplicate field 'class'");
                seen_class = true;
                r.qos = parse_qos_class(s.string());
            } else if (key == "no_cache") {
                if (seen_no_cache) bad("duplicate field 'no_cache'");
                seen_no_cache = true;
                r.no_cache = s.boolean(key);
            } else if (key == "cmd") {
                if (seen_cmd) bad("duplicate field 'cmd'");
                seen_cmd = true;
                cmd = s.string();
            } else {
                bad("unknown field '" + key + "'");
            }
        } while (s.accept(','));
        s.expect('}');
    }
    s.done();

    if (seen_spec == seen_cmd) {
        bad("exactly one of 'spec' or 'cmd' is required");
    }
    if (seen_cmd) {
        if (cmd == "ping") {
            r.kind = Request::Kind::kPing;
        } else if (cmd == "stats") {
            r.kind = Request::Kind::kStats;
        } else if (cmd == "drain") {
            r.kind = Request::Kind::kDrain;
        } else {
            bad("cmd: expected ping|stats|drain, got '" + cmd + "'");
        }
        if (seen_class || seen_no_cache) {
            bad("'class'/'no_cache' are only valid on run requests");
        }
    } else {
        r.kind = Request::Kind::kRun;
    }
    return r;
}

std::string Request::to_line() const {
    std::ostringstream os;
    os << "{\"id\":\"" << id << "\"";
    switch (kind) {
        case Kind::kRun:
            os << ",\"spec\":" << spec.to_json();
            if (qos != QosClass::kInteractive) {
                os << ",\"class\":\"" << serve::to_string(qos) << "\"";
            }
            if (no_cache) os << ",\"no_cache\":true";
            break;
        case Kind::kPing: os << ",\"cmd\":\"ping\""; break;
        case Kind::kStats: os << ",\"cmd\":\"stats\""; break;
        case Kind::kDrain: os << ",\"cmd\":\"drain\""; break;
    }
    os << "}";
    return os.str();
}

std::string artifacts_json_line(const scenario::RunArtifacts& a) {
    std::ostringstream os;
    os << "{\"spec\":" << a.spec.to_json() << ",\"fingerprint\":\""
       << a.fingerprint_hex() << "\",\"outcome\":{";
    for (std::size_t i = 0; i < a.outcome.size(); ++i) {
        os << (i ? "," : "") << "\"" << a.outcome[i].first << "\":";
        if (std::isfinite(a.outcome[i].second)) {
            os << a.outcome[i].second;
        } else {
            os << "null";
        }
    }
    os << "}}";
    return os.str();
}

std::string ok_run_response(std::string_view id, bool cached,
                            std::uint64_t queue_us, std::uint64_t run_us,
                            std::string_view artifacts_json) {
    std::ostringstream os;
    os << "{\"id\":\"" << obs::json_escape(id) << "\",\"status\":\"ok\""
       << ",\"cached\":" << (cached ? "true" : "false")
       << ",\"queue_us\":" << queue_us << ",\"run_us\":" << run_us
       << ",\"artifacts\":" << artifacts_json << "}";
    return os.str();
}

std::string pong_response(std::string_view id) {
    return "{\"id\":\"" + obs::json_escape(id) +
           "\",\"status\":\"ok\",\"pong\":true}";
}

std::string stats_response(std::string_view id, std::string_view stats_json) {
    return "{\"id\":\"" + obs::json_escape(id) + "\",\"status\":\"ok\",\"stats\":" +
           std::string{stats_json} + "}";
}

std::string drain_response(std::string_view id) {
    return "{\"id\":\"" + obs::json_escape(id) +
           "\",\"status\":\"ok\",\"draining\":true}";
}

std::string error_response(std::string_view id, std::string_view status,
                           std::string_view code, std::string_view message) {
    std::ostringstream os;
    os << "{\"id\":\"" << obs::json_escape(id) << "\",\"status\":\"" << status
       << "\",\"error\":{\"code\":\"" << obs::json_escape(code)
       << "\",\"message\":\"" << obs::json_escape(message) << "\"}}";
    return os.str();
}

Response parse_response(std::string_view line) {
    if (!utf8_valid(line)) bad("response line is not valid UTF-8");
    Scan s{line};
    Response r;
    s.expect('{');
    if (!s.accept('}')) {
        do {
            const std::string key = s.string();
            s.expect(':');
            if (key == "id") {
                r.id = s.string();
            } else if (key == "status") {
                r.status = s.string();
            } else if (key == "cached") {
                r.cached = s.boolean(key);
            } else if (key == "pong") {
                r.pong = s.boolean(key);
            } else if (key == "draining") {
                r.draining = s.boolean(key);
            } else if (key == "queue_us") {
                r.queue_us = s.u64(key);
            } else if (key == "run_us") {
                r.run_us = s.u64(key);
            } else if (key == "artifacts") {
                r.artifacts = std::string{s.raw_value()};
            } else if (key == "stats") {
                r.stats = std::string{s.raw_value()};
            } else if (key == "error") {
                s.expect('{');
                do {
                    const std::string ek = s.string();
                    s.expect(':');
                    if (ek == "code") {
                        r.error_code = s.string();
                    } else if (ek == "message") {
                        r.error_message = s.string();
                    } else {
                        bad("unknown error field '" + ek + "'");
                    }
                } while (s.accept(','));
                s.expect('}');
            } else {
                bad("unknown field '" + key + "'");
            }
        } while (s.accept(','));
        s.expect('}');
    }
    s.done();
    if (r.status.empty()) bad("response missing 'status'");
    return r;
}

std::string artifacts_fingerprint(std::string_view artifacts) {
    // The artifacts writer is ours, so the field appears literally as
    // "fingerprint":"0x...". A scan is enough; absence yields "".
    const std::string_view needle = "\"fingerprint\":\"";
    const std::size_t at = artifacts.find(needle);
    if (at == std::string_view::npos) return "";
    const std::size_t start = at + needle.size();
    const std::size_t end = artifacts.find('"', start);
    if (end == std::string_view::npos) return "";
    return std::string{artifacts.substr(start, end - start)};
}

}  // namespace mcps::serve
