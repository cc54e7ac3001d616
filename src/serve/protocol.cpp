#include "protocol.hpp"

#include <cmath>
#include <sstream>

#include "obs/format.hpp"
#include "obs/json.hpp"

namespace mcps::serve {

namespace {

[[noreturn]] void bad(std::string message) {
    throw ProtocolError{"bad-request", std::move(message)};
}

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

/// Reads \p line as one JSON object, handing the cursor to
/// \p on_member(cursor, key) at each member's value. Reader errors
/// become bad-request.
template <class OnMember>
void read_object_line(std::string_view line, OnMember&& on_member) {
    try {
        obs::json::Cursor c{line};
        c.for_each_member([&](const std::string& key) { on_member(c, key); });
        if (!c.at_end()) bad("trailing content after object");
    } catch (const obs::json::Error& e) {
        bad(e.what());
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

Request parse_request(std::string_view line) {
    Request r;
    bool seen_spec = false, seen_cmd = false, seen_id = false;
    bool seen_class = false, seen_no_cache = false;
    std::string cmd;
    read_object_line(line, [&](obs::json::Cursor& s, const std::string& key) {
        if (key == "id") {
            if (seen_id) bad("duplicate field 'id'");
            seen_id = true;
            r.id = s.string();
            validate_id(r.id);
        } else if (key == "spec") {
            if (seen_spec) bad("duplicate field 'spec'");
            seen_spec = true;
            const std::string_view raw = s.skip_value();
            if (raw.front() != '{') bad("spec: expected a JSON object");
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
            r.no_cache = s.boolean();
        } else if (key == "cmd") {
            if (seen_cmd) bad("duplicate field 'cmd'");
            seen_cmd = true;
            cmd = s.string();
        } else {
            bad("unknown field '" + key + "'");
        }
    });

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
    Response r;
    read_object_line(line, [&](obs::json::Cursor& s, const std::string& key) {
        if (key == "id") {
            r.id = s.string();
        } else if (key == "status") {
            r.status = s.string();
        } else if (key == "cached") {
            r.cached = s.boolean();
        } else if (key == "pong") {
            r.pong = s.boolean();
        } else if (key == "draining") {
            r.draining = s.boolean();
        } else if (key == "queue_us") {
            r.queue_us = s.number<std::uint64_t>();
        } else if (key == "run_us") {
            r.run_us = s.number<std::uint64_t>();
        } else if (key == "artifacts") {
            r.artifacts = std::string{s.skip_value()};
        } else if (key == "stats") {
            r.stats = std::string{s.skip_value()};
        } else if (key == "error") {
            s.for_each_member([&](const std::string& ek) {
                if (ek == "code") {
                    r.error_code = s.string();
                } else if (ek == "message") {
                    r.error_message = s.string();
                } else {
                    bad("unknown error field '" + ek + "'");
                }
            });
        } else {
            bad("unknown field '" + key + "'");
        }
    });
    if (r.status.empty()) bad("response missing 'status'");
    return r;
}

std::string artifacts_fingerprint(std::string_view artifacts) {
    std::string fingerprint;
    try {
        obs::json::Cursor c{artifacts};
        c.for_each_member([&](const std::string& key) {
            if (key == "fingerprint") {
                fingerprint = c.string();
            } else {
                (void)c.skip_value();
            }
        });
    } catch (const obs::json::Error&) {
        return "";
    }
    return fingerprint;
}

}  // namespace mcps::serve
