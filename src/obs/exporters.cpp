#include "exporters.hpp"

#include <cmath>
#include <istream>
#include <iterator>
#include <limits>
#include <map>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "format.hpp"
#include "json.hpp"

namespace mcps::obs {

// ---- JSONL ------------------------------------------------------------

void write_jsonl(const EventLog& log, std::ostream& os) {
    for (const auto& e : log.events()) {
        os << "{\"t_us\":" << e.time.ticks() << ",\"kind\":\""
           << to_string(e.kind) << "\",\"src\":\"" << json_escape(e.source)
           << "\",\"detail\":\"" << json_escape(e.detail)
           << "\",\"value\":" << format_number(e.value) << "}\n";
    }
}

EventLog read_jsonl(std::istream& is) {
    EventLog log;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty()) continue;
        const auto fail = [&](const std::string& what) -> void {
            throw std::runtime_error("jsonl line " + std::to_string(lineno) +
                                     ": " + what);
        };
        // Fields come straight off the cursor, in any order; unknown
        // members are skipped.
        unsigned seen = 0;  // one bit per field
        std::int64_t t_us = 0;
        std::string kind, src, detail;
        double value = 0.0;
        try {
            json::Cursor c{line};
            c.for_each_member([&](const std::string& key) {
                const auto field = [&](unsigned bit) {
                    if ((seen & bit) != 0) {
                        fail("duplicate field '" + key + "'");
                    }
                    seen |= bit;
                };
                if (key == "t_us") {
                    field(1);
                    t_us = c.number<std::int64_t>();
                } else if (key == "kind") {
                    field(2);
                    kind = c.string();
                } else if (key == "src") {
                    field(4);
                    src = c.string();
                } else if (key == "detail") {
                    field(8);
                    detail = c.string();
                } else if (key == "value") {
                    // write_jsonl renders non-finite values as null.
                    field(16);
                    if (c.peek() == 'n') {
                        c.null();
                        value = std::numeric_limits<double>::quiet_NaN();
                    } else {
                        value = c.number();
                    }
                } else {
                    (void)c.skip_value();
                }
            });
            if (!c.at_end()) fail("trailing content after object");
        } catch (const json::Error& e) {
            fail(e.what());
        }
        if (seen != 31) fail("missing event field");
        const auto k = event_kind_from(kind);
        if (!k) fail("unknown event kind '" + kind + "'");
        log.emit(*k,
                 mcps::sim::SimTime::origin() +
                     mcps::sim::SimDuration::micros(t_us),
                 src, detail, value);
    }
    return log;
}

// ---- Chrome trace_event ----------------------------------------------

void write_chrome_trace(const EventLog& log, std::ostream& os) {
    // One timeline lane per source, numbered by first appearance (the
    // emission order is deterministic, so lane numbering is too).
    std::map<std::string, int> lane;
    std::vector<std::string> lane_order;
    for (const auto& e : log.events()) {
        if (lane.emplace(e.source, static_cast<int>(lane_order.size()) + 1)
                .second) {
            lane_order.push_back(e.source);
        }
    }

    os << "{\"traceEvents\":[";
    bool first = true;
    for (std::size_t i = 0; i < lane_order.size(); ++i) {
        os << (first ? "\n" : ",\n")
           << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
           << i + 1 << ",\"args\":{\"name\":\"" << json_escape(lane_order[i])
           << "\"}}";
        first = false;
    }
    for (const auto& e : log.events()) {
        os << (first ? "\n" : ",\n") << "{\"name\":\""
           << json_escape(std::string{to_string(e.kind)} + ":" + e.detail)
           << "\",\"cat\":\"" << to_string(e.kind)
           << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << e.time.ticks()
           << ",\"pid\":1,\"tid\":" << lane.at(e.source)
           << ",\"args\":{\"value\":" << format_number(e.value) << "}}";
        first = false;
    }
    os << "\n]}\n";
}

// ---- bench --json schema ---------------------------------------------

namespace {

const json::Value* require(const json::Value& obj, std::string_view key,
                           json::Value::Type type, std::string& error) {
    const json::Value* v = obj.get(key);
    if (!v) {
        error = "missing key '" + std::string{key} + "'";
        return nullptr;
    }
    if (v->type != type) {
        error = "key '" + std::string{key} + "' has the wrong type";
        return nullptr;
    }
    return v;
}

}  // namespace

bool validate_bench_json(std::istream& is, std::string& error) {
    const std::string text{std::istreambuf_iterator<char>{is},
                           std::istreambuf_iterator<char>{}};
    json::Value root;
    try {
        root = json::parse(text);
    } catch (const json::Error& e) {
        error = e.what();
        return false;
    }
    using Type = json::Value::Type;
    if (root.type != Type::kObject) {
        error = "top level is not an object";
        return false;
    }
    if (!require(root, "bench", Type::kString, error)) return false;
    // The reader never yields a non-finite number, so floor() decides.
    const json::Value* seed = require(root, "seed", Type::kNumber, error);
    if (!seed) return false;
    if (seed->number != std::floor(seed->number)) {
        error = "'seed' is not an integer";
        return false;
    }
    const json::Value* metrics =
        require(root, "metrics", Type::kArray, error);
    if (!metrics) return false;
    for (std::size_t i = 0; i < metrics->array.size(); ++i) {
        const json::Value& m = metrics->array[i];
        const std::string at = "metrics[" + std::to_string(i) + "]: ";
        if (m.type != Type::kObject) {
            error = at + "not an object";
            return false;
        }
        std::string sub;
        if (!require(m, "name", Type::kString, sub) ||
            !require(m, "unit", Type::kString, sub)) {
            error = at + sub;
            return false;
        }
        const json::Value* value = m.get("value");
        if (!value ||
            (value->type != Type::kNumber && value->type != Type::kNull)) {
            error = at + "'value' must be a number or null";
            return false;
        }
    }
    return true;
}

}  // namespace mcps::obs
