#include "sarif.hpp"

#include <ostream>
#include <set>
#include <vector>

#include "obs/format.hpp"
#include "obs/json.hpp"

namespace mcps::analysis {

// ---- writer ----------------------------------------------------------------

void write_sarif(const AnalysisReport& report, std::ostream& out) {
    out << "{\n"
        << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\""
        << ",\n  \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n"
        << "      \"tool\": {\n        \"driver\": {\n"
        << "          \"name\": \"mcps_analyze\",\n"
        << "          \"informationUri\": "
           "\"https://example.invalid/mcps_analyze\",\n"
        << "          \"rules\": [\n";
    const std::vector<RuleId>& rules = all_rules();
    for (std::size_t i = 0; i < rules.size(); ++i) {
        out << "            {\"id\": \"" << rule_name(rules[i]) << "\", "
            << "\"shortDescription\": {\"text\": \""
            << obs::json_escape(rule_summary(rules[i])) << "\"}}"
            << (i + 1 < rules.size() ? "," : "") << "\n";
    }
    out << "          ]\n        }\n      },\n      \"results\": [\n";
    for (std::size_t i = 0; i < report.findings.size(); ++i) {
        const Finding& f = report.findings[i];
        out << "        {\"ruleId\": \"" << rule_name(f.rule) << "\", "
            << "\"level\": \""
            << (f.severity == FindingSeverity::kError ? "error" : "warning")
            << "\", \"message\": {\"text\": \""
            << obs::json_escape(f.entity.empty() ? f.message
                                                 : f.entity + ": " + f.message)
            << "\"}";
        if (!f.file.empty()) {
            out << ", \"locations\": [{\"physicalLocation\": "
                << "{\"artifactLocation\": {\"uri\": \"" << obs::json_escape(f.file)
                << "\"}";
            if (f.line > 0) {
                out << ", \"region\": {\"startLine\": " << f.line << "}";
            }
            out << "}}]";
        }
        out << "}" << (i + 1 < report.findings.size() ? "," : "") << "\n";
    }
    out << "      ]\n    }\n  ]\n}\n";
}

namespace {

using JsonValue = obs::json::Value;
using Type = JsonValue::Type;

bool check(bool cond, std::string& error, const std::string& what) {
    if (!cond) error = what;
    return cond;
}

/// True when \p v is present and of type \p t.
bool is(const JsonValue* v, Type t) { return v != nullptr && v->type == t; }

/// \p v's member \p key; nullptr when \p v is absent or has none.
const JsonValue* member(const JsonValue* v, std::string_view key) {
    return v != nullptr ? v->get(key) : nullptr;
}

}  // namespace

// ---- validator -------------------------------------------------------------

bool validate_sarif_minimal(std::string_view text, std::string& error) {
    JsonValue root;
    try {
        root = obs::json::parse(text);
    } catch (const obs::json::Error& e) {
        error = e.what();
        return false;
    }

    if (!check(root.type == Type::kObject, error, "root is not an object")) {
        return false;
    }
    const JsonValue* version = root.get("version");
    if (!check(is(version, Type::kString) && version->string == "2.1.0",
               error, "version is not the string \"2.1.0\"")) {
        return false;
    }
    const JsonValue* runs = root.get("runs");
    if (!check(is(runs, Type::kArray) && !runs->array.empty(), error,
               "runs is not a non-empty array")) {
        return false;
    }

    for (const JsonValue& run : runs->array) {
        const JsonValue* driver = member(run.get("tool"), "driver");
        const JsonValue* name = member(driver, "name");
        if (!check(is(name, Type::kString) && !name->string.empty(), error,
                   "run has no tool.driver.name")) {
            return false;
        }

        std::set<std::string> rule_ids;
        if (const JsonValue* rules = driver->get("rules")) {
            if (!check(rules->type == Type::kArray, error,
                       "tool.driver.rules is not an array")) {
                return false;
            }
            for (const JsonValue& rule : rules->array) {
                const JsonValue* id = rule.get("id");
                if (!check(is(id, Type::kString) && !id->string.empty(), error,
                           "a rule has no string id")) {
                    return false;
                }
                if (!check(rule_ids.insert(id->string).second, error,
                           "duplicate rule id '" + id->string + "'")) {
                    return false;
                }
            }
        }

        const JsonValue* results = run.get("results");
        if (!check(is(results, Type::kArray), error,
                   "run has no results array")) {
            return false;
        }
        for (const JsonValue& res : results->array) {
            const JsonValue* rule_id = res.get("ruleId");
            if (!check(is(rule_id, Type::kString), error,
                       "a result has no string ruleId")) {
                return false;
            }
            if (!rule_ids.empty() &&
                !check(rule_ids.count(rule_id->string) != 0, error,
                       "result ruleId '" + rule_id->string +
                           "' is not in tool.driver.rules")) {
                return false;
            }
            if (const JsonValue* level = res.get("level")) {
                if (!check(level->type == Type::kString &&
                               (level->string == "none" ||
                                level->string == "note" ||
                                level->string == "warning" ||
                                level->string == "error"),
                           error, "illegal result level")) {
                    return false;
                }
            }
            if (!check(is(member(res.get("message"), "text"), Type::kString),
                       error, "a result has no message.text string")) {
                return false;
            }
            if (const JsonValue* locs = res.get("locations")) {
                if (!check(locs->type == Type::kArray, error,
                           "result locations is not an array")) {
                    return false;
                }
                for (const JsonValue& loc : locs->array) {
                    const JsonValue* start = member(
                        member(loc.get("physicalLocation"), "region"),
                        "startLine");
                    if (start != nullptr &&
                        !check(start->type == Type::kNumber &&
                                   start->number >= 1.0,
                               error, "region startLine < 1")) {
                        return false;
                    }
                }
            }
        }
    }
    error.clear();
    return true;
}

}  // namespace mcps::analysis
