#include "sarif.hpp"

#include <cctype>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <vector>

#include "obs/format.hpp"

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

// ---- minimal JSON parser ---------------------------------------------------

namespace {

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::shared_ptr<JsonArray> array;
    std::shared_ptr<JsonObject> object;

    [[nodiscard]] const JsonValue* get(const std::string& key) const {
        if (kind != Kind::kObject) return nullptr;
        const auto it = object->find(key);
        return it == object->end() ? nullptr : &it->second;
    }
};

class JsonParser {
public:
    explicit JsonParser(std::string_view text) : s_{text} {}

    bool parse(JsonValue& out, std::string& error) {
        if (!value(out, error)) return false;
        ws();
        if (i_ != s_.size()) {
            error = "trailing characters after the JSON document";
            return false;
        }
        return true;
    }

private:
    void ws() {
        while (i_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[i_]))) {
            ++i_;
        }
    }

    bool fail(std::string& error, const std::string& what) {
        error = what + " at offset " + std::to_string(i_);
        return false;
    }

    bool literal(std::string_view lit, std::string& error) {
        if (s_.substr(i_, lit.size()) != lit) {
            return fail(error, "bad literal");
        }
        i_ += lit.size();
        return true;
    }

    bool value(JsonValue& out, std::string& error) {
        ws();
        if (i_ >= s_.size()) return fail(error, "unexpected end of input");
        const char c = s_[i_];
        if (c == '{') return object(out, error);
        if (c == '[') return array(out, error);
        if (c == '"') {
            out.kind = JsonValue::Kind::kString;
            return string(out.string, error);
        }
        if (c == 't') {
            out.kind = JsonValue::Kind::kBool;
            out.boolean = true;
            return literal("true", error);
        }
        if (c == 'f') {
            out.kind = JsonValue::Kind::kBool;
            return literal("false", error);
        }
        if (c == 'n') return literal("null", error);
        return number(out, error);
    }

    bool number(JsonValue& out, std::string& error) {
        const std::size_t begin = i_;
        if (i_ < s_.size() && s_[i_] == '-') ++i_;
        while (i_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
                s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
                s_[i_] == '+' || s_[i_] == '-')) {
            ++i_;
        }
        if (i_ == begin) return fail(error, "expected a value");
        out.kind = JsonValue::Kind::kNumber;
        try {
            out.number = std::stod(std::string{s_.substr(begin, i_ - begin)});
        } catch (...) {
            return fail(error, "malformed number");
        }
        return true;
    }

    bool string(std::string& out, std::string& error) {
        if (s_[i_] != '"') return fail(error, "expected '\"'");
        ++i_;
        out.clear();
        while (i_ < s_.size()) {
            const char c = s_[i_++];
            if (c == '"') return true;
            if (c == '\\') {
                if (i_ >= s_.size()) break;
                const char e = s_[i_++];
                switch (e) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'b': out += '\b'; break;
                    case 'f': out += '\f'; break;
                    case 'n': out += '\n'; break;
                    case 'r': out += '\r'; break;
                    case 't': out += '\t'; break;
                    case 'u':
                        if (i_ + 4 > s_.size()) {
                            return fail(error, "truncated \\u escape");
                        }
                        out += '?';  // placeholder; codepoints irrelevant here
                        i_ += 4;
                        break;
                    default: return fail(error, "bad escape");
                }
            } else {
                out += c;
            }
        }
        return fail(error, "unterminated string");
    }

    bool array(JsonValue& out, std::string& error) {
        out.kind = JsonValue::Kind::kArray;
        out.array = std::make_shared<JsonArray>();
        ++i_;  // '['
        ws();
        if (i_ < s_.size() && s_[i_] == ']') {
            ++i_;
            return true;
        }
        while (true) {
            JsonValue v;
            if (!value(v, error)) return false;
            out.array->push_back(std::move(v));
            ws();
            if (i_ >= s_.size()) return fail(error, "unterminated array");
            if (s_[i_] == ',') {
                ++i_;
                continue;
            }
            if (s_[i_] == ']') {
                ++i_;
                return true;
            }
            return fail(error, "expected ',' or ']'");
        }
    }

    bool object(JsonValue& out, std::string& error) {
        out.kind = JsonValue::Kind::kObject;
        out.object = std::make_shared<JsonObject>();
        ++i_;  // '{'
        ws();
        if (i_ < s_.size() && s_[i_] == '}') {
            ++i_;
            return true;
        }
        while (true) {
            ws();
            std::string key;
            if (i_ >= s_.size() || s_[i_] != '"' || !string(key, error)) {
                return fail(error, "expected an object key");
            }
            ws();
            if (i_ >= s_.size() || s_[i_] != ':') {
                return fail(error, "expected ':'");
            }
            ++i_;
            JsonValue v;
            if (!value(v, error)) return false;
            out.object->emplace(std::move(key), std::move(v));
            ws();
            if (i_ >= s_.size()) return fail(error, "unterminated object");
            if (s_[i_] == ',') {
                ++i_;
                continue;
            }
            if (s_[i_] == '}') {
                ++i_;
                return true;
            }
            return fail(error, "expected ',' or '}'");
        }
    }

    std::string_view s_;
    std::size_t i_ = 0;
};

bool check(bool cond, std::string& error, const std::string& what) {
    if (!cond) error = what;
    return cond;
}

}  // namespace

// ---- validator -------------------------------------------------------------

bool validate_sarif_minimal(std::string_view text, std::string& error) {
    JsonValue root;
    if (!JsonParser{text}.parse(root, error)) return false;

    if (!check(root.kind == JsonValue::Kind::kObject, error,
               "root is not an object")) {
        return false;
    }
    const JsonValue* version = root.get("version");
    if (!check(version != nullptr &&
                   version->kind == JsonValue::Kind::kString &&
                   version->string == "2.1.0",
               error, "version is not the string \"2.1.0\"")) {
        return false;
    }
    const JsonValue* runs = root.get("runs");
    if (!check(runs != nullptr && runs->kind == JsonValue::Kind::kArray &&
                   !runs->array->empty(),
               error, "runs is not a non-empty array")) {
        return false;
    }

    for (const JsonValue& run : *runs->array) {
        const JsonValue* tool = run.get("tool");
        const JsonValue* driver =
            tool != nullptr ? tool->get("driver") : nullptr;
        const JsonValue* name =
            driver != nullptr ? driver->get("name") : nullptr;
        if (!check(name != nullptr && name->kind == JsonValue::Kind::kString &&
                       !name->string.empty(),
                   error, "run has no tool.driver.name")) {
            return false;
        }

        std::set<std::string> rule_ids;
        if (const JsonValue* rules = driver->get("rules")) {
            if (!check(rules->kind == JsonValue::Kind::kArray, error,
                       "tool.driver.rules is not an array")) {
                return false;
            }
            for (const JsonValue& rule : *rules->array) {
                const JsonValue* id = rule.get("id");
                if (!check(id != nullptr &&
                               id->kind == JsonValue::Kind::kString &&
                               !id->string.empty(),
                           error, "a rule has no string id")) {
                    return false;
                }
                if (!check(rule_ids.insert(id->string).second, error,
                           "duplicate rule id '" + id->string + "'")) {
                    return false;
                }
            }
        }

        const JsonValue* results = run.get("results");
        if (!check(results != nullptr &&
                       results->kind == JsonValue::Kind::kArray,
                   error, "run has no results array")) {
            return false;
        }
        for (const JsonValue& res : *results->array) {
            const JsonValue* rule_id = res.get("ruleId");
            if (!check(rule_id != nullptr &&
                           rule_id->kind == JsonValue::Kind::kString,
                       error, "a result has no string ruleId")) {
                return false;
            }
            if (!rule_ids.empty() &&
                !check(rule_ids.count(rule_id->string) != 0, error,
                       "result ruleId '" + rule_id->string +
                           "' is not in tool.driver.rules")) {
                return false;
            }
            if (const JsonValue* level = res.get("level")) {
                if (!check(level->kind == JsonValue::Kind::kString &&
                               (level->string == "none" ||
                                level->string == "note" ||
                                level->string == "warning" ||
                                level->string == "error"),
                           error, "illegal result level")) {
                    return false;
                }
            }
            const JsonValue* message = res.get("message");
            const JsonValue* mtext =
                message != nullptr ? message->get("text") : nullptr;
            if (!check(mtext != nullptr &&
                           mtext->kind == JsonValue::Kind::kString,
                       error, "a result has no message.text string")) {
                return false;
            }
            if (const JsonValue* locs = res.get("locations")) {
                if (!check(locs->kind == JsonValue::Kind::kArray, error,
                           "result locations is not an array")) {
                    return false;
                }
                for (const JsonValue& loc : *locs->array) {
                    const JsonValue* phys = loc.get("physicalLocation");
                    const JsonValue* region =
                        phys != nullptr ? phys->get("region") : nullptr;
                    const JsonValue* start =
                        region != nullptr ? region->get("startLine") : nullptr;
                    if (start != nullptr &&
                        !check(start->kind == JsonValue::Kind::kNumber &&
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
