/// \file json.hpp
/// \brief The one JSON reader: a bounded pull cursor and a small value
/// tree built on it.
///
/// Every JSON input (spec JSON, serve lines, JSONL traces, bench
/// reports, SARIF logs) is read here under one set of bounds: strict
/// RFC 8259 grammar, nesting at most kMaxDepth deep, escapes decoded to
/// UTF-8, string bytes checked as UTF-8, and std::from_chars numbers
/// that must fit their type. Every failure throws json::Error (a closed
/// code plus a byte offset), which callers map to their own error type.
/// The cursor reads fixed shapes field by field; the tree serves the
/// schema validators, which look fields up by name.

#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mcps::obs::json {

/// Deepest container nesting any reader accepts, counted from the
/// document root (level 1). The deepest document the tree writes is a
/// SARIF log at 9 levels.
inline constexpr int kMaxDepth = 16;

/// The closed set of reader failures.
enum class Errc : std::uint8_t {
    kEnd,       ///< input ended inside a value
    kSyntax,    ///< a byte the grammar does not allow at this point
    kDepth,     ///< containers nested deeper than kMaxDepth
    kString,    ///< raw control byte, bad escape or lone surrogate
    kUtf8,      ///< string bytes that are not well-formed UTF-8
    kNumber,    ///< malformed, out of range, or fractional for an integer
    kTrailing,  ///< content after the document (parse() only)
};

/// A reader failure; what() is "<description> at offset <offset>".
struct Error : std::runtime_error {
    Error(Errc c, const std::string& description, std::size_t at);

    Errc code;
    std::size_t offset;  ///< byte offset into the text where reading stopped
};

/// Pull cursor over one JSON text, which must outlive it. Every read
/// skips leading whitespace and throws Error on unexpected input.
class Cursor {
public:
    explicit Cursor(std::string_view text) noexcept : text_{text} {}

    // The structural reads are inline: fixed shapes make several per
    // member, and the serve protocol times them per request.

    /// True when only whitespace is left.
    [[nodiscard]] bool at_end() noexcept {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
        return pos_ == text_.size();
    }
    /// Next byte, not consumed. \throws kEnd at the end of the text.
    [[nodiscard]] char peek() {
        if (at_end()) fail(Errc::kEnd, "unexpected end of input");
        return text_[pos_];
    }
    /// Consume \p c if it is next.
    [[nodiscard]] bool accept(char c) {
        if (at_end() || text_[pos_] != c) return false;
        if ((c == '{' || c == '[') && ++depth_ > kMaxDepth) fail_depth();
        if (c == '}' || c == ']') --depth_;
        ++pos_;
        return true;
    }
    void expect(char c) {
        if (!accept(c)) fail_expected(c);
    }

    [[nodiscard]] std::string string() {
        std::string out;
        scan_string(&out);
        return out;
    }
    /// A number as T: double, or std::int64_t / std::uint64_t, which
    /// also reject a fraction or an exponent.
    template <class T = double>
    [[nodiscard]] T number();
    [[nodiscard]] bool boolean();
    void null();
    /// Validate one value of any type; returns its raw text.
    std::string_view skip_value();

    /// Read one object, calling \p on_member(key) with the cursor at each
    /// member's value, which \p on_member must consume.
    template <class OnMember>
    void for_each_member(OnMember&& on_member) {
        expect('{');
        if (accept('}')) return;
        do {
            const std::string key = string();
            expect(':');
            on_member(key);
        } while (accept(','));
        expect('}');
    }
    /// Read one array, calling \p on_element() at each element.
    template <class OnElement>
    void for_each_element(OnElement&& on_element) {
        expect('[');
        if (accept(']')) return;
        do {
            on_element();
        } while (accept(','));
        expect(']');
    }

    [[nodiscard]] std::size_t offset() const noexcept { return pos_; }

private:
    [[noreturn]] void fail(Errc code, const std::string& what) const;
    [[noreturn]] void fail_expected(char c);
    [[noreturn]] void fail_depth() const;
    void scan_string(std::string* out);
    std::uint32_t hex4();
    std::string_view number_token(bool& integral);
    bool literal(std::string_view word);

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

/// A parsed value; objects keep their members in document order.
struct Value {
    enum class Type : std::uint8_t {
        kNull, kBool, kNumber, kString, kArray, kObject
    };
    Type type = Type::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;

    /// First member named \p key; nullptr when absent or not an object.
    [[nodiscard]] const Value* get(std::string_view key) const;
};

/// Parse a whole document. \throws Error.
[[nodiscard]] Value parse(std::string_view text);

}  // namespace mcps::obs::json
