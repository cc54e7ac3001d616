#include "json.hpp"

#include <charconv>
#include <cstdio>
#include <type_traits>

namespace mcps::obs::json {

namespace {

unsigned char byte_at(std::string_view s, std::size_t i) noexcept {
    return static_cast<unsigned char>(s[i]);
}

/// Length of the well-formed UTF-8 sequence whose lead byte (>= 0x80)
/// is s[i], or 0 when it is malformed.
std::size_t utf8_sequence(std::string_view s, std::size_t i) noexcept {
    const unsigned char b0 = byte_at(s, i);
    const std::size_t len = (b0 & 0xE0U) == 0xC0U   ? 2
                            : (b0 & 0xF0U) == 0xE0U ? 3
                            : (b0 & 0xF8U) == 0xF0U ? 4
                                                    : 0;
    if (len == 0 || s.size() - i < len) return 0;
    std::uint32_t cp = b0 & (0x7FU >> len);
    for (std::size_t k = 1; k < len; ++k) {
        const unsigned char b = byte_at(s, i + k);
        if ((b & 0xC0U) != 0x80U) return 0;
        cp = (cp << 6U) | (b & 0x3FU);
    }
    // Overlong encodings, UTF-16 surrogates, out of range.
    constexpr std::uint32_t kMinCp[] = {0, 0, 0x80, 0x800, 0x10000};
    if (cp < kMinCp[len] || (cp >= 0xD800 && cp <= 0xDFFF) || cp > 0x10FFFF) {
        return 0;
    }
    return len;
}

void append_utf8(std::string& out, std::uint32_t cp) {
    const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    constexpr std::uint32_t kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
    out.push_back(static_cast<char>(kLead[tail] | (cp >> (6 * tail))));
    for (int k = tail - 1; k >= 0; --k) {
        out.push_back(static_cast<char>(0x80U | ((cp >> (6 * k)) & 0x3FU)));
    }
}

/// A byte as it may appear in an error message: quoted when printable
/// ASCII, as hex otherwise (messages travel on the serve wire, which
/// must stay valid UTF-8).
std::string shown(char c) {
    const auto b = static_cast<unsigned char>(c);
    if (b >= 0x20 && b < 0x7F) return std::string{'\''} + c + '\'';
    char buf[16];
    std::snprintf(buf, sizeof buf, "byte 0x%02x", static_cast<unsigned>(b));
    return buf;
}

}  // namespace

Error::Error(Errc c, const std::string& description, std::size_t at)
    : std::runtime_error{description + " at offset " + std::to_string(at)},
      code{c},
      offset{at} {}

// ---- cursor -----------------------------------------------------------

void Cursor::fail(Errc code, const std::string& what) const {
    throw Error{code, what, pos_};
}

void Cursor::fail_expected(char c) {
    const char got = peek();
    fail(Errc::kSyntax, std::string{"expected '"} + c + "', got " + shown(got));
}

void Cursor::fail_depth() const {
    fail(Errc::kDepth,
         "nested deeper than " + std::to_string(kMaxDepth) + " levels");
}

std::uint32_t Cursor::hex4() {
    std::uint32_t v = 0;
    const char* p = text_.data() + pos_;
    if (text_.size() - pos_ < 4 ||
        std::from_chars(p, p + 4, v, 16).ptr != p + 4) {
        fail(Errc::kString, "invalid \\u escape");
    }
    pos_ += 4;
    return v;
}

/// Reads one string; appends the decoded bytes to \p out unless it is
/// null (skip_value only validates).
void Cursor::scan_string(std::string* out) {
    expect('"');
    while (true) {
        const std::size_t run = pos_;
        while (pos_ < text_.size()) {
            const unsigned char b = byte_at(text_, pos_);
            if (b == '"' || b == '\\' || b < 0x20 || b >= 0x80) break;
            ++pos_;
        }
        if (out != nullptr) out->append(text_.data() + run, pos_ - run);
        if (pos_ >= text_.size()) fail(Errc::kEnd, "unterminated string");
        const unsigned char b = byte_at(text_, pos_);
        if (b == '"') {
            ++pos_;
            return;
        }
        if (b < 0x20) fail(Errc::kString, "raw control byte in string");
        if (b >= 0x80) {
            const std::size_t n = utf8_sequence(text_, pos_);
            if (n == 0) fail(Errc::kUtf8, "invalid UTF-8 in string");
            if (out != nullptr) out->append(text_.data() + pos_, n);
            pos_ += n;
            continue;
        }
        if (++pos_ >= text_.size()) fail(Errc::kEnd, "unterminated escape");
        const char e = text_[pos_++];
        std::uint32_t cp = 0;
        switch (e) {
            case '"':
            case '\\':
            case '/': cp = static_cast<std::uint32_t>(e); break;
            case 'b': cp = '\b'; break;
            case 'f': cp = '\f'; break;
            case 'n': cp = '\n'; break;
            case 'r': cp = '\r'; break;
            case 't': cp = '\t'; break;
            case 'u':
                cp = hex4();
                if (cp >= 0xD800 && cp <= 0xDBFF &&
                    text_.substr(pos_, 2) == "\\u") {
                    pos_ += 2;
                    const std::uint32_t lo = hex4();
                    if (lo >= 0xDC00 && lo <= 0xDFFF) {
                        cp = 0x10000 + ((cp - 0xD800) << 10U) + (lo - 0xDC00);
                    }
                }
                if (cp >= 0xD800 && cp <= 0xDFFF) {
                    fail(Errc::kString, "lone surrogate in \\u escape");
                }
                break;
            default: fail(Errc::kString, "unknown escape, got " + shown(e));
        }
        if (out != nullptr) append_utf8(*out, cp);
    }
}

/// Scans one number per the RFC 8259 grammar; \p integral is false when
/// it has a fraction or an exponent.
std::string_view Cursor::number_token(bool& integral) {
    const char first = peek();
    const std::size_t start = pos_;
    const auto next_is = [this](char a, char b) {
        return pos_ < text_.size() && (text_[pos_] == a || text_[pos_] == b);
    };
    const auto digits = [this] {
        const std::size_t from = pos_;
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9') {
            ++pos_;
        }
        if (pos_ == from) fail(Errc::kNumber, "malformed number");
    };
    if (first != '-' && (first < '0' || first > '9')) {
        fail(Errc::kSyntax, "expected a value, got " + shown(first));
    }
    if (first == '-') ++pos_;
    if (next_is('0', '0')) {
        ++pos_;
    } else {
        digits();
    }
    integral = true;
    if (next_is('.', '.')) {
        ++pos_;
        integral = false;
        digits();
    }
    if (next_is('e', 'E')) {
        ++pos_;
        integral = false;
        if (next_is('+', '-')) ++pos_;
        digits();
    }
    return text_.substr(start, pos_ - start);
}

template <class T>
T Cursor::number() {
    bool integral = false;
    const std::string_view tok = number_token(integral);
    T out{};
    const auto [end, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), out);
    const bool fractional = std::is_integral_v<T> && !integral;
    if (fractional || ec != std::errc{} || end != tok.data() + tok.size()) {
        pos_ -= tok.size();
        fail(Errc::kNumber,
             fractional ? "expected an integer" : "number out of range");
    }
    return out;
}

template double Cursor::number<double>();
template std::int64_t Cursor::number<std::int64_t>();
template std::uint64_t Cursor::number<std::uint64_t>();

bool Cursor::literal(std::string_view word) {
    if (peek() != word.front() || text_.substr(pos_, word.size()) != word) {
        return false;
    }
    pos_ += word.size();
    return true;
}

bool Cursor::boolean() {
    if (literal("true")) return true;
    if (!literal("false")) fail(Errc::kSyntax, "expected true or false");
    return false;
}

void Cursor::null() {
    if (!literal("null")) fail(Errc::kSyntax, "expected null");
}

/// Recursion is bounded by kMaxDepth: each level has consumed a '{' or
/// '['.
std::string_view Cursor::skip_value() {
    const char first = peek();
    const std::size_t start = pos_;
    bool integral = false;
    switch (first) {
        case '{':
            for_each_member([this](const std::string&) { (void)skip_value(); });
            break;
        case '[': for_each_element([this] { (void)skip_value(); }); break;
        case '"': scan_string(nullptr); break;
        case 't':
        case 'f': (void)boolean(); break;
        case 'n': null(); break;
        default: (void)number_token(integral); break;
    }
    return text_.substr(start, pos_ - start);
}

// ---- value tree -------------------------------------------------------

const Value* Value::get(std::string_view key) const {
    for (const auto& [k, v] : object) {
        if (k == key) return &v;
    }
    return nullptr;
}

namespace {

/// Recursion is bounded like Cursor::skip_value.
Value parse_value(Cursor& c) {
    Value v;
    switch (c.peek()) {
        case '{':
            v.type = Value::Type::kObject;
            c.for_each_member([&](const std::string& key) {
                v.object.emplace_back(key, parse_value(c));
            });
            break;
        case '[':
            v.type = Value::Type::kArray;
            c.for_each_element([&] { v.array.push_back(parse_value(c)); });
            break;
        case '"':
            v.type = Value::Type::kString;
            v.string = c.string();
            break;
        case 't':
        case 'f':
            v.type = Value::Type::kBool;
            v.boolean = c.boolean();
            break;
        case 'n': c.null(); break;
        default:
            v.type = Value::Type::kNumber;
            v.number = c.number();
            break;
    }
    return v;
}

}  // namespace

Value parse(std::string_view text) {
    Cursor c{text};
    Value v = parse_value(c);
    if (!c.at_end()) {
        throw Error{Errc::kTrailing, "trailing content after the document",
                    c.offset()};
    }
    return v;
}

}  // namespace mcps::obs::json
