// lazyhb/support/json_reader.hpp
//
// A minimal recursive-descent JSON parser — the read half of the report
// pipeline (support/json_writer.hpp is the write half), used by the
// campaign journal (resume) and the report reader behind `lazyhb merge` and
// `lazyhb diff`. No third-party dependency, same as the writer.
//
// Numbers: integer tokens that fit are kept exactly (uint64/int64 —
// report counts are 64-bit and must round-trip bit-for-bit); everything
// else becomes a double. Strings handle the writer's escape set plus
// \uXXXX for BMP code points (encoded back to UTF-8). Input is expected
// to be a complete document; trailing garbage is an error, and so is
// nesting deeper than kMaxDepth (the parser recurses once per level, so an
// unbounded depth would let a hostile file overflow the stack).

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace lazyhb::support {

class JsonValue {
 public:
  enum class Type : std::uint8_t { Null, Bool, Uint, Int, Double, String, Array, Object };

  /// Arrays and objects nested deeper than this are a parse error; reports
  /// nest at most 5 levels.
  static constexpr int kMaxDepth = 64;

  JsonValue() = default;

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool isNull() const noexcept { return type_ == Type::Null; }
  [[nodiscard]] bool isBool() const noexcept { return type_ == Type::Bool; }
  [[nodiscard]] bool isNumber() const noexcept {
    return type_ == Type::Uint || type_ == Type::Int || type_ == Type::Double;
  }
  [[nodiscard]] bool isString() const noexcept { return type_ == Type::String; }
  [[nodiscard]] bool isArray() const noexcept { return type_ == Type::Array; }
  [[nodiscard]] bool isObject() const noexcept { return type_ == Type::Object; }

  [[nodiscard]] bool asBool(bool fallback = false) const noexcept {
    return type_ == Type::Bool ? bool_ : fallback;
  }
  // The numeric accessors return the fallback for a value the target type
  // cannot hold (a negative count, 1e30) instead of casting it.
  [[nodiscard]] std::uint64_t asUint(std::uint64_t fallback = 0) const noexcept {
    switch (type_) {
      case Type::Uint: return uint_;
      case Type::Int: return int_ >= 0 ? static_cast<std::uint64_t>(int_) : fallback;
      case Type::Double:
        return double_ >= 0.0 && double_ < 0x1p64 ? static_cast<std::uint64_t>(double_)
                                                 : fallback;
      default: return fallback;
    }
  }
  [[nodiscard]] std::int64_t asInt(std::int64_t fallback = 0) const noexcept {
    switch (type_) {
      case Type::Uint:
        return uint_ <= static_cast<std::uint64_t>(INT64_MAX) ? static_cast<std::int64_t>(uint_)
                                                              : fallback;
      case Type::Int: return int_;
      case Type::Double:
        return double_ >= -0x1p63 && double_ < 0x1p63 ? static_cast<std::int64_t>(double_)
                                                     : fallback;
      default: return fallback;
    }
  }
  [[nodiscard]] double asDouble(double fallback = 0.0) const noexcept {
    switch (type_) {
      case Type::Uint: return static_cast<double>(uint_);
      case Type::Int: return static_cast<double>(int_);
      case Type::Double: return double_;
      default: return fallback;
    }
  }
  [[nodiscard]] const std::string& asString() const noexcept { return string_; }

  [[nodiscard]] const std::vector<JsonValue>& items() const noexcept { return items_; }

  /// Object member by key; nullptr when absent (or when this is no object).
  [[nodiscard]] const JsonValue* find(const std::string& key) const noexcept {
    if (type_ != Type::Object) return nullptr;
    const auto it = members_.find(key);
    return it == members_.end() ? nullptr : it->second.get();
  }
  [[nodiscard]] bool has(const std::string& key) const noexcept {
    return find(key) != nullptr;
  }

  // Typed member shorthands with fallbacks, for optional fields.
  [[nodiscard]] std::uint64_t uintAt(const std::string& key, std::uint64_t fb = 0) const noexcept {
    const JsonValue* v = find(key);
    return v == nullptr ? fb : v->asUint(fb);
  }
  [[nodiscard]] std::int64_t intAt(const std::string& key, std::int64_t fb = 0) const noexcept {
    const JsonValue* v = find(key);
    return v == nullptr ? fb : v->asInt(fb);
  }
  [[nodiscard]] double doubleAt(const std::string& key, double fb = 0.0) const noexcept {
    const JsonValue* v = find(key);
    return v == nullptr ? fb : v->asDouble(fb);
  }
  [[nodiscard]] bool boolAt(const std::string& key, bool fb = false) const noexcept {
    const JsonValue* v = find(key);
    return v == nullptr ? fb : v->asBool(fb);
  }
  [[nodiscard]] std::string stringAt(const std::string& key, const std::string& fb = {}) const {
    const JsonValue* v = find(key);
    return (v == nullptr || !v->isString()) ? fb : v->asString();
  }

  /// Parse a complete JSON document. Returns nullptr and fills *error (with
  /// a byte offset) on malformed input.
  [[nodiscard]] static std::unique_ptr<JsonValue> parse(const std::string& text,
                                                        std::string* error);

 private:
  struct Parser;

  Type type_ = Type::Null;
  bool bool_ = false;
  std::uint64_t uint_ = 0;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  // unique_ptr values keep JsonValue movable despite the recursive type.
  std::map<std::string, std::unique_ptr<JsonValue>> members_;
};

struct JsonValue::Parser {
  const std::string& text;
  std::size_t pos = 0;
  int depth = 0;  ///< arrays and objects open around pos
  std::string error;

  explicit Parser(const std::string& t) : text(t) {}

  [[nodiscard]] bool atEnd() const noexcept { return pos >= text.size(); }
  [[nodiscard]] char peek() const noexcept { return atEnd() ? '\0' : text[pos]; }

  void skipWhitespace() {
    while (!atEnd()) {
      const char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }

  bool fail(const std::string& message) {
    if (error.empty()) {
      error = message + " at byte " + std::to_string(pos);
    }
    return false;
  }

  bool expect(char c) {
    if (peek() != c) return fail(std::string("expected '") + c + "'");
    ++pos;
    return true;
  }

  bool parseValue(JsonValue& out) {
    skipWhitespace();
    switch (peek()) {
      case '{':
      case '[': {
        if (depth == kMaxDepth) {
          return fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        }
        ++depth;
        const bool ok = peek() == '{' ? parseObject(out) : parseArray(out);
        --depth;
        return ok;
      }
      case '"': {
        out.type_ = Type::String;
        return parseString(out.string_);
      }
      case 't':
      case 'f': return parseKeyword(out);
      case 'n': return parseKeyword(out);
      default: return parseNumber(out);
    }
  }

  bool parseKeyword(JsonValue& out) {
    const auto match = [&](const char* word) {
      const std::size_t n = std::char_traits<char>::length(word);
      if (text.compare(pos, n, word) != 0) return false;
      pos += n;
      return true;
    };
    if (match("true")) {
      out.type_ = Type::Bool;
      out.bool_ = true;
      return true;
    }
    if (match("false")) {
      out.type_ = Type::Bool;
      out.bool_ = false;
      return true;
    }
    if (match("null")) {
      out.type_ = Type::Null;
      return true;
    }
    return fail("unexpected token");
  }

  bool parseNumber(JsonValue& out) {
    const std::size_t start = pos;
    if (peek() == '-') ++pos;
    const std::size_t firstDigit = pos;
    while (!atEnd() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    bool integral = pos > firstDigit;
    if (!integral) return fail("malformed number");
    if (peek() == '.') {
      integral = false;
      ++pos;
      while (!atEnd() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    if (peek() == 'e' || peek() == 'E') {
      integral = false;
      ++pos;
      if (peek() == '+' || peek() == '-') ++pos;
      while (!atEnd() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    const std::string token = text.substr(start, pos - start);
    if (token.empty() || token == "-") return fail("malformed number");
    try {
      if (integral) {
        if (token[0] == '-') {
          out.type_ = Type::Int;
          out.int_ = std::stoll(token);
        } else {
          out.type_ = Type::Uint;
          out.uint_ = std::stoull(token);
        }
        return true;
      }
      out.type_ = Type::Double;
      out.double_ = std::stod(token);
      return true;
    } catch (const std::exception&) {
      // Out-of-range integers degrade to double rather than failing the
      // whole document.
      try {
        out.type_ = Type::Double;
        out.double_ = std::stod(token);
        return true;
      } catch (const std::exception&) {
        return fail("malformed number '" + token + "'");
      }
    }
  }

  bool parseString(std::string& out) {
    if (!expect('"')) return false;
    out.clear();
    while (true) {
      if (atEnd()) return fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (atEnd()) return fail("unterminated escape");
      const char esc = text[pos++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("malformed \\u escape");
          }
          // Encode the BMP code point as UTF-8 (surrogate pairs are not
          // produced by our writer; a lone surrogate encodes as-is).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return fail("unknown escape");
      }
    }
  }

  bool parseArray(JsonValue& out) {
    if (!expect('[')) return false;
    out.type_ = Type::Array;
    skipWhitespace();
    if (peek() == ']') {
      ++pos;
      return true;
    }
    while (true) {
      JsonValue item;
      if (!parseValue(item)) return false;
      out.items_.push_back(std::move(item));
      skipWhitespace();
      if (peek() == ',') {
        ++pos;
        continue;
      }
      return expect(']');
    }
  }

  bool parseObject(JsonValue& out) {
    if (!expect('{')) return false;
    out.type_ = Type::Object;
    skipWhitespace();
    if (peek() == '}') {
      ++pos;
      return true;
    }
    while (true) {
      skipWhitespace();
      std::string key;
      if (!parseString(key)) return false;
      skipWhitespace();
      if (!expect(':')) return false;
      auto value = std::make_unique<JsonValue>();
      if (!parseValue(*value)) return false;
      out.members_[key] = std::move(value);
      skipWhitespace();
      if (peek() == ',') {
        ++pos;
        continue;
      }
      return expect('}');
    }
  }
};

inline std::unique_ptr<JsonValue> JsonValue::parse(const std::string& text,
                                                   std::string* error) {
  Parser parser(text);
  auto root = std::make_unique<JsonValue>();
  if (!parser.parseValue(*root)) {
    if (error != nullptr) *error = parser.error;
    return nullptr;
  }
  parser.skipWhitespace();
  if (!parser.atEnd()) {
    if (error != nullptr) {
      *error = "trailing content at byte " + std::to_string(parser.pos);
    }
    return nullptr;
  }
  return root;
}

}  // namespace lazyhb::support
