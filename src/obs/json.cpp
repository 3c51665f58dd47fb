#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace vfpga::obs {

const JsonValue& JsonValue::at(const std::string& key) const {
  const Object& o = asObject();
  auto it = o.find(key);
  if (it == o.end()) throw JsonError("missing JSON key: " + key);
  return it->second;
}

bool JsonValue::has(const std::string& key) const {
  if (!isObject()) return false;
  return asObject().count(key) != 0;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parseDocument() {
    JsonValue v = parseValue();
    skipWs();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;

  [[noreturn]] void fail(const std::string& why) const {
    throw JsonError(why + " at offset " + std::to_string(pos_));
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parseValue() {
    skipWs();
    switch (peek()) {
      case '{': return parseObject();
      case '[': return parseArray();
      case '"': return JsonValue(parseString());
      case 't':
        if (consumeLiteral("true")) return JsonValue(true);
        fail("bad literal");
      case 'f':
        if (consumeLiteral("false")) return JsonValue(false);
        fail("bad literal");
      case 'n':
        if (consumeLiteral("null")) return JsonValue(nullptr);
        fail("bad literal");
      default: return parseNumber();
    }
  }

  JsonValue parseObject() {
    expect('{');
    JsonValue::Object o;
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(o));
    }
    while (true) {
      skipWs();
      std::string key = parseString();
      skipWs();
      expect(':');
      o[std::move(key)] = parseValue();
      skipWs();
      const char c = take();
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    return JsonValue(std::move(o));
  }

  JsonValue parseArray() {
    expect('[');
    JsonValue::Array a;
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(a));
    }
    while (true) {
      a.push_back(parseValue());
      skipWs();
      const char c = take();
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
    return JsonValue(std::move(a));
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) fail("control char in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = take();
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by our own renderers; decode them permissively as-is).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
    return out;
  }

  JsonValue parseNumber() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const auto res = std::from_chars(text_.data() + start, text_.data() + pos_,
                                     value);
    if (res.ec != std::errc{} || res.ptr != text_.data() + pos_) {
      fail("bad number");
    }
    return JsonValue(value);
  }
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parseDocument();
}

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string formatDouble(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace vfpga::obs
