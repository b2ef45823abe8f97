#include "daemon/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/strfmt.hpp"

namespace bgp::daemon::json {

bool Value::as_bool() const {
  if (type_ != Type::kBool) throw JsonError("expected a JSON bool");
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::kNumber) throw JsonError("expected a JSON number");
  return num_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) throw JsonError("expected a JSON string");
  return str_;
}

u64 Value::as_u64() const {
  const double n = as_number();
  if (!(n >= 0) || n != std::floor(n) || n > 1.8e19) {
    throw JsonError(strfmt("expected a non-negative integer, got %g", n));
  }
  return static_cast<u64>(n);
}

Value& Value::set(std::string key, Value v) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) throw JsonError("set() on a non-object");
  for (auto& [k, old] : members_) {
    if (k == key) {
      old = std::move(v);
      return *this;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
  return *this;
}

const Value* Value::get(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value& Value::push(Value v) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) throw JsonError("push() on a non-array");
  items_.push_back(std::move(v));
  return *this;
}

namespace {

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  out += json_escape(s);
  out.push_back('"');
}

void dump_number(double n, std::string& out) {
  if (n == std::floor(n) && std::abs(n) < 9.0e15) {
    out += strfmt("%lld", static_cast<long long>(n));
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", n);
    out += buf;
  }
}

void dump_value(const Value& v, std::string& out) {
  switch (v.type()) {
    case Value::Type::kNull: out += "null"; break;
    case Value::Type::kBool: out += v.as_bool() ? "true" : "false"; break;
    case Value::Type::kNumber: dump_number(v.as_number(), out); break;
    case Value::Type::kString: dump_string(v.as_string(), out); break;
    case Value::Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, m] : v.members()) {
        if (!first) out.push_back(',');
        first = false;
        dump_string(k, out);
        out.push_back(':');
        dump_value(m, out);
      }
      out.push_back('}');
      break;
    }
    case Value::Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const Value& e : v.items()) {
        if (!first) out.push_back(',');
        first = false;
        dump_value(e, out);
      }
      out.push_back(']');
      break;
    }
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw JsonError(strfmt("JSON parse error at byte %zu: %s", pos_, what));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(strfmt("expected '%c'", c).c_str());
  }

  bool consume_word(const char* w) {
    const std::size_t n = std::strlen(w);
    if (text_.substr(pos_, n) == w) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth) {
        fail(strfmt("nesting deeper than %u", kMaxDepth).c_str());
      }
      ++depth_;
      Value v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') return Value(parse_string());
    if (consume_word("true")) return Value(true);
    if (consume_word("false")) return Value(false);
    if (consume_word("null")) return Value();
    return parse_number();
  }

  Value parse_object() {
    expect('{');
    Value obj = Value::object();
    skip_ws();
    if (consume('}')) return obj;
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      return obj;
    }
  }

  Value parse_array() {
    expect('[');
    Value arr = Value::array();
    skip_ws();
    if (consume(']')) return arr;
    for (;;) {
      arr.push(parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not worth
          // supporting on this control channel; session names are ASCII).
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed number");
    return Value(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  unsigned depth_ = 0;  ///< arrays and objects open at pos_
};

}  // namespace

std::string Value::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

Value Value::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace bgp::daemon::json
