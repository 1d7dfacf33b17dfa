#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <locale>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace anton::util::json {
namespace {

class Parser {
 public:
  Parser(const std::string& text, const std::string& context)
      : text_(text), context_(context) {}

  Value parseDocument() {
    Value v = parseValue();
    skipWs();
    if (pos_ != text_.size()) fail("trailing content after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error(context_ + ": " + why + " at byte " +
                             std::to_string(pos_));
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    skipWs();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consumeLiteral(const char* lit) {
    std::size_t len = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }

  Value parseValue() {
    char c = peek();
    Value v;
    switch (c) {
      case '{':
        return parseObject();
      case '[':
        return parseArray();
      case '"':
        v.type = Value::kString;
        v.s = parseString();
        return v;
      case 't':
        if (!consumeLiteral("true")) fail("bad literal");
        v.type = Value::kBool;
        v.b = true;
        return v;
      case 'f':
        if (!consumeLiteral("false")) fail("bad literal");
        v.type = Value::kBool;
        v.b = false;
        return v;
      case 'n':
        if (!consumeLiteral("null")) fail("bad literal");
        return v;
      default:
        return parseNumber();
    }
  }

  Value parseObject() {
    expect('{');
    Value v;
    v.type = Value::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      if (peek() != '"') fail("object key must be a string");
      std::string key = parseString();
      expect(':');
      v.obj.emplace(std::move(key), parseValue());
      char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parseArray() {
    expect('[');
    Value v;
    v.type = Value::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.arr.push_back(parseValue());
      char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out += e;
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9')
              cp |= unsigned(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= unsigned(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= unsigned(h - 'A' + 10);
            else
              fail("bad \\u escape digit");
          }
          // Our producers only ever emit ASCII; decode BMP code points to
          // UTF-8 so the parser stays a strict-JSON reader regardless.
          if (cp < 0x80) {
            out += char(cp);
          } else if (cp < 0x800) {
            out += char(0xc0 | (cp >> 6));
            out += char(0x80 | (cp & 0x3f));
          } else {
            out += char(0xe0 | (cp >> 12));
            out += char(0x80 | ((cp >> 6) & 0x3f));
            out += char(0x80 | (cp & 0x3f));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
    fail("unterminated string");
  }

  Value parseNumber() {
    skipWs();
    std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      std::size_t before = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
      return pos_ > before;
    };
    if (!digits()) fail("malformed number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) fail("malformed number fraction");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (!digits()) fail("malformed number exponent");
    }
    Value v;
    v.type = Value::kNumber;
    v.s = text_.substr(start, pos_ - start);
    // std::stod honors the global locale; parse through a classic-locale
    // stream so a comma-decimal locale cannot corrupt round-trips.
    std::istringstream is(v.s);
    is.imbue(std::locale::classic());
    is >> v.n;
    if (is.fail()) fail("unparseable number");
    return v;
  }

  const std::string& text_;
  const std::string& context_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text, const std::string& context) {
  return Parser(text, context).parseDocument();
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          const int n = std::snprintf(buf, sizeof(buf), "\\u%04x",
                                      unsigned(static_cast<unsigned char>(c)));
          out.append(buf, n > 0 ? std::size_t(n) : 0);
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

const Value& field(const Value& obj, const std::string& key,
                   const std::string& what) {
  auto it = obj.obj.find(key);
  if (it == obj.obj.end())
    throw std::runtime_error(what + ": missing field '" + key + "'");
  return it->second;
}

const Value* optField(const Value& obj, const std::string& key) {
  auto it = obj.obj.find(key);
  return it == obj.obj.end() ? nullptr : &it->second;
}

namespace {

/// The integer a number literal spells, parsed from its text.
template <typename T>
T exactInteger(const Value& v, const std::string& what) {
  if (v.type != Value::kNumber)
    throw std::runtime_error(what + " is not a number");
  T out{};
  const char* last = v.s.data() + v.s.size();
  const auto [ptr, ec] = std::from_chars(v.s.data(), last, out);
  if (ec == std::errc::result_out_of_range)
    throw std::runtime_error(what + " is out of range: " + v.s);
  if (ec != std::errc() || ptr != last)
    throw std::runtime_error(what + " is not " +
                             (std::is_signed_v<T> ? "an" : "a non-negative") +
                             " integer: " + v.s);
  return out;
}

}  // namespace

int asInt(const Value& v, const std::string& what) {
  return exactInteger<int>(v, what);
}

std::uint64_t asU64(const Value& v, const std::string& what) {
  return exactInteger<std::uint64_t>(v, what);
}

double asDouble(const Value& v, const std::string& what) {
  if (v.type != Value::kNumber)
    throw std::runtime_error(what + " is not a number");
  return v.n;
}

const std::string& asString(const Value& v, const std::string& what) {
  if (v.type != Value::kString)
    throw std::runtime_error(what + " is not a string");
  return v.s;
}

bool asBool(const Value& v, const std::string& what) {
  if (v.type != Value::kBool)
    throw std::runtime_error(what + " is not a bool");
  return v.b;
}

}  // namespace anton::util::json

namespace anton::util {

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out = "0x";
  for (int i = 15; i >= 0; --i) out += digits[(v >> (4 * i)) & 0xf];
  return out;
}

}  // namespace anton::util
