#include "common/json.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace dmac {

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

void AppendUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

/// Recursive descent over RFC 8259. Each call fills a caller-owned value,
/// so nested containers are built in place rather than moved up the stack.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> Document() {
    JsonValue root;
    DMAC_RETURN_NOT_OK(Value(0, &root));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after top-level value");
    }
    return root;
  }

 private:
  Status Error(const std::string& msg) const {
    return Status::Invalid("JSON parse error at offset " +
                           std::to_string(pos_) + ": " + msg);
  }

  bool AtEnd() const { return pos_ >= text_.size(); }

  void SkipSpace() {
    while (!AtEnd() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                        text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (AtEnd() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool ConsumeWord(const char* word) {
    const size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  /// `depth` counts the arrays and objects enclosing this value.
  Status Value(int depth, JsonValue* out) {
    SkipSpace();
    if (AtEnd()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth == kJsonMaxDepth) {
        return Error("nesting deeper than " + std::to_string(kJsonMaxDepth));
      }
      return c == '{' ? Object(depth + 1, out) : Array(depth + 1, out);
    }
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return String(&out->string);
    }
    if (c == '-' || IsDigit(c)) return Number(out);
    if (ConsumeWord("true") || ConsumeWord("false")) {
      out->type = JsonValue::Type::kBool;
      out->boolean = c == 't';
      return Status::Ok();
    }
    if (ConsumeWord("null")) return Status::Ok();
    return Error(std::string("unexpected character '") + c + "'");
  }

  Status Object(int depth, JsonValue* out) {
    ++pos_;  // '{'
    out->type = JsonValue::Type::kObject;
    if (Consume('}')) return Status::Ok();
    while (true) {
      SkipSpace();
      if (AtEnd() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      std::string key;
      DMAC_RETURN_NOT_OK(String(&key));
      if (!Consume(':')) return Error("expected ':' after object key");
      out->object.emplace_back(std::move(key), JsonValue());
      DMAC_RETURN_NOT_OK(Value(depth, &out->object.back().second));
      if (Consume(',')) continue;
      if (Consume('}')) return Status::Ok();
      return Error("expected ',' or '}' in object");
    }
  }

  Status Array(int depth, JsonValue* out) {
    ++pos_;  // '['
    out->type = JsonValue::Type::kArray;
    if (Consume(']')) return Status::Ok();
    while (true) {
      out->array.emplace_back();
      DMAC_RETURN_NOT_OK(Value(depth, &out->array.back()));
      if (Consume(',')) continue;
      if (Consume(']')) return Status::Ok();
      return Error("expected ',' or ']' in array");
    }
  }

  Status String(std::string* out) {
    ++pos_;  // '"'
    while (!AtEnd()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (AtEnd()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out->push_back(esc);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u':
          DMAC_RETURN_NOT_OK(Unicode(out));
          break;
        default:
          return Error(std::string("bad escape '\\") + esc + "'");
      }
    }
    return Error("unterminated string");
  }

  /// Reads the four hex digits of a `\u` escape.
  bool Hex4(uint32_t* code) {
    if (text_.size() - pos_ < 4) return false;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const int d = HexDigit(text_[pos_ + i]);
      if (d < 0) return false;
      v = (v << 4) | static_cast<uint32_t>(d);
    }
    pos_ += 4;
    *code = v;
    return true;
  }

  /// The rest of a `\u` escape (after the 'u'), appended as UTF-8.
  Status Unicode(std::string* out) {
    uint32_t cp = 0;
    if (!Hex4(&cp)) return Error("bad \\u escape");
    if (cp >= 0xDC00 && cp <= 0xDFFF) return Error("unpaired surrogate");
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      uint32_t low = 0;
      if (text_.compare(pos_, 2, "\\u") != 0) {
        return Error("unpaired surrogate");
      }
      pos_ += 2;
      if (!Hex4(&low)) return Error("bad \\u escape");
      if (low < 0xDC00 || low > 0xDFFF) return Error("unpaired surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    }
    AppendUtf8(cp, out);
    return Status::Ok();
  }

  bool SkipDigits() {
    const size_t start = pos_;
    while (!AtEnd() && IsDigit(text_[pos_])) ++pos_;
    return pos_ > start;
  }

  /// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  Status Number(JsonValue* out) {
    const size_t start = pos_;
    if (text_[pos_] == '-') ++pos_;
    if (!AtEnd() && text_[pos_] == '0') {
      ++pos_;
    } else if (!SkipDigits()) {
      return Error("malformed number");
    }
    if (!AtEnd() && text_[pos_] == '.') {
      ++pos_;
      if (!SkipDigits()) return Error("malformed number");
    }
    if (!AtEnd() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (!AtEnd() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (!SkipDigits()) return Error("malformed number");
    }
    const std::string token = text_.substr(start, pos_ - start);
    out->type = JsonValue::Type::kNumber;
    out->number = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(out->number)) {
      return Error("number out of range '" + token + "'");
    }
    return Status::Ok();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (auto it = object.rbegin(); it != object.rend(); ++it) {
    if (it->first == key) return &it->second;
  }
  return nullptr;
}

Result<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Document();
}

std::string JsonQuote(const std::string& s) {
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
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace dmac
