#include "json.h"

#include <cstdlib>

namespace wdperf {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool Document(JsonValue* out) {
    if (!Value(out, 0)) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool String(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      char e = text_[pos_++];
      switch (e) {
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          // The server escapes only control characters this way; keep
          // the low byte, which is exact for them.
          if (pos_ + 4 > text_.size()) return false;
          std::string hex(text_.substr(pos_, 4));
          pos_ += 4;
          out->push_back(static_cast<char>(std::strtoul(hex.c_str(), nullptr, 16)));
          break;
        }
        default: out->push_back(e); break;
      }
    }
    return false;
  }

  bool Value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return false;
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') {
      out->kind = JsonValue::Kind::kObject;
      ++pos_;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipSpace();
        std::string key;
        if (!String(&key)) return false;
        SkipSpace();
        if (pos_ >= text_.size() || text_[pos_++] != ':') return false;
        if (!Value(&out->object[key], depth + 1)) return false;
        SkipSpace();
        if (pos_ >= text_.size()) return false;
        char sep = text_[pos_++];
        if (sep == '}') return true;
        if (sep != ',') return false;
      }
    }
    if (c == '[') {
      out->kind = JsonValue::Kind::kArray;
      ++pos_;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        out->array.emplace_back();
        if (!Value(&out->array.back(), depth + 1)) return false;
        SkipSpace();
        if (pos_ >= text_.size()) return false;
        char sep = text_[pos_++];
        if (sep == ']') return true;
        if (sep != ',') return false;
      }
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return String(&out->string);
    }
    if (Literal("null")) return true;
    if (Literal("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->kind = JsonValue::Kind::kBool;
      return true;
    }
    std::size_t end = pos_;
    while (end < text_.size() &&
           std::string_view("+-0123456789.eE").find(text_[end]) != std::string_view::npos) {
      ++end;
    }
    if (end == pos_) return false;
    std::string number(text_.substr(pos_, end - pos_));
    char* parsed_end = nullptr;
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::strtod(number.c_str(), &parsed_end);
    if (parsed_end != number.c_str() + number.size()) return false;
    pos_ = end;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

double JsonValue::Number(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->kind == Kind::kNumber ? v->number : fallback;
}

bool ParseJson(std::string_view text, JsonValue* out) {
  *out = JsonValue();
  return Parser(text).Document(out);
}

}  // namespace wdperf
