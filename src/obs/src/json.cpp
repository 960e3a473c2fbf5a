#include "mel/obs/json.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "trace_scan.hpp"

namespace mel::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace json {

Reader::Reader(std::string_view text)
    : data_(text.data()), size_(text.size()) {}

Reader::Reader(std::istream& in) : in_(&in), buf_(kChunkBytes, '\0') {
  data_ = buf_.data();
  refill();
}

void Reader::fail(const std::string& why) const {
  throw ParseError("JSON parse error at byte " + std::to_string(base_ + pos_) +
                   ": " + why);
}

bool Reader::refill() {
  if (in_ == nullptr) return false;
  const std::size_t keep = size_ - pos_;
  std::memmove(buf_.data(), buf_.data() + pos_, keep);
  base_ += pos_;
  pos_ = 0;
  in_->read(buf_.data() + keep, static_cast<std::streamsize>(kChunkBytes - keep));
  const auto got = static_cast<std::size_t>(in_->gcount());
  size_ = keep + got;
  return got > 0;
}

bool Reader::ensure(std::size_t n) {
  while (size_ - pos_ < n) {
    if (!refill()) return false;
  }
  return true;
}

void Reader::literal(std::string_view lit) {
  if (!ensure(lit.size()) ||
      std::string_view(data_ + pos_, lit.size()) != lit) {
    fail("bad literal");
  }
  pos_ += lit.size();
}

void Reader::finish() {
  skip_ws();
  if (pos_ < size_) fail("trailing garbage after JSON document");
}

void Reader::value(Value* out) {
  skip_ws();
  switch (peek()) {
    case '{':
      if (out != nullptr) {
        out->kind = Value::Kind::kObject;
        out->object.clear();
      }
      object([this, out](std::string_view key) {
        if (out == nullptr) return value(nullptr);
        out->object.emplace_back(std::string(key), Value{});
        value(&out->object.back().second);
      });
      return;
    case '[':
      if (out != nullptr) {
        out->kind = Value::Kind::kArray;
        out->array.clear();
      }
      array([this, out] {
        if (out == nullptr) return value(nullptr);
        out->array.emplace_back();
        value(&out->array.back());
      });
      return;
    case '"':
      if (out != nullptr) out->kind = Value::Kind::kString;
      string(out != nullptr ? &out->string : nullptr);
      return;
    case 't':
    case 'f': {
      const bool b = data_[pos_] == 't';
      literal(b ? "true" : "false");
      if (out != nullptr) {
        out->kind = Value::Kind::kBool;
        out->boolean = b;
      }
      return;
    }
    case 'n':
      literal("null");
      if (out != nullptr) out->kind = Value::Kind::kNull;
      return;
    default:
      number(out);
  }
}

void Reader::string_slow(std::string* out) {
  expect('"');
  if (out != nullptr) out->clear();
  for (;;) {
    const auto run =
        static_cast<std::size_t>(plain_end(data_ + pos_) - data_);
    if (out != nullptr) out->append(data_ + pos_, run - pos_);
    pos_ = run;
    if (pos_ >= size_) {
      if (!refill()) fail("unterminated string");
      continue;
    }
    const char c = data_[pos_++];
    if (c == '"') return;
    if (c != '\\') fail("raw control character inside string (must be escaped)");
    if (pos_ >= size_ && !refill()) fail("unterminated escape");
    const char e = data_[pos_++];
    char plain = 0;
    switch (e) {
      case '"': plain = '"'; break;
      case '\\': plain = '\\'; break;
      case '/': plain = '/'; break;
      case 'n': plain = '\n'; break;
      case 't': plain = '\t'; break;
      case 'r': plain = '\r'; break;
      case 'b': plain = '\b'; break;
      case 'f': plain = '\f'; break;
      case 'u': {
        if (!ensure(4)) fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = data_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else fail("bad hex digit in \\u escape");
        }
        if (out == nullptr) continue;
        // The writers only emit \u00XX for control bytes; encode the
        // general case as UTF-8 anyway so foreign traces parse.
        if (code < 0x80) {
          *out += static_cast<char>(code);
        } else if (code < 0x800) {
          *out += static_cast<char>(0xc0 | (code >> 6));
          *out += static_cast<char>(0x80 | (code & 0x3f));
        } else {
          *out += static_cast<char>(0xe0 | (code >> 12));
          *out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
          *out += static_cast<char>(0x80 | (code & 0x3f));
        }
        continue;
      }
      default: fail("unknown escape");
    }
    if (out != nullptr) *out += plain;
  }
}

void Reader::number(Value* out) {
  // Token: an optional leading '-', then digits and any of ".eE+-".
  token_.clear();
  bool integral = true;
  bool any = false;
  std::size_t start = pos_;
  for (;;) {
    while (pos_ < size_) {
      const char c = data_[pos_];
      if (c == '.' || c == 'e' || c == 'E' || c == '+' || (c == '-' && any)) {
        integral = false;
      } else if ((c < '0' || c > '9') && c != '-') {
        break;
      }
      any = true;
      ++pos_;
    }
    if (pos_ < size_) break;
    token_.append(data_ + start, pos_ - start);
    const bool more = refill();
    start = pos_;
    if (!more) break;
  }
  if (!any) fail("expected a value");
  if (out == nullptr) return;
  if (!token_.empty()) token_.append(data_ + start, pos_ - start);
  const std::string_view tok =
      token_.empty() ? std::string_view(data_ + start, pos_ - start)
                     : std::string_view(token_);
  const char* end = tok.data() + tok.size();
  out->kind = Value::Kind::kNumber;
  out->is_integer = false;
  out->above_int64 = 0;
  if (integral) {
    std::int64_t v = 0;
    const auto res = std::from_chars(tok.data(), end, v);
    if (res.ec == std::errc{} && res.ptr == end) {
      out->integer = v;
      out->is_integer = true;
      out->number = static_cast<double>(v);
      return;
    }
    std::uint64_t u = 0;
    const auto ures = std::from_chars(tok.data(), end, u);
    if (ures.ec == std::errc{} && ures.ptr == end) {
      out->above_int64 = u;
      out->number = static_cast<double>(u);
      return;
    }
  }
  // from_chars and strtod both round correctly, so they agree wherever
  // from_chars takes the whole token; strtod covers the lenient rest.
  const auto res = std::from_chars(tok.data(), end, out->number);
  if (res.ec != std::errc{} || res.ptr != end) {
    out->number = std::strtod(std::string(tok).c_str(), nullptr);
  }
}

Value parse(std::string_view text) {
  Reader in(text);
  Value v;
  in.value(&v);
  in.finish();
  return v;
}

}  // namespace json
}  // namespace mel::obs
