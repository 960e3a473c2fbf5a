// Private to mel_obs: the one JSON reader behind json::parse, and the
// streaming trace scanner every meltrace subcommand ingests through.
//
// The reader pulls one document either from memory or from a stream
// through a fixed kChunkBytes buffer, so reading a trace file costs the
// same memory at any file size. json::parse builds its DOM with this same
// reader, so the scanner accepts and rejects exactly what json::parse does,
// with the same error text and byte offsets.
#pragma once

#include <cstddef>
#include <functional>
#include <istream>
#include <optional>
#include <string>
#include <string_view>

#include "mel/obs/json.hpp"

namespace mel::obs {
namespace json {

class Reader {
 public:
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

  explicit Reader(std::string_view text);
  explicit Reader(std::istream& in);
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  /// First byte of the next value, after whitespace.
  char peek_value() {
    skip_ws();
    return peek();
  }
  /// Read one string value into *out (escapes decoded), or validate and
  /// skip it (out == nullptr).
  void string(std::string* out) {
    skip_ws();
    if (pos_ < size_ && data_[pos_] == '"') {
      const char* begin = data_ + pos_ + 1;
      const char* end = plain_end(begin);
      if (end < data_ + size_ && *end == '"') {
        if (out != nullptr) out->assign(begin, end);
        pos_ = static_cast<std::size_t>(end + 1 - data_);
        return;
      }
    }
    string_slow(out);
  }
  /// Parse one value into *out, or validate and skip it (out == nullptr).
  /// Objects and arrays are rebuilt from scratch; for scalars only the
  /// members their kind defines are written.
  void value(Value* out);
  /// Throws unless only whitespace follows the document.
  void finish();

  /// `{ "key": value, ... }`: on_member(key) must read the member's value.
  /// `key` may point into the buffer: it is valid only until the reader
  /// next moves, so use it before reading anything.
  template <typename OnMember>
  void object(OnMember&& on_member) {
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    for (;;) {
      skip_ws();
      std::string_view key;
      if (!compact_key(key)) {
        string(&key_);
        skip_ws();
        expect(':');
        key = key_;
      }
      on_member(key);
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  /// `[ value, ... ]`: on_element() must read one value.
  template <typename OnElement>
  void array(OnElement&& on_element) {
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    for (;;) {
      on_element();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

 private:
  [[noreturn]] void fail(const std::string& why) const;
  /// Move the unread bytes to the buffer front and read more behind them.
  /// False at end of input (always, for in-memory text).
  bool refill();
  bool ensure(std::size_t n);
  // The per-token helpers are inline: the scan calls them several times
  // per member, and only their refill paths leave the header.
  void skip_ws() {
    do {
      while (pos_ < size_) {
        const char c = data_[pos_];
        if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return;
        ++pos_;
      }
    } while (refill());
  }
  char peek() {
    if (pos_ >= size_ && !refill()) fail("unexpected end of input");
    return data_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  /// First byte at or after p that ends a run of plain string bytes
  /// (quote, backslash, control byte, or the window end).
  const char* plain_end(const char* p) const {
    const char* end = data_ + size_;
    while (p < end) {
      const auto c = static_cast<unsigned char>(*p);
      if (c == '"' || c == '\\' || c < 0x20) break;
      ++p;
    }
    return p;
  }
  /// `"key":` with no escapes, wholly inside the window: the common case,
  /// read as a view without copying. Anything else takes the full path.
  bool compact_key(std::string_view& key) {
    if (pos_ >= size_ || data_[pos_] != '"') return false;
    const char* begin = data_ + pos_ + 1;
    const auto end = static_cast<std::size_t>(plain_end(begin) - data_);
    if (end + 1 >= size_ || data_[end] != '"' || data_[end + 1] != ':') {
      return false;
    }
    key = std::string_view(begin, end - pos_ - 1);
    pos_ = end + 2;
    return true;
  }
  void literal(std::string_view lit);
  void string_slow(std::string* out);
  void number(Value* out);

  std::istream* in_ = nullptr;
  std::string buf_;
  const char* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
  std::size_t base_ = 0;  // document offset of data_[0]
  std::string key_;
  std::string token_;  // a number split across two buffer fills
};

}  // namespace json

/// One traceEvents element, flattened to the fields trace consumers read.
/// A field absent from the event has kind kNull; no consumer tells the two
/// apart. Duplicate keys keep their first value, as json::Value::find.
struct TraceEvent {
  std::size_t index = 0;  // position in traceEvents
  bool is_object = false;
  json::Value name, cat, ph, ts, dur, pid, tid, id;
  json::Value args;  // kind only; its members below when it is an object
  json::Value src, dst, tag, bytes, flow;
  bool args_first_is_number = false;
};

/// What the scan found besides the events.
struct TraceDoc {
  bool is_object = false;   // the root is an object
  bool has_events = false;  // its first traceEvents member is an array
  std::optional<json::Value> other_data;  // its first otherData member
};

/// Walk one whole trace document, handing every element of the first
/// traceEvents array to on_event in order. Throws json::ParseError where
/// json::parse would, possibly after some events were handed out.
TraceDoc scan_trace(json::Reader& in,
                    const std::function<void(const TraceEvent&)>& on_event);

}  // namespace mel::obs
