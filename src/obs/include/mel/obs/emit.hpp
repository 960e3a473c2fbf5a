// obs::Emitter: the one text writer under obs::Recorder's two serializers,
// the Chrome trace and the metrics JSONL. Integers are printed with
// std::to_chars, virtual-ns timestamps as the `%.3f` microseconds Chrome
// expects (by integer division where that is exact), and JSON strings are
// copied as they are unless they hold a byte json_escape would change.
// Every byte goes through one fixed kBufferBytes buffer into the sink, a
// stdio stream or a string, so streaming a trace into a file costs the same
// memory at any trace size.
#pragma once

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "mel/sim/time.hpp"

namespace mel::obs {

/// Virtual nanoseconds, printed as microseconds with three decimals.
struct Micros {
  sim::Time ns;
};

/// A string printed inside a JSON string literal, escaped as json_escape
/// escapes it.
struct JsonText {
  std::string_view text;
};

/// Room format_micros needs: `%.3f` of any Time / 1e3, with its sign.
inline constexpr std::size_t kMicrosChars = 32;
/// 2^43 microseconds, in ns: below it the nearest double to ns / 1000 lies
/// within 2^-11 < 0.0005 of the quotient, so `%.3f` prints the quotient.
inline constexpr sim::Time kExactMicros = (sim::Time{1} << 43) * 1000;

/// Write what `printf("%.3f", ns / 1e3)` prints for `ns` into [out, out +
/// kMicrosChars) and return its end. On [0, kExactMicros) that is whole
/// microseconds, a point and three digits, by integer division; negative
/// values and values from kExactMicros on go through snprintf.
char* format_micros(char* out, sim::Time ns);

class Emitter {
 public:
  static constexpr std::size_t kBufferBytes = std::size_t{1} << 20;

  /// Writes into a stdio stream; the caller opens and closes it.
  explicit Emitter(std::FILE* out);
  /// Appends to a string.
  explicit Emitter(std::string& out);
  Emitter(const Emitter&) = delete;
  Emitter& operator=(const Emitter&) = delete;

  Emitter& operator<<(std::string_view text) {
    if (text.size() > room()) return write_long(text);
    pos_ = std::copy_n(text.data(), text.size(), pos_);
    return *this;
  }
  Emitter& operator<<(char c) {
    make_room(1);
    *pos_++ = c;
    return *this;
  }
  template <std::integral T>
  Emitter& operator<<(T value) {
    make_room(kIntChars);
    pos_ = std::to_chars(pos_, pos_ + kIntChars, value).ptr;
    return *this;
  }
  Emitter& operator<<(Micros t) {
    make_room(kMicrosChars);
    pos_ = format_micros(pos_, t.ns);
    return *this;
  }
  Emitter& operator<<(JsonText s) {
    // Copied while scanned. A name that needs escaping, or does not fit,
    // goes through json_escape, which leaves a plain name as it is.
    if (s.text.size() > room()) return write_escaped(s.text);
    char* at = pos_;
    for (const char c : s.text) {
      if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
        return write_escaped(s.text);
      }
      *at++ = c;
    }
    pos_ = at;
    return *this;
  }

  /// Hand everything buffered to the sink (for a stdio stream, through to
  /// the operating system). False once a write to a stdio stream has
  /// failed, with errno saying why; every later byte is dropped.
  bool flush();

 private:
  static constexpr std::size_t kIntChars = 24;  // any 64-bit integer

  std::size_t room() const { return static_cast<std::size_t>(end_ - pos_); }
  void make_room(std::size_t n) {
    if (room() < n) flush();
  }
  Emitter& write_long(std::string_view text);
  Emitter& write_escaped(std::string_view text);

  std::unique_ptr<char[]> buf_ =
      std::make_unique_for_overwrite<char[]>(kBufferBytes);
  char* pos_ = buf_.get();  // next free byte
  char* end_ = pos_ + kBufferBytes;
  std::FILE* file_ = nullptr;
  std::string* text_ = nullptr;
  int error_ = 0;  // errno of the first failed write
};

}  // namespace mel::obs
