// Private to mel_obs: the one JSON reader behind json::parse, the
// streaming trace scanner every meltrace subcommand ingests through, and
// the rules every trace consumer reads a trace by.
//
// The reader pulls one document either from memory or from a stream
// through a fixed kChunkBytes buffer, so reading a trace file costs the
// same memory at any file size. json::parse builds its DOM with this same
// reader, so the scanner accepts and rejects exactly what json::parse does,
// with the same error text and byte offsets. The scanner hands each event
// over as one flat record; events in obs::Recorder's own spelling are read
// into it by a fast path that gives the same record.
//
// validate (analysis.cpp) and the replay loader (replay.cpp) read the
// otherData header through read_header and pass every event through
// gate, so both take the same header values and use the same events:
// validate reports each refusal, the loader skips the refused event.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <istream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "mel/obs/json.hpp"
#include "mel/sim/time.hpp"

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

  /// The unread bytes of the window, refilled first when fewer than `want`
  /// are left and the input holds more. Valid until the reader next moves.
  std::string_view window(std::size_t want) {
    if (size_ - pos_ < want) ensure(want);
    return {data_ + pos_, size_ - pos_};
  }
  /// Move past `n` bytes of window().
  void consume(std::size_t n) { pos_ += n; }

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
/// A field absent from the event, or of another kind, has its bit clear;
/// no consumer tells the two apart. Duplicate keys keep their first value,
/// as json::Value::find. Strings are views valid until the scan moves on
/// to the next event, so consumers copy or intern what they keep.
struct TraceEvent {
  enum Field : unsigned {
    kName, kCat, kPh, kTs, kDur, kPid, kTid, kId, kArgs,
    kSrc, kDst, kTag, kBytes, kFlow,  // members of args
  };

  std::size_t index = 0;  // position in traceEvents
  bool is_object = false;
  bool args_is_object = false;
  bool args_first_is_number = false;
  bool dur_negative = false;  // dur's number is below zero
  std::uint16_t strings = 0;  // bit per Field: holds a string
  std::uint16_t numbers = 0;  // bit per Field: holds a number
  /// Bit per integer Field: holds a number no int64 holds, so its value
  /// below is 0.
  std::uint16_t not_int64 = 0;
  std::string_view name{}, cat{}, ph{};
  /// ts and dur in ns, as ts_to_ns reads their microseconds.
  sim::Time ts = 0, dur = 0;
  /// The integer fields, truncated toward zero as json::Value::to_int64.
  std::int64_t pid = 0, tid = 0, id = 0;
  std::int64_t src = 0, dst = 0, tag = 0, bytes = 0, flow = 0;

  bool is_string(Field f) const { return (strings >> f & 1u) != 0; }
  bool is_number(Field f) const { return (numbers >> f & 1u) != 0; }
  /// The first integer field that holds a number outside int64, as the
  /// trace spells its key ("tid", "args.src"); null when there is none.
  const char* first_not_int64() const;
};

/// Microseconds as the trace writes them, to integer ns.
inline sim::Time ts_to_ns(double ts_us) {
  return static_cast<sim::Time>(std::llround(ts_us * 1000.0));
}

/// Stamps from 2^41 microseconds on go to the generic reader.
inline constexpr std::int64_t kFastStampMicros = std::int64_t{1} << 41;

/// The fast path's reading of a stamp at [p, end): W.FFF with 1 to 13
/// digits of W < kFastStampMicros, as W * 1000 + FFF ns. Returns the end
/// of the stamp, or null for any other text. There the nearest double to
/// W + FFF / 1000 lies within 2^-13 of it, and multiplying by 1000 rounds
/// by at most 2^-2 more, so ts_to_ns of the parsed double gives the same.
inline const char* read_stamp(const char* p, const char* end, sim::Time& ns) {
  const auto digit = [](char c) { return static_cast<unsigned>(c - '0') < 10; };
  const char* q = p;
  std::int64_t w = 0;
  while (q < end && q - p < 13 && digit(*q)) w = 10 * w + (*q++ - '0');
  if (q == p || end - q < 4 || q[0] != '.' || !digit(q[1]) || !digit(q[2]) ||
      !digit(q[3]) || w >= kFastStampMicros) {
    return nullptr;
  }
  ns = 1000 * w + 100 * (q[1] - '0') + 10 * (q[2] - '0') + (q[3] - '0');
  return q + 4;
}

/// What the scan found besides the events.
struct TraceDoc {
  bool is_object = false;   // the root is an object
  bool has_events = false;  // its first traceEvents member is an array
  std::optional<json::Value> other_data;  // its first otherData member
  /// Events read by the fast path for the writer's own shapes; the rest
  /// went through the generic reader.
  std::size_t fast_events = 0;
};

/// Walk one whole trace document, handing every element of the first
/// traceEvents array to on_event in order. Throws json::ParseError where
/// json::parse would, possibly after some events were handed out.
///
/// An event in obs::Recorder's exact spelling, wholly inside the reader's
/// window, takes a fast path straight into the record: its key order, no
/// whitespace, strings without escapes, integers of at most 18 digits,
/// and ts/dur as read_stamp reads them. Any other event goes through the
/// generic reader, which fills the same record, so errors keep their text
/// and offsets.
TraceDoc scan_trace(json::Reader& in,
                    const std::function<void(const TraceEvent&)>& on_event);

/// A trace's ranks lie below kMaxRanks, so it has at most kMaxRanks - 1.
inline constexpr std::int64_t kMaxRanks = std::int64_t{1} << 31;

/// The otherData header as every trace consumer reads it: strings as they
/// stand ("" when absent or not strings), each number by its checked
/// rule.
struct TraceHeader {
  /// How a number read: absent or not a number, within its field's
  /// range, or a number outside it (then `value` keeps its default).
  enum class Got : std::uint8_t { kAbsent, kRead, kOutside };
  template <class T>
  struct Number {
    Got got = Got::kAbsent;
    T value = 0;
  };

  bool is_object = false;
  std::string_view schema, algo, model, config_digest;
  Number<std::int64_t> ranks;  // [1, kMaxRanks - 1]
  Number<std::uint64_t> seed;
  const json::Value* net = nullptr;  // the embedded params, an object
  const json::Value* run = nullptr;  // the run result, an object
  Number<sim::Time> time_ns;         // run.time_ns, an int64
  Number<std::uint64_t> events;      // run.events
};

/// Read the header; `other_data` is null when the document has none. The
/// views and pointers point into `other_data`.
TraceHeader read_header(const json::Value* other_data);

/// What a rank count outside [1, kMaxRanks - 1] is reported as.
inline constexpr std::string_view kRanksOutside =
    "otherData.ranks outside [1, 2147483647]";

/// Why an event may not be used: the first rule it breaks, in the order
/// gate checks them. Later rules come after earlier ones, so an event
/// keeps the violation it was first reported with.
enum class Refusal : std::uint8_t {
  // Not counted as an event.
  kNotObject, kNoNamePh, kUnknownPhase,
  // Counted; ts and tid not usable.
  kNoTsPidTid, kNotInt64, kTidOutside,
  // Counted, with a usable ts and tid.
  kNoDur, kNoFlowId, kNegativeFlowBytes, kFlowIdBelowOne, kWideDstTag,
  kNoCounterValue, kNoWireArgs, kNegativeWireBytes,
  kNone,  // the event may be used
};

/// Every per-event rule, in validate's order: the first one `e` breaks,
/// or kNone. An "M" event passes once its phase is read, as metadata
/// carries no timestamp. A broken rule returns refuse(refusal, parts...),
/// where the parts spell validate's violation text.
template <class Refuse>
Refusal check_event(const TraceEvent& e, Refuse&& refuse) {
  using R = Refusal;
  using F = TraceEvent::Field;
  if (!e.is_object) {
    return refuse(R::kNotObject, "traceEvents entry is not an object");
  }
  if (!e.is_string(F::kName) || !e.is_string(F::kPh) || e.ph.size() != 1) {
    return refuse(R::kNoNamePh, "event without a string name/ph");
  }
  const char p = e.ph[0];
  if (std::string_view("XistfCM").find(p) == std::string_view::npos) {
    return refuse(R::kUnknownPhase, "unknown phase '", e.ph, "'");
  }
  if (p == 'M') return R::kNone;
  if (!e.is_number(F::kTs) || !e.is_number(F::kPid) ||
      !e.is_number(F::kTid)) {
    return refuse(R::kNoTsPidTid, "event missing numeric ts/pid/tid");
  }
  if (e.not_int64 != 0) {
    return refuse(R::kNotInt64, e.first_not_int64(),
                  " outside the int64 range");
  }
  // A rank or -1, melsim's tid for run-wide instants (checkpoints).
  if (e.tid < -1 || e.tid >= kMaxRanks) {
    return refuse(R::kTidOutside, "tid ", e.tid, " outside [-1, 2147483648)");
  }
  switch (p) {
    case 'X':
      if (e.is_number(F::kDur) && !e.dur_negative) return R::kNone;
      return refuse(R::kNoDur, "X event without a non-negative dur");
    case 's':
    case 't':
    case 'f':
      if (!e.is_number(F::kId)) {
        return refuse(R::kNoFlowId, "flow event without an id");
      }
      if (p == 's' && e.is_number(F::kBytes) && e.bytes < 0) {
        return refuse(R::kNegativeFlowBytes, "flow ", e.id,
                      " with negative args.bytes");
      }
      if (e.id < 1) {
        return refuse(R::kFlowIdBelowOne, "flow event with id ", e.id,
                      " below 1");
      }
      // A dst or tag no int holds would wrap into another flow's values.
      if (p == 's' && !std::in_range<int>(e.dst)) {
        return refuse(R::kWideDstTag, "flow ", e.id, " with args.dst ", e.dst,
                      " outside the int range");
      }
      if (p == 's' && !std::in_range<int>(e.tag)) {
        return refuse(R::kWideDstTag, "flow ", e.id, " with args.tag ", e.tag,
                      " outside the int range");
      }
      return R::kNone;
    case 'C':
      if (e.args_is_object && e.args_first_is_number) return R::kNone;
      return refuse(R::kNoCounterValue, "C event without a numeric args value");
    case 'i':
      if (!e.is_string(F::kCat) || e.cat != "wire") return R::kNone;
      if (!e.is_number(F::kSrc) || !e.is_number(F::kDst) ||
          !e.is_number(F::kBytes)) {
        return refuse(R::kNoWireArgs,
                      "wire event without numeric args src/dst/bytes");
      }
      if (e.bytes >= 0) return R::kNone;
      return refuse(R::kNegativeWireBytes,
                    "wire event with negative args.bytes");
    default:
      return R::kNone;
  }
}

/// The one gate every trace consumer passes events through: check_event's
/// verdict, building no text. Inline, as it runs once per event.
inline Refusal gate(const TraceEvent& e) {
  return check_event(e, [](Refusal r, const auto&...) { return r; });
}

/// Validate's violation text for an event gate() refuses, naming the
/// event.
std::string refusal_text(const TraceEvent& e);

}  // namespace mel::obs
