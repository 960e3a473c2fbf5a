#include "trace_scan.hpp"

#include <cstring>
#include <iterator>
#include <sstream>
#include <utility>

namespace mel::obs {

using Field = TraceEvent::Field;

const char* TraceEvent::first_not_int64() const {
  static constexpr std::pair<Field, const char*> kNames[] = {
      {kPid, "pid"},          {kTid, "tid"},          {kId, "id"},
      {kSrc, "args.src"},     {kDst, "args.dst"},     {kTag, "args.tag"},
      {kBytes, "args.bytes"}, {kFlow, "args.flow"}};
  for (const auto& [field, name] : kNames) {
    if ((not_int64 >> field & 1u) != 0) return name;
  }
  return nullptr;
}

namespace {

using Kind = json::Value::Kind;

constexpr std::uint16_t bit(Field f) {
  return static_cast<std::uint16_t>(1u << f);
}

// -- The fast path: obs::Recorder's own spelling ----------------------------

/// Window the fast path asks for before each event: far more than any
/// event of the writer's with names of ordinary length.
constexpr std::size_t kFastWindow = 4096;

/// Reads the writer's tokens off a window. Every reader returns false,
/// having maybe moved, on anything else; the caller then starts over.
struct Cursor {
  const char* p;
  const char* end;

  bool lit(std::string_view s) {
    if (static_cast<std::size_t>(end - p) < s.size() ||
        std::memcmp(p, s.data(), s.size()) != 0) {
      return false;
    }
    p += s.size();
    return true;
  }
  template <std::size_t N>
  bool lit(const char (&s)[N]) {
    constexpr std::size_t n = N - 1;
    if (static_cast<std::size_t>(end - p) < n || std::memcmp(p, s, n) != 0) {
      return false;
    }
    p += n;
    return true;
  }
  /// A string body with no escape or control byte, and its closing quote.
  bool text(std::string_view& out) {
    for (const char* b = p; p < end; ++p) {
      const auto c = static_cast<unsigned char>(*p);
      if (c == '"') {
        out = std::string_view(b, static_cast<std::size_t>(p++ - b));
        return true;
      }
      if (c == '\\' || c < 0x20) return false;
    }
    return false;
  }
  static bool digit(char c) { return static_cast<unsigned>(c - '0') < 10; }
  /// An optional '-' and 1 to 18 digits: always an exact int64.
  bool integer(std::int64_t& out) {
    const bool negative = p < end && *p == '-';
    const char* first = p + (negative ? 1 : 0);
    const char* q = first;
    std::int64_t v = 0;
    while (q < end && q - first < 18 && digit(*q)) v = 10 * v + (*q++ - '0');
    if (q == first) return false;
    out = negative ? -v : v;
    p = q;
    return true;
  }
  bool stamp(sim::Time& out) {
    const char* q = read_stamp(p, end, out);
    if (q == nullptr) return false;
    p = q;
    return true;
  }
};

/// The args members the writer prints, in the one order they may come.
/// iter, active and value are no record fields: read and dropped.
struct ArgsKey {
  std::string_view key;
  std::int64_t TraceEvent::*value;
  Field field;
};
constexpr ArgsKey kArgsKeys[] = {
    {"\"src\":", &TraceEvent::src, TraceEvent::kSrc},
    {"\"dst\":", &TraceEvent::dst, TraceEvent::kDst},
    {"\"tag\":", &TraceEvent::tag, TraceEvent::kTag},
    {"\"bytes\":", &TraceEvent::bytes, TraceEvent::kBytes},
    {"\"flow\":", &TraceEvent::flow, TraceEvent::kFlow},
    {"\"iter\":", nullptr, TraceEvent::kArgs},
    {"\"active\":", nullptr, TraceEvent::kArgs},
    {"\"value\":", nullptr, TraceEvent::kArgs},
};

/// One event as obs::Recorder writes it: name, cat, ph, ts, pid and tid,
/// then any of dur, s, bp, id and args in that order, each at most once.
/// So no key repeats, and the record equals the generic reader's.
bool fast_event(Cursor& c, TraceEvent& ev) {
  if (!c.lit("{\"name\":\"") || !c.text(ev.name) || !c.lit(",\"cat\":\"") ||
      !c.text(ev.cat) || !c.lit(",\"ph\":\"") || !c.text(ev.ph) ||
      !c.lit(",\"ts\":") || !c.stamp(ev.ts) || !c.lit(",\"pid\":") ||
      !c.integer(ev.pid) || !c.lit(",\"tid\":") || !c.integer(ev.tid)) {
    return false;
  }
  ev.is_object = true;
  ev.strings = bit(TraceEvent::kName) | bit(TraceEvent::kCat) |
               bit(TraceEvent::kPh);
  ev.numbers = bit(TraceEvent::kTs) | bit(TraceEvent::kPid) |
               bit(TraceEvent::kTid);
  std::string_view skipped;
  if (c.lit(",\"dur\":")) {
    if (!c.stamp(ev.dur)) return false;
    ev.numbers |= bit(TraceEvent::kDur);
  }
  if (c.lit(",\"s\":\"") && !c.text(skipped)) return false;
  if (c.lit(",\"bp\":\"") && !c.text(skipped)) return false;
  if (c.lit(",\"id\":")) {
    if (!c.integer(ev.id)) return false;
    ev.numbers |= bit(TraceEvent::kId);
  }
  if (c.lit(",\"args\":{")) {
    ev.args_is_object = true;
    ev.args_first_is_number = true;  // every member taken is an integer
    const ArgsKey* key = std::begin(kArgsKeys);
    do {
      while (key != std::end(kArgsKeys) && !c.lit(key->key)) ++key;
      std::int64_t v = 0;
      if (key == std::end(kArgsKeys) || !c.integer(v)) return false;
      if (key->value != nullptr) {
        ev.*key->value = v;
        ev.numbers |= bit(key->field);
      }
      ++key;
    } while (c.lit(","));
    if (!c.lit("}")) return false;
  }
  return c.lit("}");
}

// -- The generic reader -----------------------------------------------------

/// Kind of a value from its first byte; anything unlisted can only parse
/// as a number.
Kind kind_of(char c) {
  switch (c) {
    case '{': return Kind::kObject;
    case '[': return Kind::kArray;
    case '"': return Kind::kString;
    case 't':
    case 'f': return Kind::kBool;
    case 'n': return Kind::kNull;
    default: return Kind::kNumber;
  }
}

/// The record fields a key fills.
struct Slot {
  std::string_view key;
  Field field;
  std::int64_t TraceEvent::*integer;  // null for strings, stamps and args
};
constexpr Slot kEventSlots[] = {
    {"name", TraceEvent::kName, nullptr},
    {"cat", TraceEvent::kCat, nullptr},
    {"ph", TraceEvent::kPh, nullptr},
    {"ts", TraceEvent::kTs, nullptr},
    {"dur", TraceEvent::kDur, nullptr},
    {"pid", TraceEvent::kPid, &TraceEvent::pid},
    {"tid", TraceEvent::kTid, &TraceEvent::tid},
    {"id", TraceEvent::kId, &TraceEvent::id},
    {"args", TraceEvent::kArgs, nullptr}};
constexpr Slot kArgsSlots[] = {
    {"src", TraceEvent::kSrc, &TraceEvent::src},
    {"dst", TraceEvent::kDst, &TraceEvent::dst},
    {"tag", TraceEvent::kTag, &TraceEvent::tag},
    {"bytes", TraceEvent::kBytes, &TraceEvent::bytes},
    {"flow", TraceEvent::kFlow, &TraceEvent::flow}};

/// The generic reader's state across events: decoded strings (the record
/// views them) and one number.
struct Buffers {
  std::string name, cat, ph;
  json::Value number;
};

/// Read one field's value: strings and numbers into the record,
/// containers as their kind only, so no single event can make the scan
/// hold more than its scalars.
void read_field(json::Reader& in, const Slot& slot, TraceEvent& ev,
                Buffers& s) {
  const auto b = bit(slot.field);
  const Kind kind = kind_of(in.peek_value());
  if (kind == Kind::kString) {
    std::string* out = slot.field == TraceEvent::kName  ? &s.name
                       : slot.field == TraceEvent::kCat ? &s.cat
                       : slot.field == TraceEvent::kPh  ? &s.ph
                                                        : nullptr;
    in.string(out);
    if (out != nullptr) ev.strings |= b;
    return;
  }
  if (kind != Kind::kNumber) {
    in.value(nullptr);
    return;
  }
  json::Value& v = s.number;
  in.value(&v);
  ev.numbers |= b;
  if (slot.field == TraceEvent::kTs) {
    ev.ts = ts_to_ns(v.number);
  } else if (slot.field == TraceEvent::kDur) {
    ev.dur = ts_to_ns(v.number);
    ev.dur_negative = v.number < 0;
  } else if (slot.integer != nullptr && !v.to_int64(ev.*slot.integer)) {
    ev.not_int64 |= b;
  }
}

/// Read one traceEvents element into `ev`, a reset record.
void scan_event(json::Reader& in, TraceEvent& ev, Buffers& s) {
  ev.is_object = in.peek_value() == '{';
  if (!ev.is_object) {
    in.value(nullptr);
    return;
  }
  // The slot `key` names, unless it was read already: the first
  // occurrence of a key wins and later duplicates are only validated.
  std::uint32_t seen = 0;
  const auto slot_for = [&seen](const auto& slots,
                                std::string_view key) -> const Slot* {
    for (const Slot& slot : slots) {
      if (slot.key != key) continue;
      if ((seen & bit(slot.field)) != 0) return nullptr;
      seen |= bit(slot.field);
      return &slot;
    }
    return nullptr;
  };
  in.object([&](std::string_view key) {
    const Slot* slot = slot_for(kEventSlots, key);
    if (slot == nullptr) {
      in.value(nullptr);
    } else if (slot->field != TraceEvent::kArgs || in.peek_value() != '{') {
      read_field(in, *slot, ev, s);
    } else {
      ev.args_is_object = true;
      bool first = true;
      in.object([&](std::string_view akey) {
        // Look the key up first: reading on may refill the buffer under it.
        const Slot* a = slot_for(kArgsSlots, akey);
        if (first) {
          ev.args_first_is_number = kind_of(in.peek_value()) == Kind::kNumber;
          first = false;
        }
        if (a == nullptr) {
          in.value(nullptr);
        } else {
          read_field(in, *a, ev, s);
        }
      });
    }
  });
  if (ev.is_string(TraceEvent::kName)) ev.name = s.name;
  if (ev.is_string(TraceEvent::kCat)) ev.cat = s.cat;
  if (ev.is_string(TraceEvent::kPh)) ev.ph = s.ph;
}

}  // namespace

TraceDoc scan_trace(json::Reader& in,
                    const std::function<void(const TraceEvent&)>& on_event) {
  TraceDoc doc;
  doc.is_object = in.peek_value() == '{';
  if (!doc.is_object) {
    in.value(nullptr);
    in.finish();
    return doc;
  }
  bool saw_events = false;
  TraceEvent ev;
  Buffers buffers;
  in.object([&](std::string_view key) {
    if (key == "traceEvents" && !saw_events) {
      saw_events = true;
      doc.has_events = in.peek_value() == '[';
      if (!doc.has_events) {
        in.value(nullptr);
        return;
      }
      std::size_t index = 0;
      in.array([&] {
        in.peek_value();  // past whitespace, or the error json::parse gives
        const std::string_view w = in.window(kFastWindow);
        Cursor c{w.data(), w.data() + w.size()};
        ev = TraceEvent{.index = index};
        if (fast_event(c, ev)) {
          in.consume(static_cast<std::size_t>(c.p - w.data()));
          ++doc.fast_events;
        } else {
          ev = TraceEvent{.index = index};
          scan_event(in, ev, buffers);
        }
        ++index;
        on_event(ev);
      });
    } else if (key == "otherData" && !doc.other_data) {
      in.value(&doc.other_data.emplace());
    } else {
      in.value(nullptr);
    }
  });
  in.finish();
  return doc;
}

TraceHeader read_header(const json::Value* other_data) {
  TraceHeader h;
  if (other_data == nullptr || !other_data->is_object()) return h;
  h.is_object = true;
  const auto text = [other_data](const char* key) {
    const json::Value* v = other_data->find(key);
    return v != nullptr && v->is_string() ? std::string_view(v->string)
                                          : std::string_view();
  };
  const auto object = [other_data](const char* key) -> const json::Value* {
    const json::Value* v = other_data->find(key);
    return v != nullptr && v->is_object() ? v : nullptr;
  };
  /// `key` of `in` into `out` by `read`, a checked conversion.
  const auto number = [](const json::Value* in, const char* key, auto& out,
                         auto read) {
    const json::Value* v = in == nullptr ? nullptr : in->find(key);
    if (v == nullptr || !v->is_number()) return;
    out.got = (v->*read)(out.value) ? TraceHeader::Got::kRead
                                    : TraceHeader::Got::kOutside;
  };
  h.schema = text("schema");
  h.algo = text("algo");
  h.model = text("model");
  h.config_digest = text("config_digest");
  h.net = object("net");
  h.run = object("run");
  number(other_data, "ranks", h.ranks, &json::Value::to_int64);
  number(other_data, "seed", h.seed, &json::Value::to_uint64);
  number(h.run, "time_ns", h.time_ns, &json::Value::to_int64);
  number(h.run, "events", h.events, &json::Value::to_uint64);
  if (h.ranks.value < 1 || h.ranks.value >= kMaxRanks) {
    if (h.ranks.got == TraceHeader::Got::kRead) {
      h.ranks.got = TraceHeader::Got::kOutside;
    }
    h.ranks.value = 0;
  }
  return h;
}

std::string refusal_text(const TraceEvent& e) {
  std::ostringstream os;
  check_event(e, [&os](Refusal r, const auto&... parts) {
    (os << ... << parts);
    return r;
  });
  os << " (event " << e.index << ')';
  return os.str();
}

}  // namespace mel::obs
