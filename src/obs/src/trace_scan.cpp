#include "trace_scan.hpp"

#include <cstdint>
#include <iterator>
#include <utility>

namespace mel::obs {

namespace {

using Kind = json::Value::Kind;

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

/// Read a field's value: scalars in full, containers as their kind only,
/// so no single event can make the scan hold more than its scalars.
/// A null field means the member is not wanted: validate and skip it.
void read_field(json::Reader& in, json::Value* f) {
  const char c = in.peek_value();
  if (f == nullptr) {
    in.value(nullptr);
  } else if (c == '"') {
    f->kind = Kind::kString;
    in.string(&f->string);
  } else if (c == '{' || c == '[') {
    f->kind = kind_of(c);
    in.value(nullptr);
  } else {
    in.value(f);
  }
}

using Field = std::pair<std::string_view, json::Value TraceEvent::*>;
constexpr Field kEventFields[] = {
    {"name", &TraceEvent::name}, {"cat", &TraceEvent::cat},
    {"ph", &TraceEvent::ph},     {"ts", &TraceEvent::ts},
    {"dur", &TraceEvent::dur},   {"pid", &TraceEvent::pid},
    {"tid", &TraceEvent::tid},   {"id", &TraceEvent::id},
    {"args", &TraceEvent::args}};
constexpr Field kArgsFields[] = {
    {"src", &TraceEvent::src},     {"dst", &TraceEvent::dst},
    {"tag", &TraceEvent::tag},     {"bytes", &TraceEvent::bytes},
    {"flow", &TraceEvent::flow}};

/// Read one traceEvents element into `ev` (every field reset first).
void scan_event(json::Reader& in, TraceEvent& ev) {
  for (const auto& [key, field] : kEventFields) (ev.*field).kind = Kind::kNull;
  for (const auto& [key, field] : kArgsFields) (ev.*field).kind = Kind::kNull;
  ev.args_first_is_number = false;
  ev.is_object = in.peek_value() == '{';
  if (!ev.is_object) {
    in.value(nullptr);
    return;
  }
  // The field `key` names, unless it was read already: the first
  // occurrence of a key wins and later duplicates are only validated.
  std::uint32_t seen = 0;
  const auto field_for = [&](const auto& fields, std::size_t first_bit,
                             std::string_view key) -> json::Value* {
    for (std::size_t i = 0; i < std::size(fields); ++i) {
      if (fields[i].first != key) continue;
      const std::uint32_t bit = 1u << (first_bit + i);
      if (seen & bit) return nullptr;
      seen |= bit;
      return &(ev.*fields[i].second);
    }
    return nullptr;
  };
  in.object([&](std::string_view key) {
    json::Value* f = field_for(kEventFields, 0, key);
    if (f != &ev.args || in.peek_value() != '{') {
      read_field(in, f);
      return;
    }
    ev.args.kind = Kind::kObject;
    bool first = true;
    in.object([&](std::string_view akey) {
      // Look the key up first: reading on may refill the buffer under it.
      json::Value* a = field_for(kArgsFields, std::size(kEventFields), akey);
      if (first) {
        ev.args_first_is_number = kind_of(in.peek_value()) == Kind::kNumber;
        first = false;
      }
      read_field(in, a);
    });
  });
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
        ev.index = index++;
        scan_event(in, ev);
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

}  // namespace mel::obs
