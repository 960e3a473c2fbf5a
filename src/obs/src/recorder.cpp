#include "mel/obs/recorder.hpp"

#include <cstdio>
#include <sstream>

#include "mel/net/params_io.hpp"
#include "mel/obs/json.hpp"

namespace mel::obs {

const char* channel_name(Channel ch) {
  switch (ch) {
    case Channel::kP2P: return "p2p";
    case Channel::kRma: return "rma";
    case Channel::kNeighbor: return "neighbor";
    case Channel::kFt: return "ft";
  }
  return "unknown";
}

void Recorder::record(Rank rank, const char* category, Time start, Time end) {
  spans_.push_back(Span{rank, category, start, end});
}

void Recorder::instant(Rank rank, const char* name, Time t, FlowId flow) {
  instants_.push_back(Instant{rank, name, t, flow});
}

Recorder::Flow* Recorder::find_flow(FlowId id) {
  if (id == 0 || id > flows_.size()) return nullptr;
  Flow& f = flows_[id - 1];
  return f.id == id ? &f : nullptr;
}

void Recorder::flow_begin(FlowId flow, Channel channel, Rank src, Rank dst,
                          int tag, std::size_t bytes, Time t) {
  // The machine assigns each rank its own arithmetic progression of ids
  // (counter * nranks + rank + 1), so ids are dense overall but begins do
  // not arrive in id order; size to the slot and pad the gaps with dead
  // entries to keep the id -> index mapping trivial.
  if (flow == 0) return;
  if (flow > flows_.size()) flows_.resize(flow);
  Flow f;
  f.id = flow;
  f.channel = channel;
  f.src = src;
  f.dst = dst;
  f.tag = tag;
  f.bytes = bytes;
  f.begin_t = t;
  flows_[flow - 1] = f;
}

void Recorder::flow_step(FlowId flow, Rank rank, Time t) {
  if (Flow* f = find_flow(flow)) {
    (void)rank;
    f->step_t = t;
    f->has_step = true;
  }
}

void Recorder::flow_end(FlowId flow, Rank rank, Time t) {
  if (Flow* f = find_flow(flow)) {
    if (f->ended) return;  // keep the first end (e.g. crash-path races)
    f->ended = true;
    f->end_t = t;
    f->end_rank = rank;
  }
}

void Recorder::wire(Rank src, Rank dst, std::size_t bytes, Time t) {
  wires_.push_back(Wire{src, dst, bytes, t});
}

void Recorder::counter(Rank rank, const char* name, Time t,
                       std::uint64_t value) {
  samples_.push_back(Sample{rank, name, t, value});
}

void Recorder::iteration(Rank rank, std::uint64_t iter, std::int64_t active,
                         const mpi::CommCounters& c, Time t) {
  if (rank >= static_cast<Rank>(iter_state_.size())) {
    iter_state_.resize(static_cast<std::size_t>(rank) + 1);
  }
  IterState& prev = iter_state_[rank];
  Iteration rec;
  rec.rank = rank;
  rec.iter = iter;
  rec.active = active;
  rec.t = t;
  rec.dt = t - prev.t;
  rec.d_bytes_p2p = c.bytes_sent - prev.bytes_sent;
  rec.d_bytes_rma = c.bytes_put - prev.bytes_put;
  rec.d_bytes_coll = c.bytes_coll - prev.bytes_coll;
  rec.d_comm_ns = c.comm_ns - prev.comm_ns;
  rec.d_compute_ns = c.compute_ns - prev.compute_ns;
  iterations_.push_back(rec);
  prev = IterState{t, c.bytes_sent, c.bytes_put, c.bytes_coll, c.comm_ns,
                   c.compute_ns};
}

void Recorder::set_run_info(std::string algo, std::string model, int nranks,
                            std::uint64_t seed) {
  algo_ = std::move(algo);
  model_ = std::move(model);
  nranks_ = nranks;
  seed_ = seed;
  has_run_info_ = true;
}

void Recorder::set_run_result(Time time_ns, std::uint64_t trace_hash,
                              std::uint64_t events_executed) {
  run_time_ns_ = time_ns;
  run_trace_hash_ = trace_hash;
  run_events_ = events_executed;
  has_run_result_ = true;
}

void Recorder::set_net_params(const net::Params& params) {
  net_params_ = params;
  has_net_params_ = true;
}

namespace {

/// Virtual nanoseconds -> the microsecond floats Chrome/Perfetto expect.
/// %.3f of an integer-derived value is deterministic across runs.
void append_ts(std::string& out, const char* key, Time ns) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%.3f", key,
                static_cast<double>(ns) / 1e3);
  out += buf;
}

void append_common(std::string& out, const char* name, const char* cat,
                   char ph, Time ts, Rank tid) {
  out += "{\"name\":\"";
  out += json_escape(name);
  out += "\",\"cat\":\"";
  out += cat;
  out += "\",\"ph\":\"";
  out += ph;
  out += "\",";
  append_ts(out, "ts", ts);
  out += ",\"pid\":0,\"tid\":" + std::to_string(tid);
}

}  // namespace

std::string Recorder::to_chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&first, &out] {
    if (!first) out += ",\n";
    first = false;
  };

  if (has_run_info_) {
    sep();
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":"
           "{\"name\":\"melsim " +
           json_escape(algo_) + " " + json_escape(model_) + "\"}}";
  }

  for (const Span& s : spans_) {
    sep();
    if (s.end > s.start) {
      append_common(out, s.category, "op", 'X', s.start, s.rank);
      out += ",";
      append_ts(out, "dur", s.end - s.start);
      out += "}";
    } else {
      // Zero-duration operation: visible as a thin instant marker.
      append_common(out, s.category, "op", 'i', s.start, s.rank);
      out += ",\"s\":\"t\"}";
    }
  }

  for (const Flow& f : flows_) {
    if (f.id == 0) continue;  // dead padding slot
    const char* name = channel_name(f.channel);
    sep();
    append_common(out, name, "flow", 's', f.begin_t, f.src);
    out += ",\"id\":" + std::to_string(f.id);
    out += ",\"args\":{\"src\":" + std::to_string(f.src) +
           ",\"dst\":" + std::to_string(f.dst) +
           ",\"tag\":" + std::to_string(f.tag) +
           ",\"bytes\":" + std::to_string(f.bytes) + "}}";
    if (f.has_step) {
      sep();
      append_common(out, name, "flow", 't', f.step_t, f.dst);
      out += ",\"id\":" + std::to_string(f.id) + "}";
    }
    if (f.ended) {
      sep();
      append_common(out, name, "flow", 'f', f.end_t, f.end_rank);
      out += ",\"bp\":\"e\",\"id\":" + std::to_string(f.id) + "}";
    }
  }

  for (const Instant& i : instants_) {
    sep();
    append_common(out, i.name, "instant", 'i', i.t, i.rank);
    out += ",\"s\":\"t\"";
    if (i.flow != 0) {
      out += ",\"args\":{\"flow\":" + std::to_string(i.flow) + "}";
    }
    out += "}";
  }

  for (const Wire& w : wires_) {
    sep();
    append_common(out, "wire", "wire", 'i', w.t, w.src);
    out += ",\"s\":\"t\",\"args\":{\"src\":" + std::to_string(w.src) +
           ",\"dst\":" + std::to_string(w.dst) +
           ",\"bytes\":" + std::to_string(w.bytes) + "}}";
  }

  for (const Sample& s : samples_) {
    // One counter track per (rank, gauge): "r<rank>/<name>"; machine-wide
    // gauges (rank -1) live under "sim/".
    std::string track = s.rank < 0 ? std::string("sim/")
                                   : "r" + std::to_string(s.rank) + "/";
    track += s.name;
    sep();
    append_common(out, track.c_str(), "counter", 'C', s.t,
                  s.rank < 0 ? 0 : s.rank);
    out += ",\"args\":{\"value\":" + std::to_string(s.value) + "}}";
  }

  for (const Iteration& it : iterations_) {
    sep();
    append_common(out, "iteration", "iter", 'i', it.t, it.rank);
    out += ",\"s\":\"t\",\"args\":{\"iter\":" + std::to_string(it.iter) +
           ",\"active\":" + std::to_string(it.active) + "}}";
  }

  out += "],\"displayTimeUnit\":\"ns\"";
  if (has_run_info_) {
    out += ",\"otherData\":{\"schema\":\"";
    out += kTraceSchema;
    out += "\",\"algo\":\"" + json_escape(algo_) + "\",\"model\":\"" +
           json_escape(model_) + "\",\"ranks\":" + std::to_string(nranks_) +
           ",\"seed\":" + std::to_string(seed_);
    if (has_net_params_) {
      const std::string net_json = net::params_to_json(net_params_);
      out += ",\"net\":" + net_json;
      // Run-configuration digest: FNV-1a over everything that shaped the
      // pricing, so two traces with equal digests were priced under an
      // identical configuration (the replay fidelity gate keys on this).
      std::uint64_t h = 1469598103934665603ull;
      auto mix = [&h](const std::string& s) {
        for (const char c : s) {
          h ^= static_cast<unsigned char>(c);
          h *= 1099511628211ull;
        }
        h ^= 0x1f;
        h *= 1099511628211ull;
      };
      mix(algo_);
      mix(model_);
      mix(std::to_string(nranks_));
      mix(std::to_string(seed_));
      mix(net_json);
      char digest[32];
      std::snprintf(digest, sizeof digest, "0x%016llx",
                    static_cast<unsigned long long>(h));
      out += ",\"config_digest\":\"";
      out += digest;
      out += "\"";
    }
    if (has_run_result_) {
      char hash[32];
      std::snprintf(hash, sizeof hash, "0x%016llx",
                    static_cast<unsigned long long>(run_trace_hash_));
      out += ",\"run\":{\"time_ns\":" + std::to_string(run_time_ns_) +
             ",\"trace_hash\":\"" + hash +
             "\",\"events\":" + std::to_string(run_events_) + "}";
    }
    out += "}";
  }
  out += "}";
  return out;
}

std::string Recorder::metrics_jsonl() const {
  std::string out;
  out += "{\"type\":\"header\",\"schema\":\"";
  out += kMetricsSchema;
  out += "\",\"algo\":\"" + json_escape(algo_) + "\",\"model\":\"" +
         json_escape(model_) + "\",\"ranks\":" + std::to_string(nranks_) +
         ",\"seed\":" + std::to_string(seed_) + "}\n";
  for (const Sample& s : samples_) {
    out += "{\"type\":\"sample\",\"t\":" + std::to_string(s.t) +
           ",\"rank\":" + std::to_string(s.rank) + ",\"name\":\"" +
           json_escape(s.name) + "\",\"value\":" + std::to_string(s.value) +
           "}\n";
  }
  for (const Iteration& it : iterations_) {
    out += "{\"type\":\"iteration\",\"t\":" + std::to_string(it.t) +
           ",\"rank\":" + std::to_string(it.rank) +
           ",\"iter\":" + std::to_string(it.iter) +
           ",\"active\":" + std::to_string(it.active) +
           ",\"dt\":" + std::to_string(it.dt) +
           ",\"d_bytes_p2p\":" + std::to_string(it.d_bytes_p2p) +
           ",\"d_bytes_rma\":" + std::to_string(it.d_bytes_rma) +
           ",\"d_bytes_coll\":" + std::to_string(it.d_bytes_coll) +
           ",\"d_comm_ns\":" + std::to_string(it.d_comm_ns) +
           ",\"d_compute_ns\":" + std::to_string(it.d_compute_ns) + "}\n";
  }
  for (const Instant& i : instants_) {
    out += "{\"type\":\"instant\",\"t\":" + std::to_string(i.t) +
           ",\"rank\":" + std::to_string(i.rank) + ",\"name\":\"" +
           json_escape(i.name) + "\",\"flow\":" + std::to_string(i.flow) +
           "}\n";
  }
  if (has_run_result_) {
    char hash[32];
    std::snprintf(hash, sizeof hash, "0x%016llx",
                  static_cast<unsigned long long>(run_trace_hash_));
    out += "{\"type\":\"run\",\"time_ns\":" + std::to_string(run_time_ns_) +
           ",\"trace_hash\":\"" + hash +
           "\",\"events\":" + std::to_string(run_events_) + "}\n";
  }
  return out;
}

}  // namespace mel::obs
