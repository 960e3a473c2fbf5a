#include "mel/obs/recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string_view>

#include "mel/net/params_io.hpp"
#include "mel/obs/emit.hpp"

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

void Recorder::flow_begin(FlowId flow, Channel channel, Rank src, Rank dst,
                          int tag, std::size_t bytes, Time t) {
  // The machine assigns each rank its own arithmetic progression of ids
  // (counter * nranks + rank + 1), so begins do not arrive in id order and
  // the ids in use leave gaps; index them instead of sizing by the id.
  if (flow == 0) return;
  const std::uint32_t i = flow_ids_.find_or_add(flow);
  if (i == flows_.size()) flows_.emplace_back();
  Flow& f = flows_[i];
  f = Flow{};
  f.id = flow;
  f.channel = channel;
  f.src = src;
  f.dst = dst;
  f.tag = tag;
  f.bytes = bytes;
  f.begin_t = t;
}

void Recorder::flow_step(FlowId flow, Rank rank, Time t) {
  (void)rank;
  const std::uint32_t i = flow_ids_.find(flow);
  if (i == KeyIndex<FlowId>::kNone) return;
  flows_[i].step_t = t;
  flows_[i].has_step = true;
}

void Recorder::flow_end(FlowId flow, Rank rank, Time t) {
  const std::uint32_t i = flow_ids_.find(flow);
  if (i == KeyIndex<FlowId>::kNone) return;
  Flow& f = flows_[i];
  if (f.ended) return;  // keep the first end (e.g. crash-path races)
  f.ended = true;
  f.end_t = t;
  f.end_rank = rank;
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

constexpr std::string_view kOpen = "{\"name\":\"";

/// The fields every Chrome event has after its name.
void event_fields(Emitter& out, const char* cat, char ph, Time ts, Rank tid) {
  out << "\",\"cat\":\"" << cat << "\",\"ph\":\"" << ph
      << "\",\"ts\":" << Micros{ts} << ",\"pid\":0,\"tid\":" << tid;
}

void event(Emitter& out, const char* name, const char* cat, char ph, Time ts,
           Rank tid) {
  out << kOpen << JsonText{name};
  event_fields(out, cat, ph, ts, tid);
}

/// `"0x%016llx"`, the form both writers give the trace hash and digest.
std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

void Recorder::write_chrome(Emitter& out) const {
  out << "{\"traceEvents\":[";
  std::string_view sep;
  auto next = [&] {
    out << sep;
    sep = ",\n";
  };

  if (has_run_info_) {
    next();
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":"
           "{\"name\":\"melsim "
        << JsonText{algo_} << ' ' << JsonText{model_} << "\"}}";
  }

  for (const Span& s : spans_) {
    next();
    if (s.end > s.start) {
      event(out, s.category, "op", 'X', s.start, s.rank);
      out << ",\"dur\":" << Micros{s.end - s.start} << '}';
    } else {
      // Zero-duration operation: visible as a thin instant marker.
      event(out, s.category, "op", 'i', s.start, s.rank);
      out << ",\"s\":\"t\"}";
    }
  }

  std::vector<std::uint32_t> by_id(flows_.size());
  std::iota(by_id.begin(), by_id.end(), 0u);
  std::sort(by_id.begin(), by_id.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return flows_[a].id < flows_[b].id;
            });
  for (const std::uint32_t i : by_id) {
    const Flow& f = flows_[i];
    const char* name = channel_name(f.channel);
    next();
    event(out, name, "flow", 's', f.begin_t, f.src);
    out << ",\"id\":" << f.id << ",\"args\":{\"src\":" << f.src
        << ",\"dst\":" << f.dst << ",\"tag\":" << f.tag
        << ",\"bytes\":" << f.bytes << "}}";
    if (f.has_step) {
      next();
      event(out, name, "flow", 't', f.step_t, f.dst);
      out << ",\"id\":" << f.id << '}';
    }
    if (f.ended) {
      next();
      event(out, name, "flow", 'f', f.end_t, f.end_rank);
      out << ",\"bp\":\"e\",\"id\":" << f.id << '}';
    }
  }

  for (const Instant& i : instants_) {
    next();
    event(out, i.name, "instant", 'i', i.t, i.rank);
    out << ",\"s\":\"t\"";
    if (i.flow != 0) out << ",\"args\":{\"flow\":" << i.flow << '}';
    out << '}';
  }

  for (const Wire& w : wires_) {
    next();
    event(out, "wire", "wire", 'i', w.t, w.src);
    out << ",\"s\":\"t\",\"args\":{\"src\":" << w.src << ",\"dst\":" << w.dst
        << ",\"bytes\":" << w.bytes << "}}";
  }

  for (const Sample& s : samples_) {
    // One counter track per (rank, gauge): "r<rank>/<name>"; machine-wide
    // gauges (rank -1) live under "sim/".
    next();
    out << kOpen;
    if (s.rank < 0) {
      out << "sim/";
    } else {
      out << 'r' << s.rank << '/';
    }
    out << JsonText{s.name};
    event_fields(out, "counter", 'C', s.t, s.rank < 0 ? 0 : s.rank);
    out << ",\"args\":{\"value\":" << s.value << "}}";
  }

  for (const Iteration& it : iterations_) {
    next();
    event(out, "iteration", "iter", 'i', it.t, it.rank);
    out << ",\"s\":\"t\",\"args\":{\"iter\":" << it.iter
        << ",\"active\":" << it.active << "}}";
  }

  out << "],\"displayTimeUnit\":\"ns\"";
  if (has_run_info_) {
    out << ",\"otherData\":{\"schema\":\"" << kTraceSchema << "\",\"algo\":\""
        << JsonText{algo_} << "\",\"model\":\"" << JsonText{model_}
        << "\",\"ranks\":" << nranks_ << ",\"seed\":" << seed_;
    if (has_net_params_) {
      const std::string net_json = net::params_to_json(net_params_);
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
      out << ",\"net\":" << net_json << ",\"config_digest\":\"" << hex64(h)
          << '"';
    }
    if (has_run_result_) {
      out << ",\"run\":{\"time_ns\":" << run_time_ns_ << ",\"trace_hash\":\""
          << hex64(run_trace_hash_) << "\",\"events\":" << run_events_ << '}';
    }
    out << '}';
  }
  out << '}';
}

void Recorder::write_metrics(Emitter& out) const {
  out << "{\"type\":\"header\",\"schema\":\"" << kMetricsSchema
      << "\",\"algo\":\"" << JsonText{algo_} << "\",\"model\":\""
      << JsonText{model_} << "\",\"ranks\":" << nranks_ << ",\"seed\":" << seed_
      << "}\n";
  for (const Sample& s : samples_) {
    out << "{\"type\":\"sample\",\"t\":" << s.t << ",\"rank\":" << s.rank
        << ",\"name\":\"" << JsonText{s.name} << "\",\"value\":" << s.value
        << "}\n";
  }
  for (const Iteration& it : iterations_) {
    out << "{\"type\":\"iteration\",\"t\":" << it.t << ",\"rank\":" << it.rank
        << ",\"iter\":" << it.iter << ",\"active\":" << it.active
        << ",\"dt\":" << it.dt << ",\"d_bytes_p2p\":" << it.d_bytes_p2p
        << ",\"d_bytes_rma\":" << it.d_bytes_rma
        << ",\"d_bytes_coll\":" << it.d_bytes_coll
        << ",\"d_comm_ns\":" << it.d_comm_ns
        << ",\"d_compute_ns\":" << it.d_compute_ns << "}\n";
  }
  for (const Instant& i : instants_) {
    out << "{\"type\":\"instant\",\"t\":" << i.t << ",\"rank\":" << i.rank
        << ",\"name\":\"" << JsonText{i.name} << "\",\"flow\":" << i.flow
        << "}\n";
  }
  if (has_run_result_) {
    out << "{\"type\":\"run\",\"time_ns\":" << run_time_ns_
        << ",\"trace_hash\":\"" << hex64(run_trace_hash_)
        << "\",\"events\":" << run_events_ << "}\n";
  }
}

std::string Recorder::to_chrome_json() const {
  // One reserve just above the final size, from the bytes each record
  // kind takes in a 512-rank NSR trace (rounded up), so the string need
  // not grow by copying.
  std::size_t bytes = 4096 + 90 * spans_.size() +
                      120 * (instants_.size() + wires_.size() +
                             samples_.size() + iterations_.size());
  for (const Flow& f : flows_) {
    bytes += 135 + (f.has_step ? 85 : 0) + (f.ended ? 95 : 0);
  }
  std::string text;
  text.reserve(bytes);
  Emitter out(text);
  write_chrome(out);
  out.flush();
  return text;
}

std::string Recorder::metrics_jsonl() const {
  std::string text;
  Emitter out(text);
  write_metrics(out);
  out.flush();
  return text;
}

}  // namespace mel::obs
