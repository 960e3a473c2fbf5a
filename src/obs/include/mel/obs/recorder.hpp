// obs::Recorder: the full structured trace sink behind `melsim --trace` and
// `--metrics-jsonl`. Implements every mpi::Tracer hook, buffers everything
// in memory (purely observational: no virtual-time effect, no event
// scheduling), and serializes two artifacts after the run:
//
//   * a Chrome/Perfetto trace-event JSON file — `X` spans per operation,
//     `s`/`t`/`f` flow events linking send -> network delivery -> receive
//     across rank tracks, `i` instants for faults/crashes/checkpoints,
//     and `C` counter tracks for the sampled gauges;
//   * a metrics JSONL stream (schema kMetricsSchema) — one self-describing
//     record per counter sample, backend iteration, instant, and run
//     summary. Integer-only payload fields, so identical runs produce
//     bit-identical files (the telemetry determinism tests pin this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mel/mpi/machine.hpp"
#include "mel/net/network.hpp"
#include "mel/obs/key_index.hpp"

namespace mel::obs {

using mpi::Channel;
using mpi::FlowId;
using sim::Rank;
using sim::Time;

const char* channel_name(Channel ch);

class Emitter;

class Recorder final : public mpi::Tracer {
 public:
  /// Versioned schema tag carried by the metrics JSONL header record.
  static constexpr const char* kMetricsSchema = "mel.metrics/1";
  /// Versioned schema tag carried by the Chrome trace's otherData header.
  /// mel.trace/2 added the self-contained replay metadata: the full
  /// net::Params (which includes the ranks-per-node node map), the run
  /// result (total virtual time, trace hash, event count), and a config
  /// digest — everything obs::Replayer needs to re-price the run from
  /// the trace file alone.
  static constexpr const char* kTraceSchema = "mel.trace/2";

  struct Span {
    Rank rank = -1;
    const char* category = nullptr;
    Time start = 0;
    Time end = 0;
  };
  struct Flow {
    FlowId id = 0;
    Channel channel = Channel::kP2P;
    Rank src = -1;
    Rank dst = -1;
    int tag = 0;
    std::size_t bytes = 0;
    Time begin_t = 0;
    Time step_t = -1;  // network delivery into the mailbox, if observed
    Time end_t = -1;
    Rank end_rank = -1;
    bool has_step = false;
    bool ended = false;
  };
  struct Instant {
    Rank rank = -1;
    const char* name = nullptr;
    Time t = 0;
    FlowId flow = 0;
  };
  struct Wire {
    Rank src = -1;
    Rank dst = -1;
    std::size_t bytes = 0;
    Time t = 0;
  };
  struct Sample {
    Rank rank = -1;
    const char* name = nullptr;
    Time t = 0;
    std::uint64_t value = 0;
  };
  struct Iteration {
    Rank rank = -1;
    std::uint64_t iter = 0;
    std::int64_t active = 0;
    Time t = 0;
    Time dt = 0;  // virtual time since this rank's previous iteration record
    std::uint64_t d_bytes_p2p = 0;   // payload bytes isent this iteration
    std::uint64_t d_bytes_rma = 0;   // payload bytes put this iteration
    std::uint64_t d_bytes_coll = 0;  // neighbor-collective payload bytes
    std::int64_t d_comm_ns = 0;
    std::int64_t d_compute_ns = 0;
  };

  // -- mpi::Tracer ----------------------------------------------------------
  void record(Rank rank, const char* category, Time start, Time end) override;
  void instant(Rank rank, const char* name, Time t, FlowId flow) override;
  void flow_begin(FlowId flow, Channel channel, Rank src, Rank dst, int tag,
                  std::size_t bytes, Time t) override;
  void flow_step(FlowId flow, Rank rank, Time t) override;
  void flow_end(FlowId flow, Rank rank, Time t) override;
  void wire(Rank src, Rank dst, std::size_t bytes, Time t) override;
  void counter(Rank rank, const char* name, Time t,
               std::uint64_t value) override;
  void iteration(Rank rank, std::uint64_t iter, std::int64_t active,
                 const mpi::CommCounters& c, Time t) override;

  // -- Run metadata (header / trailer records) ------------------------------
  void set_run_info(std::string algo, std::string model, int nranks,
                    std::uint64_t seed);
  void set_run_result(Time time_ns, std::uint64_t trace_hash,
                      std::uint64_t events_executed);
  /// Embed the cost-model parameter set the run was priced under, making
  /// the serialized trace self-contained for `meltrace replay`.
  void set_net_params(const net::Params& params);

  // -- Serialization --------------------------------------------------------
  /// Stream the Chrome trace / the metrics JSONL into `out`. The caller
  /// flushes `out` and checks it.
  void write_chrome(Emitter& out) const;
  void write_metrics(Emitter& out) const;
  /// The same bytes, as one string.
  std::string to_chrome_json() const;
  std::string metrics_jsonl() const;

  // -- Introspection (tests, analysis) --------------------------------------
  const std::vector<Span>& spans() const { return spans_; }
  /// One entry per begun flow, in the order they began.
  const std::vector<Flow>& flows() const { return flows_; }
  const std::vector<Sample>& samples() const { return samples_; }
  const std::vector<Iteration>& iterations() const { return iterations_; }

 private:
  std::vector<Span> spans_;
  std::vector<Flow> flows_;
  KeyIndex<FlowId> flow_ids_;  // flow id -> index into flows_
  std::vector<Instant> instants_;
  std::vector<Wire> wires_;
  std::vector<Sample> samples_;
  std::vector<Iteration> iterations_;

  // Per-rank cumulative counter snapshot at the previous iteration record,
  // for delta computation (grown lazily to the max rank seen).
  struct IterState {
    Time t = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_put = 0;
    std::uint64_t bytes_coll = 0;
    std::int64_t comm_ns = 0;
    std::int64_t compute_ns = 0;
  };
  std::vector<IterState> iter_state_;

  std::string algo_;
  std::string model_;
  int nranks_ = 0;
  std::uint64_t seed_ = 0;
  bool has_run_info_ = false;
  net::Params net_params_{};
  bool has_net_params_ = false;
  Time run_time_ns_ = 0;
  std::uint64_t run_trace_hash_ = 0;
  std::uint64_t run_events_ = 0;
  bool has_run_result_ = false;
};

}  // namespace mel::obs
