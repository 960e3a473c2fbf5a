// Trace/metrics analysis behind the meltrace CLI: schema validation,
// per-category/per-rank rollups, top-k longest operations, comm-matrix
// reconstruction from the trace's flow/wire events, and diffing two runs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mel/mpi/counters.hpp"
#include "mel/obs/json.hpp"

namespace mel::obs {

using sim::Time;

class Emitter;

/// Canonical JSON serialization of a communication matrix. Both
/// `bench_fig02_comm_matrix --json` and `meltrace matrix` emit exactly
/// this, so "the reconstruction agrees with the bench" is byte equality.
std::string matrix_json(const mpi::CommMatrix& m);

/// Everything extracted from one Chrome-trace file in a single pass.
struct TraceStats {
  /// Validation violations (empty = the trace is well formed: every event
  /// carries the required fields, every flow id has exactly one `s` and at
  /// most one `f` with ts(f) >= ts(s), no flow-referencing instant dangles).
  std::vector<std::string> errors;
  /// Flows with an `s` but no `f` — dangling causality arrows. Validation
  /// errors too (a closed trace ends every flow), listed separately so
  /// summaries of crash runs stay readable.
  std::uint64_t dangling_flows = 0;

  std::uint64_t events = 0;
  /// Rank count from the trace's otherData metadata (0 when absent, or
  /// when outside [1, 2^31 - 1], which is also a violation).
  int nranks = 0;
  int max_rank = -1;
  Time ts_min_ns = 0;
  Time ts_max_ns = 0;

  struct CategoryRoll {
    std::uint64_t count = 0;
    Time total_ns = 0;
    Time max_ns = 0;
  };
  std::map<std::string, CategoryRoll> spans_by_category;
  std::map<int, CategoryRoll> spans_by_rank;

  struct TopSpan {
    std::string category;
    int rank = -1;
    Time start_ns = 0;
    Time dur_ns = 0;
  };
  std::vector<TopSpan> top_spans;  // sorted by dur desc, capped at top_k

  struct FlowRoll {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    Time total_latency_ns = 0;  // f.ts - s.ts summed over ended flows
    std::uint64_t ended = 0;
  };
  std::map<std::string, FlowRoll> flows_by_class;  // "p2p"/"rma"/...

  std::map<std::string, std::uint64_t> instants_by_name;
  std::map<std::string, std::uint64_t> counter_samples;  // track -> samples

  /// (src, dst) -> {msgs, bytes} reconstructed from the trace's wire
  /// events (one per CommMatrix::record in the machine).
  struct Cell {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
  };
  std::map<std::pair<int, int>, Cell> wire_matrix;
  /// The violation of the first wire event kept out of wire_matrix: a
  /// src/dst outside [0, nranks), or [0, 2^31) without a rank count, a
  /// number no int64 holds, or negative bytes. Empty when every wire event
  /// is in it.
  std::string wire_error;
};

/// The trace's wire matrix in matrix_json's form, written row by row from
/// the sparse cells. Its dimension is the larger of the metadata rank
/// count and the largest (src, dst) + 1. Throws std::runtime_error,
/// writing nothing, when s.wire_error says a wire event is missing from
/// the matrix.
void write_matrix_json(Emitter& out, const TraceStats& s);

/// Parse + validate + roll up one Chrome trace document in one streaming
/// pass; the file variant reads through a fixed-size buffer, so memory
/// does not grow with the file. A malformed document yields exactly one
/// error and empty rollups.
TraceStats analyze_trace_text(const std::string& text, int top_k = 10);
TraceStats analyze_trace_file(const std::string& path, int top_k = 10);

/// Validate a metrics JSONL stream (schema header, known record types,
/// required fields, rank ranges). Returns violations; empty = valid.
std::vector<std::string> validate_metrics_text(const std::string& text);
std::vector<std::string> validate_metrics_file(const std::string& path);

/// Human-readable rollup of one trace.
std::string summarize(const TraceStats& s);

/// Deterministic integer-only JSON rollup (schema mel.summary/1): every
/// duration in ns, every count exact, no floats — identical traces
/// always produce identical bytes.
std::string summarize_json(const TraceStats& s);

/// Side-by-side comparison of two traces (counts, per-category time,
/// per-class flow volume, matrix totals).
std::string diff(const TraceStats& a, const TraceStats& b,
                 const std::string& label_a, const std::string& label_b);

}  // namespace mel::obs
