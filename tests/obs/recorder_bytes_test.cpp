// Byte pins for obs::Recorder's two writers and the emitter under them.
// The literals below are the output of the string-building serializers
// the emitter replaced, captured before the change: every record kind,
// escaped and plain names, and timestamps on both sides of the range the
// integer formatter covers. The stdio path must give the same bytes as the
// string path, also for outputs many times the emitter's buffer.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "mel/net/network.hpp"
#include "mel/obs/emit.hpp"
#include "mel/obs/recorder.hpp"
#include "mel/util/rng.hpp"

namespace mel::obs {
namespace {

/// A Recorder holding every record kind the writers print: spans with and
/// without a duration, flows on all four channels with and without a step
/// or an end (and dead padding slots between them), instants with and
/// without a flow, wires, machine-wide and per-rank samples, iterations,
/// and all three metadata blocks. One counter name and one instant name
/// need escaping, and three timestamps lie outside the integer-division
/// range (a negative one, 2^43 * 1000 ns and the largest Time), so both
/// timestamp formatters show.
void fill_every_kind(Recorder& rec) {
  rec.set_run_info("match", "NSR", 4, 7);
  net::Params net;
  net.ranks_per_node = 2;
  rec.set_net_params(net);
  rec.set_run_result(123456789, 0x0123456789abcdefull, 4242);

  rec.record(0, "isend", 1000, 2500);
  rec.record(1, "recv", 3001, 3001);  // zero duration: an `i` marker
  rec.record(2, "compute", 999999, 1000000);
  rec.record(3, "allreduce", 8796093022207999, 8796093022208000);

  rec.flow_begin(1, Channel::kP2P, 0, 1, 5, 48, 1200);
  rec.flow_step(1, 1, 1700);
  rec.flow_end(1, 1, 3001);
  // Ids 2 and 3 are never begun: dead padding slots.
  rec.flow_begin(4, Channel::kRma, 2, 3, 0, 1ull << 33, 2000);
  rec.flow_end(4, 3, 2999);
  rec.flow_end(4, 2, 5000);  // a second end is ignored
  rec.flow_begin(5, Channel::kNeighbor, 3, 0, -1, 24, 7);
  rec.flow_step(5, 0, 8);  // a step and no end
  rec.flow_begin(6, Channel::kFt, 1, 2, 2147483647, 0, 0);  // neither
  rec.flow_step(9, 0, 1);  // never begun: ignored

  rec.instant(2, "ft.retransmit", 4100, 4);
  rec.instant(-1, "crash", -1500, 0);
  rec.instant(1, "odd \"name\" \\ \x01\x1f\n\t\r\b\f", 4999, 0);

  rec.wire(0, 1, 88, 1200);
  rec.wire(3, 0, 0, 8796093022208000);

  rec.counter(-1, "live_ranks", 0, 4);
  rec.counter(2, "mailbox", 100000, 18446744073709551615ull);
  rec.counter(0, "q\"d\\x\x02", 200000, 3);
  rec.counter(3, "mailbox", 9223372036854775807, 1);

  mpi::CommCounters c;
  c.bytes_sent = 400;
  c.bytes_put = 64;
  c.bytes_coll = 8;
  c.comm_ns = 1500;
  c.compute_ns = 900;
  rec.iteration(1, 0, 12, c, 5000);
  c.bytes_sent = 1000;
  c.comm_ns = 1400;  // a negative delta prints with its sign
  rec.iteration(1, 1, -3, c, 7000);
  rec.iteration(0, 0, 0, mpi::CommCounters{}, 6500);
}

/// A Recorder with run info only: no net parameters, no run result.
void fill_run_info_only(Recorder& rec) {
  rec.set_run_info("color", "NCL", 2, 18446744073709551615ull);
  rec.record(1, "ncoll", 10, 12);
}

// What the string-building serializers printed for the recorders above.
constexpr const char kEveryKindTrace[] = R"golden({"traceEvents":[{"name":"process_name","ph":"M","pid":0,"args":{"name":"melsim match NSR"}},
{"name":"isend","cat":"op","ph":"X","ts":1.000,"pid":0,"tid":0,"dur":1.500},
{"name":"recv","cat":"op","ph":"i","ts":3.001,"pid":0,"tid":1,"s":"t"},
{"name":"compute","cat":"op","ph":"X","ts":999.999,"pid":0,"tid":2,"dur":0.001},
{"name":"allreduce","cat":"op","ph":"X","ts":8796093022207.999,"pid":0,"tid":3,"dur":0.001},
{"name":"p2p","cat":"flow","ph":"s","ts":1.200,"pid":0,"tid":0,"id":1,"args":{"src":0,"dst":1,"tag":5,"bytes":48}},
{"name":"p2p","cat":"flow","ph":"t","ts":1.700,"pid":0,"tid":1,"id":1},
{"name":"p2p","cat":"flow","ph":"f","ts":3.001,"pid":0,"tid":1,"bp":"e","id":1},
{"name":"rma","cat":"flow","ph":"s","ts":2.000,"pid":0,"tid":2,"id":4,"args":{"src":2,"dst":3,"tag":0,"bytes":8589934592}},
{"name":"rma","cat":"flow","ph":"f","ts":2.999,"pid":0,"tid":3,"bp":"e","id":4},
{"name":"neighbor","cat":"flow","ph":"s","ts":0.007,"pid":0,"tid":3,"id":5,"args":{"src":3,"dst":0,"tag":-1,"bytes":24}},
{"name":"neighbor","cat":"flow","ph":"t","ts":0.008,"pid":0,"tid":0,"id":5},
{"name":"ft","cat":"flow","ph":"s","ts":0.000,"pid":0,"tid":1,"id":6,"args":{"src":1,"dst":2,"tag":2147483647,"bytes":0}},
{"name":"ft.retransmit","cat":"instant","ph":"i","ts":4.100,"pid":0,"tid":2,"s":"t","args":{"flow":4}},
{"name":"crash","cat":"instant","ph":"i","ts":-1.500,"pid":0,"tid":-1,"s":"t"},
{"name":"odd \"name\" \\ \u0001\u001f\n\t\r\b\f","cat":"instant","ph":"i","ts":4.999,"pid":0,"tid":1,"s":"t"},
{"name":"wire","cat":"wire","ph":"i","ts":1.200,"pid":0,"tid":0,"s":"t","args":{"src":0,"dst":1,"bytes":88}},
{"name":"wire","cat":"wire","ph":"i","ts":8796093022208.000,"pid":0,"tid":3,"s":"t","args":{"src":3,"dst":0,"bytes":0}},
{"name":"sim/live_ranks","cat":"counter","ph":"C","ts":0.000,"pid":0,"tid":0,"args":{"value":4}},
{"name":"r2/mailbox","cat":"counter","ph":"C","ts":100.000,"pid":0,"tid":2,"args":{"value":18446744073709551615}},
{"name":"r0/q\"d\\x\u0002","cat":"counter","ph":"C","ts":200.000,"pid":0,"tid":0,"args":{"value":3}},
{"name":"r3/mailbox","cat":"counter","ph":"C","ts":9223372036854776.000,"pid":0,"tid":3,"args":{"value":1}},
{"name":"iteration","cat":"iter","ph":"i","ts":5.000,"pid":0,"tid":1,"s":"t","args":{"iter":0,"active":12}},
{"name":"iteration","cat":"iter","ph":"i","ts":7.000,"pid":0,"tid":1,"s":"t","args":{"iter":1,"active":-3}},
{"name":"iteration","cat":"iter","ph":"i","ts":6.500,"pid":0,"tid":0,"s":"t","args":{"iter":0,"active":0}}],"displayTimeUnit":"ns","otherData":{"schema":"mel.trace/2","algo":"match","model":"NSR","ranks":4,"seed":7,"net":{"ranks_per_node":2,"alpha_intra":600,"alpha_inter":1400,"beta_intra":0.050000000000000003,"beta_inter":0.10000000000000001,"o_send":400,"o_recv":350,"o_iprobe":150,"o_ack":120,"o_send_intra":400,"o_recv_intra":350,"nsr_handling_per_msg":600,"o_put":160,"o_get":220,"o_flush":700,"o_coll_base":900,"o_coll_per_neighbor":400,"o_reduce_hop":1100,"o_coll_persistent_start":250,"compute_per_edge":35,"compute_per_vertex":60,"copy_per_byte":0,"copy_per_kib":300},"config_digest":"0x9807e900aeaa332b","run":{"time_ns":123456789,"trace_hash":"0x0123456789abcdef","events":4242}}})golden";

constexpr const char kEveryKindMetrics[] = R"golden({"type":"header","schema":"mel.metrics/1","algo":"match","model":"NSR","ranks":4,"seed":7}
{"type":"sample","t":0,"rank":-1,"name":"live_ranks","value":4}
{"type":"sample","t":100000,"rank":2,"name":"mailbox","value":18446744073709551615}
{"type":"sample","t":200000,"rank":0,"name":"q\"d\\x\u0002","value":3}
{"type":"sample","t":9223372036854775807,"rank":3,"name":"mailbox","value":1}
{"type":"iteration","t":5000,"rank":1,"iter":0,"active":12,"dt":5000,"d_bytes_p2p":400,"d_bytes_rma":64,"d_bytes_coll":8,"d_comm_ns":1500,"d_compute_ns":900}
{"type":"iteration","t":7000,"rank":1,"iter":1,"active":-3,"dt":2000,"d_bytes_p2p":600,"d_bytes_rma":0,"d_bytes_coll":0,"d_comm_ns":-100,"d_compute_ns":0}
{"type":"iteration","t":6500,"rank":0,"iter":0,"active":0,"dt":6500,"d_bytes_p2p":0,"d_bytes_rma":0,"d_bytes_coll":0,"d_comm_ns":0,"d_compute_ns":0}
{"type":"instant","t":4100,"rank":2,"name":"ft.retransmit","flow":4}
{"type":"instant","t":-1500,"rank":-1,"name":"crash","flow":0}
{"type":"instant","t":4999,"rank":1,"name":"odd \"name\" \\ \u0001\u001f\n\t\r\b\f","flow":0}
{"type":"run","time_ns":123456789,"trace_hash":"0x0123456789abcdef","events":4242}
)golden";

constexpr const char kRunInfoOnlyTrace[] = R"golden({"traceEvents":[{"name":"process_name","ph":"M","pid":0,"args":{"name":"melsim color NCL"}},
{"name":"ncoll","cat":"op","ph":"X","ts":0.010,"pid":0,"tid":1,"dur":0.002}],"displayTimeUnit":"ns","otherData":{"schema":"mel.trace/2","algo":"color","model":"NCL","ranks":2,"seed":18446744073709551615}})golden";

constexpr const char kRunInfoOnlyMetrics[] = R"golden({"type":"header","schema":"mel.metrics/1","algo":"color","model":"NCL","ranks":2,"seed":18446744073709551615}
)golden";

constexpr const char kBareTrace[] = R"golden({"traceEvents":[],"displayTimeUnit":"ns"})golden";

constexpr const char kBareMetrics[] = R"golden({"type":"header","schema":"mel.metrics/1","algo":"","model":"","ranks":0,"seed":0}
)golden";

/// The bytes `write` streams into a temporary stdio file.
template <class Write>
std::string streamed(Write write) {
  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return {};
  Emitter out(f);
  write(out);
  EXPECT_TRUE(out.flush());
  std::string text(static_cast<std::size_t>(std::ftell(f)), '\0');
  std::rewind(f);
  EXPECT_EQ(std::fread(text.data(), 1, text.size(), f), text.size());
  std::fclose(f);
  return text;
}

void expect_golden(const Recorder& rec, const char* trace,
                   const char* metrics) {
  EXPECT_EQ(rec.to_chrome_json(), trace);
  EXPECT_EQ(rec.metrics_jsonl(), metrics);
  EXPECT_EQ(streamed([&](Emitter& out) { rec.write_chrome(out); }), trace);
  EXPECT_EQ(streamed([&](Emitter& out) { rec.write_metrics(out); }), metrics);
}

TEST(RecorderBytes, EveryRecordKindMatchesThePinnedBytes) {
  Recorder rec;
  fill_every_kind(rec);
  expect_golden(rec, kEveryKindTrace, kEveryKindMetrics);
}

TEST(RecorderBytes, PartialMetadataMatchesThePinnedBytes) {
  Recorder info;
  fill_run_info_only(info);
  expect_golden(info, kRunInfoOnlyTrace, kRunInfoOnlyMetrics);
  const Recorder bare;
  expect_golden(bare, kBareTrace, kBareMetrics);
}

std::string printf_micros(sim::Time ns) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e3);
  return buf;
}

std::string emitted_micros(sim::Time ns) {
  char buf[kMicrosChars];
  return std::string(buf, format_micros(buf, ns));
}

TEST(RecorderBytes, TimestampsPrintAsPrintfDoes) {
  for (sim::Time ns = 0; ns < 2'000'000; ++ns) {
    ASSERT_EQ(emitted_micros(ns), printf_micros(ns)) << ns;
  }
  util::Xoshiro256 rng(25);
  for (int i = 0; i < 1'000'000; ++i) {
    const auto ns = static_cast<sim::Time>(rng.next_below(kExactMicros));
    ASSERT_EQ(emitted_micros(ns), printf_micros(ns)) << ns;
  }
  // Both sides of the bound, and past it the snprintf fallback.
  for (sim::Time ns = kExactMicros - 5000; ns < kExactMicros + 5000; ++ns) {
    ASSERT_EQ(emitted_micros(ns), printf_micros(ns)) << ns;
  }
  EXPECT_EQ(emitted_micros(kExactMicros - 1), "8796093022207.999");
  EXPECT_EQ(emitted_micros(kExactMicros), "8796093022208.000");
  constexpr sim::Time kMax = std::numeric_limits<sim::Time>::max();
  constexpr sim::Time kMin = std::numeric_limits<sim::Time>::min();
  for (const sim::Time ns : {sim::Time{-1}, sim::Time{-999}, sim::Time{-1000},
                             sim::Time{-1001}, -kExactMicros, kMax, kMin}) {
    EXPECT_EQ(emitted_micros(ns), printf_micros(ns)) << ns;
  }
  for (int i = 0; i < 100'000; ++i) {
    const auto ns = -static_cast<sim::Time>(rng.next_below(kExactMicros));
    ASSERT_EQ(emitted_micros(ns), printf_micros(ns)) << ns;
  }
}

TEST(RecorderBytes, StreamingAcrossBufferBoundariesKeepsEveryByte) {
  // A name longer than the buffer, plain and escaped, plus enough records
  // for several MiB, so the stream flushes many times mid-record.
  const std::string plain(3 * Emitter::kBufferBytes + 17, 'n');
  const std::string escaped = plain + "\"";
  Recorder rec;
  fill_every_kind(rec);
  rec.counter(1, plain.c_str(), 10, 1);
  rec.instant(2, escaped.c_str(), 11, 0);
  for (int i = 0; i < 60'000; ++i) {
    rec.record(i % 7, "compute", 1000 * i + i % 997, 1000 * i + 3 * i);
    rec.wire(i % 5, i % 3, static_cast<std::size_t>(i) * 8, 999 * i);
  }
  const std::string trace = rec.to_chrome_json();
  const std::string metrics = rec.metrics_jsonl();
  ASSERT_GT(trace.size(), 4 * Emitter::kBufferBytes);
  ASSERT_GT(metrics.size(), 2 * Emitter::kBufferBytes);
  EXPECT_EQ(streamed([&](Emitter& out) { rec.write_chrome(out); }), trace);
  EXPECT_EQ(streamed([&](Emitter& out) { rec.write_metrics(out); }), metrics);
  // Locate each long name by a short prefix, then compare it once: a find
  // with the whole 3 MiB needle compares all of it at every candidate
  // quote under ASan's strict_memcmp.
  const auto holds = [&trace](const std::string& needle) {
    const std::size_t at = trace.find(needle.substr(0, 32));
    return at != std::string::npos &&
           trace.compare(at, needle.size(), needle) == 0;
  };
  EXPECT_TRUE(holds("\"name\":\"r1/" + plain + "\""));
  EXPECT_TRUE(holds("\"name\":\"" + plain + "\\\"\""));
}

TEST(RecorderBytes, AFailedStreamWriteIsReported) {
  std::FILE* f = std::fopen("/dev/full", "wb");
  if (f == nullptr) GTEST_SKIP() << "no /dev/full";
  Emitter out(f);
  out << "lost";
  EXPECT_FALSE(out.flush());
  EXPECT_EQ(errno, ENOSPC);
  out << "also lost";
  EXPECT_FALSE(out.flush());
  EXPECT_EQ(errno, ENOSPC);
  std::fclose(f);
}

}  // namespace
}  // namespace mel::obs
