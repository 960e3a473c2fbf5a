# CLI contract for melsim's --model and fault flags, run as a CTest script:
#   * an unknown model name exits 2 and the error points at --help,
#   * --help exits 0 and lists every backend the build knows about,
#   * --fault-crash rejects out-of-range ranks, non-positive times, and
#     malformed R@NS pairs at parse time (exit 2, --help pointer),
#   * --ft-recovery rejects unknown strategies the same way,
#   * malformed numbers, --ranks 0, integers too wide for their field and a
#     negative --watchdog-horizon are rejected the same way,
#   * --algo, and the model, --root and match-only flags BFS and coloring
#     get, are checked the same way,
#   * --matrix writes the comm matrix for every algorithm, and an
#     unwritable --matrix path is a usage error,
#   * an output file the device refuses to take (/dev/full) exits 2
#     naming the path, for --metrics-jsonl, --matrix and
#     --host-profile-json,
#   * a regular output file is written whole or not at all: a write cut
#     short by the file-size limit leaves no file, no temporary and an
#     existing file's bytes unchanged,
#   * the trace line's flow count equals the flows the trace holds,
#   * --intra-node-params values outside the cost model's domain and a
#     graph file declaring more than graph::kMaxFileVertices vertices are
#     rejected by name.
# Invoked with -DMELSIM=<path-to-binary>.
if(NOT DEFINED MELSIM)
  message(FATAL_ERROR "pass -DMELSIM=<melsim binary>")
endif()

execute_process(
  COMMAND ${MELSIM} --model NO-SUCH-MODEL --ranks 4 --gen rmat --gen-scale 6
  RESULT_VARIABLE bad_code
  OUTPUT_VARIABLE bad_out
  ERROR_VARIABLE bad_err)
if(NOT bad_code EQUAL 2)
  message(FATAL_ERROR "unknown model: expected exit 2, got ${bad_code}")
endif()
if(NOT bad_err MATCHES "unknown model: NO-SUCH-MODEL")
  message(FATAL_ERROR "unknown model: missing diagnostic, got: ${bad_err}")
endif()
if(NOT bad_err MATCHES "--help")
  message(FATAL_ERROR "unknown model: error must point at --help: ${bad_err}")
endif()

execute_process(
  COMMAND ${MELSIM} --help
  RESULT_VARIABLE help_code
  OUTPUT_VARIABLE help_out
  ERROR_VARIABLE help_err)
if(NOT help_code EQUAL 0)
  message(FATAL_ERROR "--help: expected exit 0, got ${help_code}")
endif()
foreach(model NSR RMA NCL MBP NSR-AGG RMA-FENCE NCL-NB NSR-HIER NCL-PERSIST
        RMA-PART)
  if(NOT help_out MATCHES "${model}")
    message(FATAL_ERROR "--help does not list backend ${model}")
  endif()
endforeach()

# --fault-crash validation: each bad form is a parse-time usage error that
# exits 2 with a diagnostic naming the flag and pointing at --help, before
# any graph is generated.
function(expect_crash_rejected label expect_diag)
  set(args ${ARGN})
  execute_process(
    COMMAND ${MELSIM} --model NSR --ranks 4 --gen er --verts 50 --edges 200
            ${args}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "${label}: expected exit 2, got ${code} (${err})")
  endif()
  if(NOT err MATCHES "${expect_diag}")
    message(FATAL_ERROR "${label}: missing diagnostic '${expect_diag}': ${err}")
  endif()
  if(NOT err MATCHES "--help")
    message(FATAL_ERROR "${label}: error must point at --help: ${err}")
  endif()
  if(out MATCHES "input:")
    message(FATAL_ERROR "${label}: graph was built before flag validation")
  endif()
endfunction()

expect_crash_rejected("rank out of range" "rank 9 out of range"
                      --fault-crash 9@1000)
expect_crash_rejected("negative rank" "rank -1 out of range"
                      --fault-crash -1@1000)
expect_crash_rejected("non-positive time" "must be a positive"
                      --fault-crash 2@0)
expect_crash_rejected("negative time" "must be a positive"
                      --fault-crash 2@-77)
expect_crash_rejected("malformed pair" "expected R@NS"
                      --fault-crash bogus)
expect_crash_rejected("non-integer rank" "expected R@NS"
                      --fault-crash x@1000)
expect_crash_rejected("trailing junk" "expected R@NS"
                      --fault-crash 2@1000zzz)
expect_crash_rejected("bad pair in list" "rank 7 out of range"
                      --fault-crash 1@500,7@900)
expect_crash_rejected("unknown recovery" "unknown --ft-recovery"
                      --ft-recovery nope)

# A well-formed schedule is accepted (exit 0).
execute_process(
  COMMAND ${MELSIM} --model NSR --ranks 4 --gen er --verts 50 --edges 200
          --fault-crash 1@50000 --ft-recovery shrink
  RESULT_VARIABLE ok_code
  OUTPUT_VARIABLE ok_out
  ERROR_VARIABLE ok_err)
if(NOT ok_code EQUAL 0)
  message(FATAL_ERROR "valid --fault-crash: expected exit 0, got ${ok_code}: ${ok_err}")
endif()

# --threads validation: same parse-time convention (exit 2, --help pointer,
# no graph work). The reuse of expect_crash_rejected is deliberate — every
# usage error shares one contract.
expect_crash_rejected("zero threads" "--threads: must be between 1 and 1024"
                      --threads 0)
expect_crash_rejected("negative threads" "--threads: must be between"
                      --threads -1)
expect_crash_rejected("non-numeric threads" "--threads: expected an integer"
                      --threads abc)
expect_crash_rejected("absurd threads" "--threads: must be between"
                      --threads 2000)

# --intra-node-params validation.
expect_crash_rejected("intra two fields" "expected L,O,G"
                      --intra-node-params 100,5)
expect_crash_rejected("intra four fields" "expected L,O,G"
                      --intra-node-params 100,5,0.1,9)
expect_crash_rejected("intra non-numeric" "L must be an integer"
                      --intra-node-params a,b,c)
expect_crash_rejected("intra zero latency" "must be positive"
                      --intra-node-params 0,5,0.1)
expect_crash_rejected("intra negative bandwidth" "G \\(ns/byte\\) must be"
                      --intra-node-params 100,5,-0.1)
# A rate that would overflow virtual time is outside the cost model's
# domain, checked by the Network before any graph work.
expect_crash_rejected("intra overflowing bandwidth"
                      "beta_intra must be at most net::kMaxRateNs"
                      --intra-node-params 600,400,1e300)

# --sample-interval validation: the gauge period must be a strictly
# positive integer, rejected at parse time before any graph work.
expect_crash_rejected("zero sample interval" "--sample-interval: must be a positive"
                      --trace /tmp/mel_si.json --sample-interval 0)
expect_crash_rejected("negative sample interval" "--sample-interval: must be a positive"
                      --trace /tmp/mel_si.json --sample-interval -5)
expect_crash_rejected("non-numeric sample interval" "--sample-interval: expected an integer"
                      --trace /tmp/mel_si.json --sample-interval abc)

# Malformed numbers: every numeric flag is read whole, so a value with a
# bad character is a usage error instead of its readable prefix (0,05 ran
# lossless, 1e4 built a 1-edge graph, abc an empty one), and --ranks 0 is
# rejected before any graph work.
expect_crash_rejected("decimal comma" "--fault-loss: expected a number"
                      --fault-loss 0,05)
expect_crash_rejected("exponent edge count" "--edges: expected an integer"
                      --edges 1e4)
expect_crash_rejected("non-numeric verts" "--verts: expected an integer"
                      --verts abc)
expect_crash_rejected("zero ranks" "--ranks: must be between 1 and 2147483647"
                      --ranks 0)

# Integer flags are range-checked before they are narrowed: each of these
# used to wrap silently (4294967298 retries ran as 2, 4294967297
# stragglers as 1, rmat scale 4294967306 as 10, dataset scale 4294967294
# as -2), and a negative horizon quietly turned the watchdog off.
expect_crash_rejected("wrapping retry max"
                      "--ft-retry-max: must be between 0 and 2147483647"
                      --ft-retry-max 4294967298)
expect_crash_rejected("wrapping stragglers"
                      "--chaos-stragglers: must be between 0 and 2147483647"
                      --chaos-stragglers 4294967297)
expect_crash_rejected("wrapping rmat scale"
                      "--gen-scale: must be between 1 and 2147483647"
                      --gen rmat --gen-scale 4294967306)
expect_crash_rejected("wrapping dataset scale"
                      "--scale: must be between -2147483648 and 2147483647"
                      --dataset HILO-1 --scale 4294967294)
expect_crash_rejected("negative watchdog horizon"
                      "--watchdog-horizon: must be between 0 and"
                      --watchdog-horizon -5)

# Output paths are probed for writability up front: an unwritable
# --trace/--metrics-jsonl/--host-profile-json destination is a usage error,
# not a failure after the whole simulation ran.
expect_crash_rejected("unwritable trace path" "--trace: cannot write"
                      --trace /no-such-dir/out.trace.json)
expect_crash_rejected("unwritable metrics path" "--metrics-jsonl: cannot write"
                      --metrics-jsonl /no-such-dir/out.metrics.jsonl)
expect_crash_rejected("unwritable host profile path"
                      "--host-profile-json: cannot write"
                      --host-profile-json /no-such-dir/profile.json)

# --threads 2 is accepted and the machine-readable summary is identical to
# the sequential run — the CLI-level face of the bit-identical guarantee.
execute_process(
  COMMAND ${MELSIM} --model NSR --ranks 8 --gen er --verts 100 --edges 400
          --threads 1 --csv
  RESULT_VARIABLE seq_code
  OUTPUT_VARIABLE seq_out
  ERROR_VARIABLE seq_err)
execute_process(
  COMMAND ${MELSIM} --model NSR --ranks 8 --gen er --verts 100 --edges 400
          --threads 2 --csv
  RESULT_VARIABLE thr_code
  OUTPUT_VARIABLE thr_out
  ERROR_VARIABLE thr_err)
if(NOT seq_code EQUAL 0 OR NOT thr_code EQUAL 0)
  message(FATAL_ERROR "--threads run failed: seq=${seq_code} thr=${thr_code}: ${thr_err}")
endif()
if(NOT seq_out STREQUAL thr_out)
  message(FATAL_ERROR "--threads 2 summary diverged from sequential:\n${seq_out}\nvs\n${thr_out}")
endif()

# Valid --intra-node-params values equal to the inter-node defaults are a
# no-op; cheaper values change virtual time (the NSR-HIER leader-hop lever).
execute_process(
  COMMAND ${MELSIM} --model NSR-HIER --ranks 8 --gen er --verts 100
          --edges 400 --intra-node-params 50,10,0.01 --csv
  RESULT_VARIABLE intra_code
  OUTPUT_VARIABLE intra_out
  ERROR_VARIABLE intra_err)
if(NOT intra_code EQUAL 0)
  message(FATAL_ERROR "valid --intra-node-params: expected exit 0, got ${intra_code}: ${intra_err}")
endif()

# --algo checks: an unknown algorithm, a model BFS/coloring do not run on, a
# match-only flag, or a --root that is no vertex is a usage error (exit 2,
# --help pointer), never a silent fallback.
function(expect_algo_rejected label expect_diag)
  execute_process(
    COMMAND ${MELSIM} --ranks 4 --gen er --verts 50 --edges 200 ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "${label}: expected exit 2, got ${code} (${err})")
  endif()
  if(NOT err MATCHES "${expect_diag}")
    message(FATAL_ERROR "${label}: missing diagnostic '${expect_diag}': ${err}")
  endif()
  if(NOT err MATCHES "--help")
    message(FATAL_ERROR "${label}: error must point at --help: ${err}")
  endif()
  if(out MATCHES "input:")
    message(FATAL_ERROR "${label}: ran before the check")
  endif()
endfunction()

expect_algo_rejected("unknown algo" "unknown --algo colour" --algo colour)
expect_algo_rejected("bfs on RMA" "--algo bfs runs on --model NSR or NCL only"
                     --algo bfs --model RMA)
expect_algo_rejected("color on NSR-AGG" "--algo color runs on --model NSR or NCL"
                     --algo color --model NSR-AGG)
expect_algo_rejected("bfs crash" "--fault-crash applies to --algo match only"
                     --algo bfs --model NSR --fault-crash 1@1000)
expect_algo_rejected("color edge balance" "--edge-balance applies to --algo match"
                     --algo color --model NCL --edge-balance)
expect_algo_rejected("negative root" "--root: expected a vertex id"
                     --algo bfs --model NSR --root -3)
expect_algo_rejected("non-numeric root" "--root: expected a vertex id"
                     --algo bfs --model NSR --root x1)
expect_algo_rejected("root past |V|" "--root 50 is not a vertex of the 50-vertex"
                     --algo bfs --model NSR --root 50)

# BFS and coloring run on the matcher's machine set-up, so --threads keeps
# their summaries identical too.
foreach(algo bfs color)
  execute_process(
    COMMAND ${MELSIM} --algo ${algo} --model NSR --ranks 8 --gen er --verts 100
            --edges 400 --threads 1
    RESULT_VARIABLE a_seq_code
    OUTPUT_VARIABLE a_seq_out)
  execute_process(
    COMMAND ${MELSIM} --algo ${algo} --model NSR --ranks 8 --gen er --verts 100
            --edges 400 --threads 4
    RESULT_VARIABLE a_thr_code
    OUTPUT_VARIABLE a_thr_out)
  if(NOT a_seq_code EQUAL 0 OR NOT a_thr_code EQUAL 0)
    message(FATAL_ERROR "${algo} --threads run failed: ${a_seq_code} ${a_thr_code}")
  endif()
  if(NOT a_seq_out STREQUAL a_thr_out)
    message(FATAL_ERROR "${algo} --threads 4 diverged:\n${a_seq_out}\nvs\n${a_thr_out}")
  endif()
endforeach()

# --matrix writes one CSV row per rank, bytes sent to each rank, for every
# algorithm; an unwritable path is rejected before any graph work.
set(workdir "${CMAKE_CURRENT_BINARY_DIR}/melsim_cli_work")
file(MAKE_DIRECTORY ${workdir})
foreach(algo match bfs color)
  expect_algo_rejected("${algo} unwritable matrix" "--matrix: cannot write"
                       --algo ${algo} --model NSR --matrix /no-such-dir/m.csv)
  set(csv ${workdir}/${algo}.matrix.csv)
  file(REMOVE ${csv})
  execute_process(
    COMMAND ${MELSIM} --algo ${algo} --model NSR --ranks 4 --gen er
            --verts 100 --edges 400 --matrix ${csv}
    RESULT_VARIABLE m_code
    ERROR_VARIABLE m_err)
  if(NOT m_code EQUAL 0)
    message(FATAL_ERROR "${algo} --matrix: expected exit 0, got ${m_code}: ${m_err}")
  endif()
  if(NOT EXISTS ${csv})
    message(FATAL_ERROR "${algo} --matrix: no CSV written")
  endif()
  file(STRINGS ${csv} rows)
  list(LENGTH rows nrows)
  if(NOT nrows EQUAL 4)
    message(FATAL_ERROR "${algo} --matrix: expected 4 rows, got ${nrows}")
  endif()
  foreach(row IN LISTS rows)
    if(NOT row MATCHES "^[0-9]+,[0-9]+,[0-9]+,[0-9]+$")
      message(FATAL_ERROR "${algo} --matrix: malformed row '${row}'")
    endif()
  endforeach()
  if(NOT rows MATCHES "[1-9]")
    message(FATAL_ERROR "${algo} --matrix: every entry is zero")
  endif()
endforeach()

# A destination that opens but cannot take the bytes fails the run: the
# write and the close are checked, so a lost output file never exits 0.
# The metrics file here is smaller than the stream buffer, so only the
# close sees the full device.
if(EXISTS /dev/full)
  foreach(flag metrics-jsonl matrix host-profile-json)
    set(extra)
    if(flag STREQUAL "metrics-jsonl")
      set(extra --sample-interval 100000000)
    endif()
    execute_process(
      COMMAND ${MELSIM} --algo match --model NCL --ranks 2 --gen er --verts 8
              --edges 4 ${extra} --${flag} /dev/full
      RESULT_VARIABLE full_code
      OUTPUT_VARIABLE full_out
      ERROR_VARIABLE full_err)
    if(NOT full_code EQUAL 2)
      message(FATAL_ERROR "--${flag} /dev/full: expected exit 2, got ${full_code}: ${full_out}${full_err}")
    endif()
    if(NOT full_err MATCHES "--${flag}: cannot write \"/dev/full\"")
      message(FATAL_ERROR "--${flag} /dev/full: error must name the path: ${full_err}")
    endif()
  endforeach()
endif()

# Output files are written whole or not at all. Under a file-size limit
# below the trace's size (SIGXFSZ ignored, so the write fails with EFBIG),
# melsim exits 2 naming the path, creates no file at a new path, leaves an
# existing file's bytes as they were, and leaves no temporary behind.
find_program(SH_PROGRAM sh)
if(SH_PROGRAM)
  set(partial_dir ${workdir}/partial)
  file(REMOVE_RECURSE ${partial_dir})
  file(MAKE_DIRECTORY ${partial_dir})
  set(old_bytes "the bytes of an earlier run\n")
  file(WRITE ${partial_dir}/old.json "${old_bytes}")
  foreach(name new.json old.json)
    set(path ${partial_dir}/${name})
    execute_process(
      COMMAND ${SH_PROGRAM} -c "trap '' XFSZ; ulimit -f 64; exec \"$0\" \"$@\""
              ${MELSIM} --algo match --model NSR --ranks 16 --gen rgg
              --verts 2048 --trace ${path}
      RESULT_VARIABLE cut_code
      OUTPUT_VARIABLE cut_out
      ERROR_VARIABLE cut_err)
    if(NOT cut_code EQUAL 2)
      message(FATAL_ERROR "--trace ${name} over the size limit: expected exit 2, got ${cut_code}: ${cut_out}${cut_err}")
    endif()
    if(NOT cut_err MATCHES "--trace: cannot write \"${path}\"")
      message(FATAL_ERROR "--trace ${name} over the size limit: error must name the path: ${cut_err}")
    endif()
  endforeach()
  if(EXISTS ${partial_dir}/new.json)
    file(SIZE ${partial_dir}/new.json new_size)
    message(FATAL_ERROR "a failed --trace left a ${new_size}-byte partial file")
  endif()
  file(READ ${partial_dir}/old.json now_bytes)
  if(NOT now_bytes STREQUAL old_bytes)
    message(FATAL_ERROR "a failed --trace changed the existing file: '${now_bytes}'")
  endif()
  file(GLOB left RELATIVE ${partial_dir} ${partial_dir}/*)
  if(NOT left STREQUAL "old.json")
    message(FATAL_ERROR "a failed --trace left files behind: ${left}")
  endif()
endif()

# The trace line counts the flows the trace holds, one "ph":"s" record
# each. Flow ids are strided per rank, so ranks that send unevenly leave
# ids that no message took, and those are not flows.
set(flows_trace ${workdir}/flows.trace.json)
execute_process(
  COMMAND ${MELSIM} --algo match --model NSR --ranks 8 --gen er --verts 200
          --edges 800 --trace ${flows_trace}
  RESULT_VARIABLE flows_code
  OUTPUT_VARIABLE flows_out
  ERROR_VARIABLE flows_err)
if(NOT flows_code EQUAL 0 OR
   NOT flows_out MATCHES "trace: [0-9]+ spans, ([0-9]+) flows")
  message(FATAL_ERROR "--trace: expected exit 0 and a trace line, got ${flows_code}: ${flows_out}${flows_err}")
endif()
set(printed_flows ${CMAKE_MATCH_1})
file(READ ${flows_trace} flows_json)
string(REGEX MATCHALL "\"ph\":\"s\"" flow_starts "${flows_json}")
list(LENGTH flow_starts written_flows)
if(NOT printed_flows EQUAL written_flows)
  message(FATAL_ERROR "the trace line counts ${printed_flows} flows, the trace holds ${written_flows}")
endif()
file(REMOVE ${flows_trace})

# A Matrix Market header declaring 2^40 vertices is refused by name, with
# the count and the limit, before the reader allocates anything for it.
set(huge_mtx ${workdir}/huge.mtx)
file(WRITE ${huge_mtx}
  "%%MatrixMarket matrix coordinate real general\n1099511627776 1099511627776 1\n1 2 1.0\n")
execute_process(
  COMMAND ${MELSIM} --model NSR --ranks 4 --mtx ${huge_mtx}
  RESULT_VARIABLE huge_code
  OUTPUT_VARIABLE huge_out
  ERROR_VARIABLE huge_err)
if(NOT huge_code EQUAL 2)
  message(FATAL_ERROR "2^40-vertex mtx: expected exit 2, got ${huge_code}: ${huge_err}")
endif()
if(NOT huge_err MATCHES "1099511627776 vertices, above the limit of 2147483648")
  message(FATAL_ERROR "2^40-vertex mtx: missing count and limit: ${huge_err}")
endif()
if(huge_out MATCHES "input:")
  message(FATAL_ERROR "2^40-vertex mtx: a graph was built")
endif()

# Generator inputs: 32 SBP blocks over 100 vertices leave trailing blocks
# empty and must still build, and a negative edge count is refused by the
# generator's name instead of failing inside std::vector::reserve.
execute_process(
  COMMAND ${MELSIM} --model NSR --ranks 4 --gen sbp --verts 100
  RESULT_VARIABLE sbp_code
  OUTPUT_VARIABLE sbp_out
  ERROR_VARIABLE sbp_err)
if(NOT sbp_code EQUAL 0 OR NOT sbp_out MATCHES "input: \\|V\\|=100 ")
  message(FATAL_ERROR "--gen sbp --verts 100: expected exit 0, got ${sbp_code}: ${sbp_err}")
endif()
execute_process(
  COMMAND ${MELSIM} --model NSR --ranks 4 --gen er --verts 50 --edges -3
  RESULT_VARIABLE neg_code
  OUTPUT_VARIABLE neg_out
  ERROR_VARIABLE neg_err)
if(NOT neg_code EQUAL 2 OR NOT neg_err MATCHES "erdos_renyi")
  message(FATAL_ERROR "--edges -3: expected exit 2 naming erdos_renyi, got ${neg_code}: ${neg_err}")
endif()
