# CLI contract for meltrace, run as a CTest script:
#   * every subcommand (validate, summarize, matrix, diff, replay,
#     critical) runs against a freshly recorded trace and exits 0,
#   * unknown flags, unknown commands and a --top that is not a positive
#     integer exit 2,
#   * --json output is deterministic (byte-identical across invocations)
#     and carries the expected schema tag,
#   * `replay` with no --set is a fidelity self-check (exit 0 and says
#     "fidelity exact") for NSR, RMA, and NCL traces, and for BFS and
#     coloring traces,
#   * `replay --set` rejects unknown parameters (exit 2) and accepts
#     LogGP aliases (net.L_intra),
#   * `replay --set` rejects values outside the cost model's domain
#     (non-finite, or a rate that would overflow virtual time) and names
#     a malformed value (exit 2),
#   * a wire rank outside the run fails validate (exit 1) and matrix
#     (exit 2) naming the event,
#   * a header rank count outside [1, 2^31 - 1] fails validate and is
#     read as absent, so summarize and matrix never see it wrapped, and
#     replay and critical exit 2 naming the range,
#   * a tid outside [-1, 2^31) fails validate naming the event, and
#     summarize never sees it wrapped; replay skips an event whose tid no
#     int holds and drops a flow whose dst or tag no int holds,
#   * a negative byte count fails validate, and replay drops that flow
#     instead of pricing 2^64 - 1 bytes,
#   * a seed above 2^63 (`melsim --seed -1` records 2^64 - 1) replays
#     and prints exactly.
# Invoked with -DMELSIM=<path> -DMELTRACE=<path>.
if(NOT DEFINED MELSIM OR NOT DEFINED MELTRACE)
  message(FATAL_ERROR "pass -DMELSIM=<melsim binary> -DMELTRACE=<meltrace binary>")
endif()

set(workdir "${CMAKE_CURRENT_BINARY_DIR}/meltrace_cli_work")
file(MAKE_DIRECTORY ${workdir})

# Record one self-contained trace per representative backend family.
foreach(model NSR RMA NCL)
  execute_process(
    COMMAND ${MELSIM} --model ${model} --ranks 8 --gen er --verts 120
            --edges 700 --trace ${workdir}/${model}.trace.json
            --sample-interval 50000
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "recording ${model} trace failed (${code}): ${err}")
  endif()
endforeach()
set(nsr ${workdir}/NSR.trace.json)
set(rma ${workdir}/RMA.trace.json)
set(ncl ${workdir}/NCL.trace.json)

function(run_ok label expect_out)
  execute_process(
    COMMAND ${MELTRACE} ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${label}: expected exit 0, got ${code}: ${err}")
  endif()
  if(NOT "${expect_out}" STREQUAL "" AND NOT out MATCHES "${expect_out}")
    message(FATAL_ERROR "${label}: output missing '${expect_out}':\n${out}")
  endif()
  set(last_out "${out}" PARENT_SCOPE)
endfunction()

function(run_rejected label)
  execute_process(
    COMMAND ${MELTRACE} ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "${label}: expected exit 2, got ${code}: ${out}${err}")
  endif()
endfunction()

# All six subcommands succeed against a real trace.
run_ok("validate" "OK" validate ${nsr})
run_ok("summarize" "validation: clean" summarize ${nsr} --top 5)
run_ok("summarize json" "mel.summary/1" summarize ${nsr} --json)
run_ok("matrix" "\"nranks\"" matrix ${nsr})
run_ok("diff" "flows" diff ${nsr} ${ncl})
run_ok("critical" "class breakdown" critical ${nsr} --top 5)
run_ok("critical json" "mel.critical/1" critical ${nsr} --json)
run_ok("help" "usage: meltrace" help)

# Replay fidelity: exit 0 and an explicit "fidelity exact" verdict for
# every backend family's trace.
foreach(trace ${nsr} ${rma} ${ncl})
  run_ok("replay fidelity ${trace}" "fidelity exact" replay ${trace})
endforeach()

# BFS and coloring record through the same machine set-up as matching, so
# their traces validate and replay exactly too.
foreach(run "bfs;NSR" "color;NCL")
  list(GET run 0 algo)
  list(GET run 1 model)
  set(trace ${workdir}/${algo}-${model}.trace.json)
  execute_process(
    COMMAND ${MELSIM} --algo ${algo} --model ${model} --ranks 8 --gen er
            --verts 120 --edges 700 --trace ${trace}
    RESULT_VARIABLE code
    ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "recording ${algo} ${model} trace failed (${code}): ${err}")
  endif()
  run_ok("validate ${algo}" "OK" validate ${trace})
  run_ok("replay fidelity ${algo}" "fidelity exact" replay ${trace})
endforeach()
run_ok("replay fidelity json" "\"mode\":\"fidelity\"" replay ${nsr} --json)

# What-if replay: substituted params are echoed and re-priced; the LogGP
# alias L_intra resolves to alpha_intra.
run_ok("replay whatif" "what-if replay" replay ${nsr}
       --set net.alpha_intra=1800)
run_ok("replay whatif alias" "alpha_intra" replay ${nsr}
       --set net.L_intra=1800)
run_ok("replay whatif json" "\"mode\":\"whatif\"" replay ${nsr}
       --set net.alpha_intra=1800 --json)

# Determinism: JSON output is byte-identical across invocations.
foreach(args "summarize;${nsr};--json" "critical;${nsr};--json"
        "replay;${nsr};--json" "matrix;${nsr}")
  execute_process(COMMAND ${MELTRACE} ${args} OUTPUT_VARIABLE out1
                  RESULT_VARIABLE c1)
  execute_process(COMMAND ${MELTRACE} ${args} OUTPUT_VARIABLE out2
                  RESULT_VARIABLE c2)
  if(NOT c1 EQUAL 0 OR NOT c2 EQUAL 0 OR NOT out1 STREQUAL out2)
    message(FATAL_ERROR "nondeterministic output for: ${args}")
  endif()
endforeach()

# Usage errors: unknown commands, unknown flags, malformed --set, and
# missing operands all exit 2.
run_rejected("unknown command" frobnicate ${nsr})
run_rejected("validate unknown flag" validate ${nsr} --bogus)
run_rejected("summarize unknown flag" summarize ${nsr} --bogus)
run_rejected("matrix extra operand" matrix ${nsr} extra)
run_rejected("diff one trace" diff ${nsr})
run_rejected("replay unknown flag" replay ${nsr} --bogus)
run_rejected("replay unknown param" replay ${nsr} --set net.bogus=1)
run_rejected("replay malformed set" replay ${nsr} --set alpha_intra)
run_rejected("replay bad value" replay ${nsr} --set alpha_intra=abc)
run_rejected("replay fractional int field" replay ${nsr} --set o_send=1.5)
foreach(value 1e300 nan inf 1e12)
  run_rejected("replay G_intra=${value}" replay ${nsr}
               --set net.G_intra=${value})
endforeach()
run_rejected("replay overflowing latency" replay ${nsr}
             --set net.L_inter=1e300)
execute_process(COMMAND ${MELTRACE} replay ${nsr} --set net.L_inter=abc
                ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT err MATCHES "bad value 'abc' for L_inter")
  message(FATAL_ERROR "--set with a malformed value is not named: ${err}")
endif()
run_rejected("replay missing trace" replay)
run_rejected("critical unknown flag" critical ${nsr} --bogus)
run_rejected("critical missing trace" critical)
run_rejected("summarize negative top" summarize ${nsr} --top -3)
run_rejected("summarize non-numeric top" summarize ${nsr} --top abc)
run_rejected("summarize top with suffix" summarize ${nsr} --top 5x)
run_rejected("critical zero top" critical ${nsr} --top 0)
execute_process(COMMAND ${MELTRACE} summarize ${nsr} --top -3
                ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT err MATCHES "positive integer.*meltrace --help")
  message(FATAL_ERROR "bad --top lacks a --help pointer: ${err}")
endif()
run_rejected("replay nonexistent file" replay ${workdir}/no-such.json)

# A wire event naming a rank outside the run is a violation (validate
# exits 1), and matrix refuses the trace naming the event (exit 2, no
# output) instead of indexing a dense matrix with the rank.
foreach(src -1 -5000000 3000000000)
  set(trace ${workdir}/wire${src}.json)
  file(WRITE ${trace} "{\"traceEvents\":[{\"name\":\"wire\",\"cat\":\"wire\","
                      "\"ph\":\"i\",\"ts\":1.000,\"pid\":0,\"tid\":0,\"s\":\"t\","
                      "\"args\":{\"src\":${src},\"dst\":0,\"bytes\":8}}]}")
  set(violation "wire src ${src} outside \\[0, 2147483648\\) \\(event 0\\)")
  execute_process(COMMAND ${MELTRACE} validate ${trace}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 1 OR NOT out MATCHES "${violation}")
    message(FATAL_ERROR "validate, wire src ${src}: exit ${code}: ${out}${err}")
  endif()
  execute_process(COMMAND ${MELTRACE} matrix ${trace}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 2 OR NOT out STREQUAL "" OR
     NOT err MATCHES "no comm matrix: ${violation}")
    message(FATAL_ERROR "matrix, wire src ${src}: exit ${code}: ${out}${err}")
  endif()
endforeach()

# A tid outside [-1, 2^31) is a violation naming the event (-1 is the tid
# melsim gives run-wide instants), and summarize leaves the event out:
# 4294967297 does not wrap to rank 1.
foreach(tid -2 2147483648 4294967297)
  set(trace ${workdir}/tid${tid}.json)
  file(WRITE ${trace} "{\"traceEvents\":[{\"name\":\"compute\",\"cat\":\"op\","
                      "\"ph\":\"X\",\"ts\":1.000,\"pid\":0,\"tid\":${tid},"
                      "\"dur\":1.000}]}")
  execute_process(COMMAND ${MELTRACE} validate ${trace}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 1 OR
     NOT out MATCHES "tid ${tid} outside \\[-1, 2147483648\\) \\(event 0\\)")
    message(FATAL_ERROR "validate, tid ${tid}: exit ${code}: ${out}${err}")
  endif()
  run_ok("summarize, tid ${tid}" "\"max_rank\":-1,.*\"spans_by_rank\":{}"
         summarize ${trace} --json)
endforeach()
set(trace ${workdir}/tid-1.json)
file(WRITE ${trace} "{\"traceEvents\":[{\"name\":\"checkpoint\",\"cat\":\"instant\","
                    "\"ph\":\"i\",\"ts\":1.000,\"pid\":0,\"tid\":-1,"
                    "\"s\":\"t\"}]}")
run_ok("validate, tid -1" "OK" validate ${trace})

# Replay keeps a flow on an 8-rank trace only when its tid, dst and tag
# fit an int: none of them wraps into the run's range.
file(READ ${nsr} text)
string(FIND "${text}" "\"otherData\":" at)
string(SUBSTRING "${text}" ${at} -1 header)
foreach(case "0;1;0;1" "4294967296;1;0;0" "0;4294967297;0;0" "0;9;0;0"
             "0;1;4294967296;0")
  list(GET case 0 tid)
  list(GET case 1 dst)
  list(GET case 2 tag)
  list(GET case 3 replayed)
  set(trace ${workdir}/flow-${tid}-${dst}-${tag}.json)
  file(WRITE ${trace} "{\"traceEvents\":[{\"name\":\"p2p\",\"cat\":\"flow\","
                      "\"ph\":\"s\",\"ts\":1.000,\"pid\":0,\"tid\":${tid},"
                      "\"id\":1,\"args\":{\"src\":0,\"dst\":${dst},"
                      "\"tag\":${tag},\"bytes\":8}},"
                      "{\"name\":\"p2p\",\"cat\":\"flow\",\"ph\":\"f\","
                      "\"ts\":2.000,\"pid\":0,\"tid\":1,\"bp\":\"e\",\"id\":1}],"
                      "${header}")
  run_ok("replay, tid ${tid} dst ${dst} tag ${tag}"
         "flows replayed: ${replayed}\n" replay ${trace})
endforeach()

# A header rank count outside [1, 2^31 - 1] is a violation and then reads
# as absent: 4294967300 does not wrap to 4.
set(trace ${workdir}/ranks-wrap.json)
file(WRITE ${trace} "{\"traceEvents\":[{\"name\":\"wire\",\"cat\":\"wire\","
                    "\"ph\":\"i\",\"ts\":1.000,\"pid\":0,\"tid\":0,\"s\":\"t\","
                    "\"args\":{\"src\":1,\"dst\":0,\"bytes\":8}}],"
                    "\"otherData\":{\"ranks\":4294967300}}")
execute_process(COMMAND ${MELTRACE} validate ${trace}
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 1 OR
   NOT out MATCHES "otherData.ranks outside \\[1, 2147483647\\]")
  message(FATAL_ERROR "validate, ranks 4294967300: exit ${code}: ${out}${err}")
endif()
run_ok("summarize, ranks 4294967300" "\"nranks\":0," summarize ${trace} --json)
run_ok("matrix, ranks 4294967300" "^{\"nranks\":2," matrix ${trace})

# On a real 8-rank trace, a header rank count outside [1, 2^31 - 1] makes
# replay and critical exit 2 with validate's message: -4294967291 does not
# wrap to 5 ranks, and 4294967301 is not read as a missing count.
file(READ ${nsr} text)
foreach(ranks -4294967291 4294967301)
  string(REPLACE "\"ranks\":8," "\"ranks\":${ranks}," edited "${text}")
  set(trace ${workdir}/header-ranks${ranks}.json)
  file(WRITE ${trace} "${edited}")
  foreach(cmd validate replay critical)
    execute_process(COMMAND ${MELTRACE} ${cmd} ${trace}
                    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
    set(want 2)
    if(cmd STREQUAL "validate")
      set(want 1)
    endif()
    if(NOT code EQUAL want OR
       NOT "${out}${err}" MATCHES "otherData.ranks outside \\[1, 2147483647\\]")
      message(FATAL_ERROR "${cmd}, header ranks ${ranks}: exit ${code}: ${out}${err}")
    endif()
  endforeach()
endforeach()

# A flow begin with a negative byte count fails validate, and a what-if
# replay drops the flow rather than pricing it as 2^64 - 1 bytes.
file(READ ${nsr} text)
string(FIND "${text}" "\"otherData\":" at)
string(SUBSTRING "${text}" ${at} -1 header)
set(trace ${workdir}/bytes-negative.json)
file(WRITE ${trace} "{\"traceEvents\":[{\"name\":\"p2p\",\"cat\":\"flow\","
                    "\"ph\":\"s\",\"ts\":1.000,\"pid\":0,\"tid\":0,\"id\":1,"
                    "\"args\":{\"src\":0,\"dst\":1,\"tag\":0,\"bytes\":-1}},"
                    "{\"name\":\"p2p\",\"cat\":\"flow\",\"ph\":\"f\","
                    "\"ts\":2.000,\"pid\":0,\"tid\":1,\"bp\":\"e\",\"id\":1}],"
                    "${header}")
execute_process(COMMAND ${MELTRACE} validate ${trace}
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 1 OR
   NOT out MATCHES "flow 1 with negative args.bytes \\(event 0\\)")
  message(FATAL_ERROR "validate, bytes -1: exit ${code}: ${out}${err}")
endif()
run_ok("replay, bytes -1" "what-if replay" replay ${trace}
       --set net.beta_intra=1000000)

# melsim takes the seed as a uint64, so --seed -1 records 2^64 - 1, which
# no int64 holds; replay and critical print it whole.
execute_process(
  COMMAND ${MELSIM} --model NSR --ranks 8 --gen er --verts 120 --edges 700
          --seed -1 --trace ${workdir}/seed.trace.json
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "recording the --seed -1 trace failed (${code}): ${err}")
endif()
run_ok("replay, seed 2^64 - 1" "fidelity exact .*seed 18446744073709551615\\)"
       replay ${workdir}/seed.trace.json)
run_ok("critical, seed 2^64 - 1" "seed 18446744073709551615\n"
       critical ${workdir}/seed.trace.json)

# A schema-less trace (plain Chrome JSON) is rejected with a pointer at
# re-recording, not a crash.
file(WRITE ${workdir}/bare.json "{\"traceEvents\":[]}")
run_rejected("replay schema-less trace" replay ${workdir}/bare.json)
run_rejected("critical schema-less trace" critical ${workdir}/bare.json)
