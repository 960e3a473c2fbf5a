# CLI contract for the benches and examples, run as a CTest script: a
# malformed flag value, or an option the program does not read, exits 2
# with "PROGRAM: --FLAG: ..." on stderr, not with an uncaught exception or
# a run of the defaults.
# Invoked with -DBENCH=<bench_fig04a_weak_rgg> -DWHATIF=<bench_replay_whatif>
# -DEXAMPLE=<quickstart>.
if(NOT DEFINED BENCH OR NOT DEFINED WHATIF OR NOT DEFINED EXAMPLE)
  message(FATAL_ERROR "pass -DBENCH=<bench binary> -DWHATIF=<bench binary> "
                      "-DEXAMPLE=<example binary>")
endif()

foreach(case "${BENCH};bench_fig04a_weak_rgg;--ranks;x,y;malformed"
             "${WHATIF};bench_replay_whatif;--mode;x;malformed"
             "${EXAMPLE};quickstart;--verts;abc;malformed"
             "${BENCH};bench_fig04a_weak_rgg;--rank;16;unknown"
             "${EXAMPLE};quickstart;--vert;10;unknown")
  list(GET case 0 program)
  list(GET case 1 name)
  list(GET case 2 flag)
  list(GET case 3 value)
  list(GET case 4 kind)
  if(kind STREQUAL "unknown")
    set(want "^${name}: ${flag}: unknown option")
  else()
    set(want "^${name}: ${flag}: expected .*\"${value}\"")
  endif()
  execute_process(COMMAND ${program} ${flag} ${value}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 2 OR NOT err MATCHES "${want}")
    message(FATAL_ERROR "${name} ${flag} ${value}: exit ${code}: ${out}${err}")
  endif()
endforeach()
