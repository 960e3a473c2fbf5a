# CLI contract for the benches and examples, run as a CTest script: a
# malformed flag value exits 2 with "PROGRAM: --FLAG: ..." on stderr,
# not with an uncaught exception.
# Invoked with -DBENCH=<bench_fig04a_weak_rgg> -DEXAMPLE=<quickstart>.
if(NOT DEFINED BENCH OR NOT DEFINED EXAMPLE)
  message(FATAL_ERROR "pass -DBENCH=<bench binary> -DEXAMPLE=<example binary>")
endif()

foreach(case "${BENCH};bench_fig04a_weak_rgg;--ranks;x,y"
             "${EXAMPLE};quickstart;--verts;abc")
  list(GET case 0 program)
  list(GET case 1 name)
  list(GET case 2 flag)
  list(GET case 3 value)
  execute_process(COMMAND ${program} ${flag} ${value}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 2 OR NOT err MATCHES "^${name}: ${flag}: expected .*\"${value}\"")
    message(FATAL_ERROR "${name} ${flag} ${value}: exit ${code}: ${out}${err}")
  endif()
endforeach()
