# CLI + behavior contract for melcheck, run as a CTest script:
#   * --help exits 0 and documents the exit-code contract,
#   * unknown flags / unknown models / degenerate rank counts / malformed
#     numbers exit 2,
#   * a small clean sweep exits 0 and reports every schedule clean,
#   * the same sweep run twice is bit-identical (JSONL diffed),
#   * a planted bug flips the exit to 1 and prints a minimized schedule as
#     a melsim-compatible command line (the self-test of the checker), and
#     melsim run on that line rebuilds melcheck's graph.
# Invoked with -DMELCHECK=<path-to-binary> -DMELSIM=<path-to-binary>.
if(NOT DEFINED MELCHECK OR NOT DEFINED MELSIM)
  message(FATAL_ERROR "pass -DMELCHECK=<melcheck binary> -DMELSIM=<melsim binary>")
endif()

execute_process(
  COMMAND ${MELCHECK} --help
  RESULT_VARIABLE help_code
  OUTPUT_VARIABLE help_out)
if(NOT help_code EQUAL 0)
  message(FATAL_ERROR "--help: expected exit 0, got ${help_code}")
endif()
if(NOT help_out MATCHES "exit 1: violation")
  message(FATAL_ERROR "--help must document the exit-code contract")
endif()

execute_process(
  COMMAND ${MELCHECK} --no-such-flag
  RESULT_VARIABLE unk_code
  ERROR_VARIABLE unk_err)
if(NOT unk_code EQUAL 2 OR NOT unk_err MATCHES "--help")
  message(FATAL_ERROR "unknown flag: expected exit 2 + --help pointer, "
                      "got ${unk_code}: ${unk_err}")
endif()

execute_process(
  COMMAND ${MELCHECK} --models NSR,NO-SUCH-MODEL --schedules 1
  RESULT_VARIABLE model_code
  ERROR_VARIABLE model_err)
if(NOT model_code EQUAL 2 OR NOT model_err MATCHES "unknown model")
  message(FATAL_ERROR "unknown model: expected exit 2, got ${model_code}: "
                      "${model_err}")
endif()

execute_process(
  COMMAND ${MELCHECK} --ranks 1 --schedules 1
  RESULT_VARIABLE ranks_code
  ERROR_VARIABLE ranks_err)
if(NOT ranks_code EQUAL 2 OR NOT ranks_err MATCHES "fault space")
  message(FATAL_ERROR "--ranks 1: expected exit 2, got ${ranks_code}: "
                      "${ranks_err}")
endif()

# 2^32 + 2 does not fit an int; it must not wrap to a 2-rank sweep.
execute_process(
  COMMAND ${MELCHECK} --ranks 4294967298 --schedules 1
  RESULT_VARIABLE wide_code
  OUTPUT_VARIABLE wide_out
  ERROR_VARIABLE wide_err)
if(NOT wide_code EQUAL 2 OR wide_out MATCHES "schedules clean"
   OR NOT wide_err MATCHES "4294967298")
  message(FATAL_ERROR "--ranks 4294967298: expected exit 2, got ${wide_code}: "
                      "${wide_err}")
endif()

# A malformed number is a usage error, not the readable prefix of it
# ("abc" used to explore 0 schedules and exit 0).
execute_process(
  COMMAND ${MELCHECK} --schedules abc
  RESULT_VARIABLE num_code
  OUTPUT_VARIABLE num_out
  ERROR_VARIABLE num_err)
if(NOT num_code EQUAL 2 OR num_out MATCHES "schedules clean"
   OR NOT num_err MATCHES "--schedules: expected an integer"
   OR NOT num_err MATCHES "--help")
  message(FATAL_ERROR "--schedules abc: expected exit 2 + --help pointer, "
                      "got ${num_code}: ${num_err}")
endif()

# --schedules 0 still runs the fault-free baselines alone (exit 0).
execute_process(
  COMMAND ${MELCHECK} --schedules 0 --verts 120 --edges 600 --models NSR
  RESULT_VARIABLE zero_code
  OUTPUT_VARIABLE zero_out)
if(NOT zero_code EQUAL 0 OR NOT zero_out MATCHES "0/0 schedules clean")
  message(FATAL_ERROR "--schedules 0: expected exit 0, got ${zero_code}: "
                      "${zero_out}")
endif()

# Clean sweep: 14 schedules cover both wire-fault and crash classes at the
# default ten models. Exit 0, every schedule clean.
execute_process(
  COMMAND ${MELCHECK} --schedules 14 --seed 11 --verts 120 --edges 600
          --models NSR,RMA --json
  RESULT_VARIABLE a_code
  OUTPUT_VARIABLE a_out)
if(NOT a_code EQUAL 0)
  message(FATAL_ERROR "clean sweep: expected exit 0, got ${a_code}")
endif()
string(REGEX MATCHALL "\"ok\":true" oks "${a_out}")
list(LENGTH oks n_ok)
if(NOT n_ok EQUAL 14)
  message(FATAL_ERROR "clean sweep: expected 14 ok schedules, got ${n_ok}")
endif()

# Bit-identical reproducibility: same flags, byte-equal JSONL.
execute_process(
  COMMAND ${MELCHECK} --schedules 14 --seed 11 --verts 120 --edges 600
          --models NSR,RMA --json
  RESULT_VARIABLE b_code
  OUTPUT_VARIABLE b_out)
if(NOT b_out STREQUAL a_out)
  message(FATAL_ERROR "two identical sweeps produced different bytes")
endif()

# Planted bug: exit 1 and a minimized melsim-compatible reproduction line.
execute_process(
  COMMAND ${MELCHECK} --schedules 4 --seed 11 --verts 120 --edges 600
          --models NSR,RMA --plant-bug unmatch
  RESULT_VARIABLE bug_code
  OUTPUT_VARIABLE bug_out
  ERROR_VARIABLE bug_err)
if(NOT bug_code EQUAL 1)
  message(FATAL_ERROR "planted bug: expected exit 1, got ${bug_code}")
endif()
if(NOT bug_err MATCHES "minimized schedule")
  message(FATAL_ERROR "planted bug: missing minimized schedule: ${bug_err}")
endif()
if(NOT bug_err MATCHES "melsim --algo match --model")
  message(FATAL_ERROR "planted bug: reproduction line must be melsim flags: "
                      "${bug_err}")
endif()

# The reproduction line must rebuild melcheck's graph: melsim's input line
# reports the same |V| and |E| as melcheck's header.
string(REGEX MATCH "\\|V\\|=[0-9]+ \\|E\\|=[0-9]+" check_graph "${bug_out}")
if(NOT check_graph)
  message(FATAL_ERROR "planted bug: no |V|/|E| in melcheck's header: ${bug_out}")
endif()
string(REGEX MATCH "melsim (--algo match[^\n]*)" repro_line "${bug_err}")
separate_arguments(repro_args UNIX_COMMAND "${CMAKE_MATCH_1}")
execute_process(
  COMMAND ${MELSIM} ${repro_args}
  RESULT_VARIABLE repro_code
  OUTPUT_VARIABLE repro_out
  ERROR_VARIABLE repro_err)
string(REGEX MATCH "\\|V\\|=[0-9]+ \\|E\\|=[0-9]+" sim_graph "${repro_out}")
if(NOT repro_code EQUAL 0 OR NOT sim_graph STREQUAL check_graph)
  message(FATAL_ERROR "reproduction line: melsim exited ${repro_code} with "
                      "'${sim_graph}', melcheck had '${check_graph}': "
                      "${repro_line} ${repro_err}")
endif()
