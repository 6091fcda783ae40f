# Runs one simulator bench and compares its stdout byte-for-byte with the
# committed golden table. The paper reproduction is deterministic, so any
# difference is a behaviour change.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DACTUAL=<file> -P check_golden.cmake
#
# On a mismatch the actual output is left in ACTUAL for `diff`.
execute_process(COMMAND "${BENCH}"
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(READ "${GOLDEN}" golden)
if(NOT actual STREQUAL golden)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR "output differs from ${GOLDEN}; see: diff ${GOLDEN} ${ACTUAL}")
endif()
