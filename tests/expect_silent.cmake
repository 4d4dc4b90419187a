# Quiet-mode check: run BENCH with --quiet --no-json and ARGS (a ;-list);
# require exit code 0 and nothing at all on stdout.
#   cmake -DBENCH=<exe> -DARGS=<a;b> -P expect_silent.cmake
execute_process(
  COMMAND ${BENCH} --quiet --no-json ${ARGS}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 60)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with '${rc}'\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "${BENCH} --quiet wrote to stdout:\n${out}")
endif()
