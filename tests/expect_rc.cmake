# Exit-code check: run BENCH with ARGS (a ;-list) and require exit code RC.
#   cmake -DBENCH=<exe> -DARGS=<a;b> -DRC=<n> -P expect_rc.cmake
execute_process(
  COMMAND ${BENCH} --quiet --no-json ${ARGS}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err
  TIMEOUT 20)
if(NOT rc STREQUAL "${RC}")
  string(REPLACE ";" " " args "${ARGS}")
  message(FATAL_ERROR "${BENCH} ${args} exited with '${rc}', expected ${RC}\n${err}")
endif()
