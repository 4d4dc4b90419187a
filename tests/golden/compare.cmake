# Golden-artifact check: run BENCH with ARGS (a ;-list), writing its JSON
# artifact to OUT, and byte-compare OUT against the checked-in GOLDEN.
#   cmake -DBENCH=<exe> -DARGS=<a;b> -DOUT=<file> -DGOLDEN=<file> -P compare.cmake
execute_process(
  COMMAND ${BENCH} --quiet ${ARGS} --json ${OUT}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} is not byte-identical to ${GOLDEN}")
endif()
