# Runs COMMAND with ARGS (a ;-separated list) and compares its stdout byte
# for byte with the file GOLDEN; a non-zero exit or any difference fails.
#
#   cmake -DCOMMAND=prog "-DARGS=--list" -DGOLDEN=expected.txt \
#         -P check_golden.cmake
execute_process(COMMAND ${COMMAND} ${ARGS}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "'${COMMAND} ${ARGS}' exited with ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "'${COMMAND} ${ARGS}' output differs from ${GOLDEN}; got:\n"
                      "${actual}")
endif()
