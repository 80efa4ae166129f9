# Runs COMMAND with ARGS (a ;-separated list) and compares its stdout byte
# for byte with the file GOLDEN; a non-zero exit or any difference fails.
# ARGS2 and ARGS3, when given, are further argument lists whose output must
# match the same file (one golden for settings that must not change the
# output).
#
#   cmake -DCOMMAND=prog "-DARGS=--list" -DGOLDEN=expected.txt \
#         -P check_golden.cmake
file(READ ${GOLDEN} expected)
foreach(args_var ARGS ARGS2 ARGS3)
  if(NOT DEFINED ${args_var})
    continue()
  endif()
  set(args ${${args_var}})
  execute_process(COMMAND ${COMMAND} ${args}
                  OUTPUT_VARIABLE actual
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "'${COMMAND} ${args}' exited with ${status}")
  endif()
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "'${COMMAND} ${args}' output differs from ${GOLDEN}; got:\n"
                        "${actual}")
  endif()
endforeach()
