# Runs COMMAND (a ;-list) and passes iff it exits with EXIT_CODE and its
# stderr matches STDERR_REGEX.  CTest alone checks either the exit code
# (WILL_FAIL) or the output (PASS_REGULAR_EXPRESSION, which ignores the
# exit code), so the usage-error smokes in tools/CMakeLists.txt run
# through this script:
#
#   cmake -DCOMMAND=<exe;args...> -DEXIT_CODE=2 -DSTDERR_REGEX=<re>
#         -P expect_exit.cmake
execute_process(COMMAND ${COMMAND}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL EXIT_CODE)
  message(FATAL_ERROR "exit code ${rc}, expected ${EXIT_CODE}\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "stderr does not match '${STDERR_REGEX}':\n${err}")
endif()
