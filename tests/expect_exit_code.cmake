# Runs RUNNER with the single argument ARG and fails unless it exits with
# EXPECTED. CTest's own pass/fail only distinguishes zero from nonzero, so a
# crash would otherwise pass for a flag error.
#
#   cmake -DRUNNER=<binary> -DARG=<flag> -DEXPECTED=<code> -P expect_exit_code.cmake
execute_process(COMMAND "${RUNNER}" "${ARG}"
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECTED}")
  message(FATAL_ERROR
    "${RUNNER} ${ARG}: exit ${rc}, expected ${EXPECTED}\n${err}")
endif()
