# Run BENCH with a malformed knob: it must print exactly one `fatal:`
# line on stderr and exit with status 2, never end in an uncaught
# exception (SIGABRT).
execute_process(COMMAND ${CMAKE_COMMAND} -E env CHERIVOKE_THREADS=abc
                        ${BENCH}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "exit status '${status}', expected 2")
endif()
if(NOT err MATCHES "^fatal: CHERIVOKE_THREADS: [^\n]*\n$")
  message(FATAL_ERROR "stderr is not one fatal: line:\n${err}")
endif()
