# Run BENCH with CHERIVOKE_THREADS=VALUE (default: the malformed
# "abc"): it must print exactly one `fatal:` line on stderr,
# containing EXPECT when that is given, and exit with status 2, never
# end in an uncaught exception (SIGABRT).
if(NOT DEFINED VALUE)
  set(VALUE abc)
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E env CHERIVOKE_THREADS=${VALUE}
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
if(DEFINED EXPECT)
  string(FIND "${err}" "${EXPECT}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "the fatal: line does not say '${EXPECT}':\n${err}")
  endif()
endif()
