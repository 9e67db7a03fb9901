# Records the built-in demo trace with `trace_player --record` and
# fails unless the file is byte-identical to the committed one.
#
#   cmake -DPLAYER=<trace_player> -DRECORDED=<scratch file>
#         -DCOMMITTED=<examples/demo.cvt> -P demo_trace_pinned.cmake
execute_process(COMMAND ${PLAYER} --record ${RECORDED}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "trace_player --record ${RECORDED} failed: ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${RECORDED} ${COMMITTED}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${RECORDED} differs from ${COMMITTED}")
endif()
file(REMOVE ${RECORDED})
