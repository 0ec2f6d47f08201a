# Golden gate for one sim-clock bench: run it in a fresh working directory
# and byte-compare the JSON it writes with the committed baseline.
#
#   cmake -DBENCH=<bench binary> -DJSON=<file name it writes>
#         -DGOLDEN=<committed JSON> -DWORK_DIR=<scratch dir>
#         -P golden_bench.cmake
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(COMMAND ${BENCH}
                WORKING_DIRECTORY ${WORK_DIR}
                RESULT_VARIABLE rc
                OUTPUT_FILE ${WORK_DIR}/stdout.txt
                ERROR_FILE ${WORK_DIR}/stderr.txt)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}; see ${WORK_DIR}/stdout.txt")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${WORK_DIR}/${JSON} ${GOLDEN}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  file(READ ${WORK_DIR}/${JSON} produced)
  message(FATAL_ERROR
          "${JSON} is not byte-identical to ${GOLDEN}. Produced:\n${produced}")
endif()
