# Pool-size independence for one example: run it with ALSFLOW_NUM_THREADS=1
# and =4, each in a fresh working directory, and byte-compare its stdout,
# its stderr and every file it writes (PGM, TIFF, ...). The one exception
# is the wall-clock timestamp that starts each log line on stderr
# ("%10.3f LEVEL component message"): it measures the run, not its output,
# so it is masked before stderr is compared.
#
#   cmake -DEXAMPLE=<example binary> -DWORK_DIR=<scratch dir>
#         -P pool_size_invariance.cmake
file(REMOVE_RECURSE ${WORK_DIR})
foreach(threads 1 4)
  set(dir ${WORK_DIR}/threads_${threads})
  file(MAKE_DIRECTORY ${dir})
  execute_process(COMMAND ${CMAKE_COMMAND} -E env ALSFLOW_NUM_THREADS=${threads}
                          ${EXAMPLE}
                  WORKING_DIRECTORY ${dir}
                  RESULT_VARIABLE rc
                  OUTPUT_FILE ${dir}/stdout.txt
                  ERROR_FILE ${dir}/stderr.txt)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "${EXAMPLE} exited with ${rc} at ${threads} threads; see ${dir}")
  endif()
endforeach()

file(GLOB_RECURSE one RELATIVE ${WORK_DIR}/threads_1 ${WORK_DIR}/threads_1/*)
file(GLOB_RECURSE four RELATIVE ${WORK_DIR}/threads_4 ${WORK_DIR}/threads_4/*)
list(SORT one)
list(SORT four)
if(NOT one STREQUAL four)
  message(FATAL_ERROR "files written at 1 thread (${one}) and at 4 threads "
                      "(${four}) differ")
endif()
function(read_log path out)
  file(READ ${path} text)
  string(REGEX REPLACE "\n *[0-9]+\\.[0-9][0-9][0-9] " "\n<wall> " text
         "\n${text}")
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

foreach(f ${one})
  if(f STREQUAL "stderr.txt")
    read_log(${WORK_DIR}/threads_1/${f} log1)
    read_log(${WORK_DIR}/threads_4/${f} log4)
    if(log1 STREQUAL log4)
      set(differs 0)
    else()
      set(differs 1)
    endif()
  else()
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${WORK_DIR}/threads_1/${f} ${WORK_DIR}/threads_4/${f}
                    RESULT_VARIABLE differs)
  endif()
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${f} differs between 1 and 4 threads; see ${WORK_DIR}")
  endif()
endforeach()
