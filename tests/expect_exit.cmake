# Runs CMD (a list: program, then its arguments) and passes only if it
# exits with status RC and EXPECT appears in its stdout or stderr.
#
#   cmake "-DCMD=prog;arg;..." -DRC=0 -DEXPECT=text -P expect_exit.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT rc STREQUAL "${RC}")
    message(FATAL_ERROR "exit status '${rc}', expected ${RC}; output:\n${out}")
endif()
string(FIND "${out}" "${EXPECT}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "output lacks '${EXPECT}':\n${out}")
endif()
