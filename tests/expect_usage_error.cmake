# Runs CMD (a list: program, then its arguments) and passes only if it
# exits 2 with "EXPECT expects" on stderr: a hostile flag value is a
# usage error naming its flag, never an abort or a silently used value.
#
#   cmake "-DCMD=prog;arg;..." -DEXPECT=--flag -P expect_usage_error.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "exit status '${rc}', expected 2; stderr:\n${err}")
endif()
string(FIND "${err}" "${EXPECT} expects" at)
if(at EQUAL -1)
    message(FATAL_ERROR "stderr lacks '${EXPECT} expects':\n${err}")
endif()
