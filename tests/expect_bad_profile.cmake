# Captures a router profile with RUN (a list: program, then its
# arguments), rewrites it so FIELD holds a value no capture writes,
# and passes only if the run guided by it exits 1 with "malformed
# value for 'FIELD'" on stderr: a hostile profile is a load error,
# never an engine abort.
#
#   cmake "-DRUN=prog;arg;..." -DPROFILE=path -DFIELD=burst \
#       -P expect_bad_profile.cmake
#
# FIELD=burst sets "burst":4096 and a 1001-slot histogram whose only
# polls returned 1000 packets (the plan then searches a 1024 burst);
# FIELD=hist writes that histogram alone.
execute_process(COMMAND ${RUN} --profile-out ${PROFILE}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "capture run exited '${rc}':\n${err}")
endif()
file(READ ${PROFILE} text)
string(REPEAT "0," 1000 zeros)
string(REGEX REPLACE "\"hist\":\"[0-9,]*\"" "\"hist\":\"${zeros}5\""
       text "${text}")
if(FIELD STREQUAL "burst")
    string(REGEX REPLACE "\"burst\":[0-9]+" "\"burst\":4096" text "${text}")
endif()
file(WRITE ${PROFILE} "${text}")
execute_process(COMMAND ${RUN} --profile-in ${PROFILE}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "exit status '${rc}', expected 1; stderr:\n${err}")
endif()
string(FIND "${err}" "malformed value for '${FIELD}'" at)
if(at EQUAL -1)
    message(FATAL_ERROR "stderr lacks the malformed '${FIELD}' error:\n${err}")
endif()
