# Writes a forwarder config with ELEMENT in the middle to CONFIG, runs
# RUN (a list: program, then its arguments) on it and passes only if it
# exits 1 with EXPECT on stderr: a keyword outside its bounds fails the
# pipeline build cleanly, never an abort on a host allocation.
#
#   cmake "-DRUN=prog;arg" "-DELEMENT=Napt(...)" -DCONFIG=path \
#         -DEXPECT=text -P expect_bad_config.cmake
file(WRITE ${CONFIG}
     "input :: FromDPDKDevice(PORT 0, BURST 32);\n"
     "output :: ToDPDKDevice(PORT 0);\n"
     "input -> ${ELEMENT} -> EtherMirror -> output;\n")
execute_process(COMMAND ${RUN} ${CONFIG} --duration 100
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "exit status '${rc}', expected 1; stderr:\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "stderr lacks '${EXPECT}':\n${err}")
endif()
