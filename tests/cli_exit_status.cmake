# A command-line tool given an unknown config key must exit with status
# exactly 1 (a user error): not 2, which runMain gives a panic or any
# other internal error, nor an abort (134). Run through ctest:
#
#   cmake -DPROGRAMS="<exe>;<exe>..." -DCONFIG=<ci-quick.json> \
#         -P cli_exit_status.cmake
foreach(program IN LISTS PROGRAMS)
    execute_process(
        COMMAND ${program} config=${CONFIG} workload=mix-1 bogus.key=3
        RESULT_VARIABLE status
        OUTPUT_QUIET
        ERROR_VARIABLE stderr)
    if(NOT status STREQUAL "1")
        message(FATAL_ERROR
            "${program} exited with '${status}' on an unknown key, "
            "expected 1; stderr:\n${stderr}")
    endif()
    if(NOT stderr MATCHES "unknown config key 'bogus.key'")
        message(FATAL_ERROR
            "${program} did not name the unknown key; stderr:\n${stderr}")
    endif()
endforeach()
