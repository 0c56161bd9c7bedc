# Pass only when a command exits with the expected status and its
# stderr matches the expected regular expression:
#
#   cmake [-DSTATUS=N] [-DPATTERN=REGEX] -P expect_exit.cmake -- COMMAND [ARGS...]
#
# The defaults, exit 2 with the usage text, are the contract for a
# malformed command-line value (sim/cli.h).
if(NOT DEFINED STATUS)
    set(STATUS 2)
endif()
if(NOT DEFINED PATTERN)
    set(PATTERN "usage: ")
endif()
set(command)
set(afterSeparator OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(afterSeparator)
        list(APPEND command "${CMAKE_ARGV${i}}")
    elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
        set(afterSeparator ON)
    endif()
endforeach()
execute_process(COMMAND ${command} RESULT_VARIABLE status
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT status STREQUAL "${STATUS}" OR NOT err MATCHES "${PATTERN}")
    message(FATAL_ERROR "want exit ${STATUS} and stderr matching "
                        "'${PATTERN}', got exit '${status}'; stderr:\n"
                        "${err}")
endif()
