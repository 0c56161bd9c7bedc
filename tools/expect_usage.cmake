# Pass only when a command prints its usage text and exits with status
# 2, the contract for a malformed command-line value (sim/cli.h):
#
#   cmake -P expect_usage.cmake -- COMMAND [ARGS...]
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
if(NOT status STREQUAL "2" OR NOT err MATCHES "usage: ")
    message(FATAL_ERROR "want the usage text and exit 2, got exit "
                        "'${status}'; stderr:\n${err}")
endif()
