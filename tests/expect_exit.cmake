# Run the command after "--" and require exit code EXPECT; with OUTPUT
# set, its stdout goes to that file.
#
#   cmake -DEXPECT=<code> [-DOUTPUT=<file>] -P expect_exit.cmake -- <command> [args...]
set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(after_separator)
        list(APPEND command "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(after_separator TRUE)
    endif()
endforeach()
if(OUTPUT)
    execute_process(COMMAND ${command} RESULT_VARIABLE code
                    OUTPUT_FILE "${OUTPUT}")
else()
    execute_process(COMMAND ${command} RESULT_VARIABLE code)
endif()
if(NOT code STREQUAL EXPECT)
    message(FATAL_ERROR "exit ${code}, expected ${EXPECT}: ${command}")
endif()
