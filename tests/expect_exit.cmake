# Run the command after "--" and require exit code EXPECT.
#
#   cmake -DEXPECT=<code> -P expect_exit.cmake -- <command> [args...]
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
execute_process(COMMAND ${command} RESULT_VARIABLE code)
if(NOT code STREQUAL EXPECT)
    message(FATAL_ERROR "exit ${code}, expected ${EXPECT}: ${command}")
endif()
