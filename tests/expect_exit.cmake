# Run the command after "--" and fail unless it exits with EXPECT_EXIT.
# ctest's WILL_FAIL passes on any failure, a crash included; this pins the
# code itself:
#   cmake -DEXPECT_EXIT=2 -P expect_exit.cmake -- PROGRAM [ARG...]
set(cmd)
set(in_cmd FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_cmd)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(in_cmd TRUE)
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc)
if(NOT rc STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "exit code ${rc}, expected ${EXPECT_EXIT}: ${cmd}")
endif()
