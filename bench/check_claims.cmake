# Runs one claim bench and fails on any MISS line, or on fewer OK
# lines than MIN_OK.
#   cmake -DBENCH=<binary> -DMIN_OK=<n> -P check_claims.cmake
execute_process(COMMAND "${BENCH}" OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
message("${out}")
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
if(out MATCHES "(^|[^A-Za-z0-9_])MISS([^A-Za-z0-9_]|$)")
    message(FATAL_ERROR "a claim printed MISS")
endif()
string(REGEX MATCHALL "(^|[^A-Za-z0-9_])OK([^A-Za-z0-9_]|$)" oks "${out}")
list(LENGTH oks ok_lines)
if(ok_lines LESS MIN_OK)
    message(FATAL_ERROR "${ok_lines} OK lines, expected ${MIN_OK}")
endif()
