# Require FILE's SHA-256 to equal the digest recorded for NAME in SUMS
# (sha256sum format, one "<hex>  <name>" line per file).
#
#   cmake -DFILE=<path> -DSUMS=<path> -DNAME=<name> -P check_sha256.cmake
file(SHA256 "${FILE}" actual)
file(STRINGS "${SUMS}" lines)
foreach(line IN LISTS lines)
    if(line MATCHES "^([0-9a-f]+)  (.+)$")
        if(CMAKE_MATCH_2 STREQUAL NAME)
            set(expected "${CMAKE_MATCH_1}")
        endif()
    endif()
endforeach()
if(NOT expected)
    message(FATAL_ERROR "no digest for ${NAME} in ${SUMS}")
endif()
if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "${FILE}: SHA-256 ${actual}, recorded ${expected}")
endif()
