# Golden-output smoke entries. Each runs its binary through
# cmake/RunGolden.cmake, which compares stdout (and a BENCH_*.json the
# binary writes) byte for byte with the files committed under
# tests/golden/. The outputs depend on libstdc++'s distributions and on
# libm, so the goldens are keyed by compiler id and version; under a
# toolchain with no goldens the entries report SKIP. The golden_update
# target rewrites this toolchain's goldens from the current build.

include_guard(GLOBAL)

set(ASPEN_GOLDEN_DIR
  ${PROJECT_SOURCE_DIR}/tests/golden/${CMAKE_CXX_COMPILER_ID}-${CMAKE_CXX_COMPILER_VERSION})
add_custom_target(golden_update)

# aspen_golden_test(<test> <target> [WORKING_DIRECTORY <dir>]
#                   [JSON <file>] [ENVIRONMENT <var=value>...])
function(aspen_golden_test test target)
  cmake_parse_arguments(PARSE_ARGV 2 G "" "WORKING_DIRECTORY;JSON"
                        "ENVIRONMENT")
  if(NOT G_WORKING_DIRECTORY)
    set(G_WORKING_DIRECTORY ${CMAKE_CURRENT_BINARY_DIR})
  endif()
  set(_run -DBIN=$<TARGET_FILE:${target}> -DNAME=${target}
      -DGOLDEN_DIR=${ASPEN_GOLDEN_DIR} -DOUT_DIR=${CMAKE_BINARY_DIR}/golden-out
      -DJSON=${G_JSON})
  set(_script ${PROJECT_SOURCE_DIR}/cmake/RunGolden.cmake)

  add_test(NAME ${test} COMMAND ${CMAKE_COMMAND} ${_run} -P ${_script}
           WORKING_DIRECTORY ${G_WORKING_DIRECTORY})
  set_tests_properties(${test} PROPERTIES SKIP_REGULAR_EXPRESSION GOLDEN_SKIP)
  if(G_ENVIRONMENT)
    set_tests_properties(${test} PROPERTIES ENVIRONMENT "${G_ENVIRONMENT}")
  endif()

  add_custom_target(golden_update_${target}
    COMMAND ${CMAKE_COMMAND} -E env ${G_ENVIRONMENT}
            ${CMAKE_COMMAND} ${_run} -DUPDATE=1 -P ${_script}
    WORKING_DIRECTORY ${G_WORKING_DIRECTORY}
    VERBATIM)
  add_dependencies(golden_update_${target} ${target})
  add_dependencies(golden_update golden_update_${target})
endfunction()
