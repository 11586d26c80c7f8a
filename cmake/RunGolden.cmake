# Run one bench or example binary and compare what it prints, byte for
# byte, with its committed golden output:
#
#   cmake -DBIN=<binary> -DNAME=<stem> -DGOLDEN_DIR=<dir> -DOUT_DIR=<dir>
#         [-DJSON=<file>] [-DUPDATE=1] -P RunGolden.cmake
#
# BIN runs in the current directory. Its stdout goes to OUT_DIR/NAME.out
# and must equal GOLDEN_DIR/NAME.out; JSON names a file BIN writes into
# the current directory, which must equal GOLDEN_DIR/JSON. With UPDATE
# set, the outputs are copied into GOLDEN_DIR instead.
#
# GOLDEN_DIR is keyed by compiler id and version. Where it holds no
# golden for NAME, BIN still has to exit 0, and the script prints
# GOLDEN_SKIP, which the CTest entry reports as a skip, not a pass.

foreach(_var BIN NAME GOLDEN_DIR OUT_DIR)
  if(NOT DEFINED ${_var})
    message(FATAL_ERROR "RunGolden.cmake: -D${_var}=... is required")
  endif()
endforeach()

set(_out "${OUT_DIR}/${NAME}.out")
file(MAKE_DIRECTORY "${OUT_DIR}")
# (actual, golden) pairs; a stale JSON must not pass for a fresh one.
set(_pairs "${_out}" "${GOLDEN_DIR}/${NAME}.out")
if(JSON)
  get_filename_component(_json "${JSON}" ABSOLUTE)
  file(REMOVE "${_json}")
  list(APPEND _pairs "${_json}" "${GOLDEN_DIR}/${JSON}")
endif()

execute_process(COMMAND "${BIN}" OUTPUT_FILE "${_out}" RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "${NAME} exited with ${_rc}")
endif()

if(UPDATE)
  file(MAKE_DIRECTORY "${GOLDEN_DIR}")
  while(_pairs)
    list(POP_FRONT _pairs _actual _golden)
    file(COPY "${_actual}" DESTINATION "${GOLDEN_DIR}")
    message(STATUS "golden updated: ${_golden}")
  endwhile()
  return()
endif()

if(NOT EXISTS "${GOLDEN_DIR}/${NAME}.out")
  message(STATUS "GOLDEN_SKIP: no golden output for ${NAME} in ${GOLDEN_DIR}")
  return()
endif()

set(_failed "")
while(_pairs)
  list(POP_FRONT _pairs _actual _golden)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${_actual}" "${_golden}"
                  RESULT_VARIABLE _differs)
  if(NOT _differs EQUAL 0)
    list(APPEND _failed "${_golden}")
    find_program(_diff diff)
    if(_diff)
      execute_process(COMMAND "${_diff}" -u "${_golden}" "${_actual}")
    endif()
  endif()
endwhile()
if(_failed)
  message(FATAL_ERROR "${NAME}: output differs from ${_failed}. A deliberate "
          "change regenerates the goldens with the golden_update target.")
endif()
