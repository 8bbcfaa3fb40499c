# Runs a figure reproducer and compares its stdout with a golden file, byte
# for byte.  Usage (one ctest per figure, see bench/CMakeLists.txt):
#
#   cmake -DBIN=<figure binary> -DGOLDEN=<tests/golden/<figure>.txt>
#         -DWORKDIR=<scratch dir> -P compare_stdout.cmake
#
# The binary runs in a fresh WORKDIR because it writes BENCH_<id>.json (with
# its wall-clock `elapsed_ms`) to its working directory; only stdout is
# compared.  To accept a deliberate change, copy WORKDIR/stdout.txt over the
# golden file.

foreach(var BIN GOLDEN WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_stdout.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(
  COMMAND "${BIN}"
  WORKING_DIRECTORY "${WORKDIR}"
  OUTPUT_FILE "${WORKDIR}/stdout.txt"
  RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${exit_code}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}"
          "${WORKDIR}/stdout.txt"
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  file(READ "${GOLDEN}" want)
  file(READ "${WORKDIR}/stdout.txt" got)
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}\n"
                      "--- golden:\n${want}\n--- got:\n${got}")
endif()
