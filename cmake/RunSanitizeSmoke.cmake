# Runs the tier-1 suite for the sanitize_smoke target. Invoked at build
# time (cmake -P), so the sanitizer runtime options are read from the
# *current* environment — CI exports TSAN_OPTIONS=halt_on_error=1 (or an
# ASAN_OPTIONS suppressions=... path) right on the ctest invocation, with no
# reconfigure. execute_process children inherit this environment; the echo
# below just makes the effective options visible in the build log.
foreach(option_var TSAN_OPTIONS ASAN_OPTIONS UBSAN_OPTIONS LSAN_OPTIONS)
  if(DEFINED ENV{${option_var}})
    message(STATUS "sanitize_smoke: ${option_var}=$ENV{${option_var}}")
  endif()
endforeach()

# A bare `-j` runs one test at a time under some CMake versions (3.25 does),
# so the job count is explicit: CTEST_PARALLEL_LEVEL when set, else the
# host's logical cores.
if(DEFINED ENV{CTEST_PARALLEL_LEVEL} AND NOT "$ENV{CTEST_PARALLEL_LEVEL}" STREQUAL "")
  set(smoke_jobs "$ENV{CTEST_PARALLEL_LEVEL}")
else()
  cmake_host_system_information(RESULT smoke_jobs QUERY NUMBER_OF_LOGICAL_CORES)
endif()
message(STATUS "sanitize_smoke: ctest -j ${smoke_jobs}")

execute_process(
  COMMAND ${LOCPRIV_CTEST} --output-on-failure -j ${smoke_jobs}
  WORKING_DIRECTORY ${LOCPRIV_BINARY_DIR}
  RESULT_VARIABLE smoke_result)
if(NOT smoke_result EQUAL 0)
  message(FATAL_ERROR
    "sanitize_smoke: ctest failed (exit ${smoke_result}; sanitizers: "
    "${LOCPRIV_SANITIZE})")
endif()
