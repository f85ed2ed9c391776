# CLI usage check (ctest `cli_interval_usage`): every command that takes
# --interval refuses a value below 1 s with exit 2 (usage), so do an unknown
# flag, a non-integer value and an out-of-range --user, and the largest
# interval collects one fix instead of wrapping past INT64_MAX. Run against
# a 2-user corpus written by `locpriv gen-dataset`:
#
#   cmake -DLOCPRIV=<locpriv binary> -DWORK_DIR=<work dir>
#         -P cmake/CliIntervalUsage.cmake
foreach(var LOCPRIV WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_interval_usage: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
execute_process(COMMAND "${LOCPRIV}" gen-dataset --out "${WORK_DIR}/corpus"
                        --users 2 --days 1
                OUTPUT_QUIET
                RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "cli_interval_usage: gen-dataset exited with ${exit_code}")
endif()

set(failed "")
foreach(interval 0 -30)
  foreach(command extract-pois audit audit-all identify export-geojson serve)
    set(extra "")
    if(command STREQUAL "export-geojson")
      set(extra --out "${WORK_DIR}/pois.geojson")
    elseif(command STREQUAL "serve")
      set(extra --run-dir "${WORK_DIR}/run${interval}")
    endif()
    execute_process(COMMAND "${LOCPRIV}" ${command} --root "${WORK_DIR}/corpus"
                            ${extra} --interval ${interval}
                    OUTPUT_VARIABLE output
                    ERROR_VARIABLE output
                    RESULT_VARIABLE exit_code)
    if(exit_code EQUAL 2)
      message(STATUS "cli_interval_usage: ${command} --interval ${interval} exits 2")
    else()
      message("${output}")
      message("cli_interval_usage: ${command} --interval ${interval} exited with "
              "${exit_code}, expected 2")
      list(APPEND failed "${command}@${interval}")
    endif()
  endforeach()
endforeach()

foreach(misuse "--bogus;1" "--interval;abc" "--user;-1" "--user;5")
  execute_process(COMMAND "${LOCPRIV}" audit --root "${WORK_DIR}/corpus" --user 0
                          ${misuse}
                  OUTPUT_VARIABLE output
                  ERROR_VARIABLE output
                  RESULT_VARIABLE exit_code)
  if(exit_code EQUAL 2)
    message(STATUS "cli_interval_usage: audit ${misuse} exits 2")
  else()
    message("${output}")
    message("cli_interval_usage: audit ${misuse} exited with ${exit_code}, expected 2")
    list(APPEND failed "audit ${misuse}")
  endif()
endforeach()

execute_process(COMMAND "${LOCPRIV}" audit --root "${WORK_DIR}/corpus" --user 0
                        --interval 9223372036854775807 --json
                OUTPUT_VARIABLE output
                ERROR_VARIABLE errors
                RESULT_VARIABLE exit_code)
if(exit_code EQUAL 0 AND output MATCHES "\"collected_fixes\":1,")
  message(STATUS "cli_interval_usage: audit --interval INT64_MAX collects one fix")
else()
  message("${output}${errors}")
  list(APPEND failed "audit --interval INT64_MAX (exit ${exit_code})")
endif()

if(failed)
  message(FATAL_ERROR "cli_interval_usage: failed: ${failed}")
endif()
