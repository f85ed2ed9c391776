# CLI usage check (ctest `cli_interval_usage`): every command that takes
# --interval refuses a value below 1 s with exit 2 (usage); so do an unknown
# flag, a non-integer value, an out-of-range --user, and out-of-range numbers
# for audit-all's harness flags and for serve. The largest interval collects
# one fix instead of wrapping past INT64_MAX. Run against a 2-user corpus
# written by `locpriv gen-dataset`:
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
# Runs `locpriv <args...>` and records `label` as failed unless it exits 2.
function(expect_usage_exit label)
  execute_process(COMMAND "${LOCPRIV}" ${ARGN}
                  OUTPUT_VARIABLE output
                  ERROR_VARIABLE output
                  RESULT_VARIABLE exit_code)
  if(exit_code EQUAL 2)
    message(STATUS "cli_interval_usage: ${label} exits 2")
  else()
    message("${output}")
    message("cli_interval_usage: ${label} exited with ${exit_code}, expected 2")
    set(failed ${failed} "${label}" PARENT_SCOPE)
  endif()
endfunction()

foreach(interval 0 -30)
  foreach(command extract-pois audit audit-all identify export-geojson serve)
    set(extra "")
    if(command STREQUAL "export-geojson")
      set(extra --out "${WORK_DIR}/pois.geojson")
    elseif(command STREQUAL "serve")
      set(extra --run-dir "${WORK_DIR}/run${interval}")
    endif()
    expect_usage_exit("${command} --interval ${interval}" ${command}
                      --root "${WORK_DIR}/corpus" ${extra} --interval ${interval})
  endforeach()
endforeach()

foreach(misuse "--bogus;1" "--interval;abc" "--user;-1" "--user;5")
  expect_usage_exit("audit ${misuse}" audit --root "${WORK_DIR}/corpus" --user 0 ${misuse})
endforeach()

# Numbers the sweep harness cannot represent (non-finite or huge seconds, a
# worker count above UINT_MAX, a backoff that overflows its shift) are
# refused before any cell runs.
foreach(misuse "--cell-deadline;nan" "--cell-deadline;inf" "--cell-deadline;1e300"
               "--cell-grace;nan" "--cell-grace;inf" "--workers;4294967297"
               "--cell-cpu-s;4294967297" "--cell-backoff-ms;9223372036854775807"
               "--heartbeat;9300000000000000" "--hard-deadline;-1")
  expect_usage_exit("audit-all ${misuse}" audit-all --root "${WORK_DIR}/corpus"
                    --run-dir "${WORK_DIR}/audit_all" --isolate ${misuse})
endforeach()

# serve range-checks every number before any analyzer, shard or worker
# exists: a negative count would wrap to a huge unsigned value.
foreach(misuse "--shards;-1" "--shards;0" "--batch;-1" "--max-inflight-batches;-1"
               "--max-retained-mb;-1" "--heartbeat-ms;-5" "--op-timeout-ms;-1"
               "--grace-ms;-1" "--backoff-ms;9223372036854775807" "--rounds;-1"
               "--max-respawns;-1" "--shard-cpu-s;4294967297" "--users;0")
  expect_usage_exit("serve ${misuse}" serve --run-dir "${WORK_DIR}/serve_usage" ${misuse})
endforeach()
if(EXISTS "${WORK_DIR}/audit_all/ledger.jsonl" OR EXISTS "${WORK_DIR}/serve_usage")
  list(APPEND failed "a refused command left a run directory behind")
endif()

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
