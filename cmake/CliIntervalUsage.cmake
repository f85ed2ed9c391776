# CLI usage check (ctest `cli_interval_usage`): every command that takes
# --interval refuses a value below 1 s with exit 2 (usage); so do an unknown
# flag, a non-integer value, an out-of-range --user, out-of-range numbers
# for audit-all's harness flags, for serve and for the dataset, report,
# market-study, extract-pois and identify commands, --users above the
# seeded city's home sites, flags the commands do not take (audit-all's
# --soft-deadline, --heartbeat, --hard-deadline and --cell-cpu-s; serve's
# shedding-policy and turnaround-EWMA flags and --shard-cpu-s), a serve
# fault plan that does not parse or names a shard the run lacks, and a
# malformed LOCPRIV_STORAGE_FAULTS spec. audit-all and serve refuse a reused
# --run-dir with exit 6 before they read a corpus, and serve refuses to
# resume under another --batch with exit 6. The largest interval collects
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
# refused before any cell runs, and so are flags the harness does not take:
# --soft-deadline, and --heartbeat, --hard-deadline and --cell-cpu-s, since
# a sweep is bounded only by a signal and a cell attempt only by
# --cell-deadline.
foreach(misuse "--cell-deadline;nan" "--cell-deadline;inf" "--cell-deadline;1e300"
               "--cell-grace;nan" "--cell-grace;inf" "--workers;4294967297"
               "--cell-cpu-s;4294967297" "--cell-backoff-ms;9223372036854775807"
               "--heartbeat;9300000000000000" "--hard-deadline;-1" "--soft-deadline;5"
               "--hard-deadline;5" "--heartbeat;5" "--cell-cpu-s;5")
  expect_usage_exit("audit-all ${misuse}" audit-all --root "${WORK_DIR}/corpus"
                    --run-dir "${WORK_DIR}/audit_all" --isolate ${misuse})
endforeach()

# serve range-checks every number before any analyzer, shard or worker
# exists: a negative count would wrap to a huge unsigned value. The credit
# window has no "off" value, and serve sheds by one rule and finds slow
# shards by the ack deadline, so it takes no flag to choose either; that
# deadline is a shard's one time bound, so --shard-cpu-s is unknown. A fault
# plan is command-line input too: one that does not parse, or that names a
# shard the run does not have (a typo would rehearse nothing), exits 2
# before any shard or ledger exists.
foreach(misuse "--shards;-1" "--shards;0" "--batch;-1" "--max-inflight-batches;-1"
               "--max-inflight-batches;0" "--max-retained-mb;-1" "--heartbeat-ms;-5"
               "--op-timeout-ms;-1" "--grace-ms;-1" "--backoff-ms;9223372036854775807"
               "--rounds;-1" "--max-respawns;-1" "--shard-cpu-s;4294967297" "--users;0"
               "--shard-cpu-s;1"
               "--users;270;--days;1"
               "--shed-policy;reject-new" "--degraded-ms;5" "--slow-restart-ms;5"
               "--users;2;--days;1;--fault-shards;bogus"
               "--users;2;--days;1;--fault-shards;crash:0@shard0"
               "--users;2;--days;1;--shards;2;--fault-shards;crash@shard9;--fault-after;1")
  expect_usage_exit("serve ${misuse}" serve --run-dir "${WORK_DIR}/serve_usage" ${misuse})
endforeach()
if(EXISTS "${WORK_DIR}/audit_all/ledger.jsonl" OR EXISTS "${WORK_DIR}/serve_usage")
  list(APPEND failed "a refused command left a run directory behind")
endif()

# The corpus-building commands refuse a count that does not fit an int (it
# would wrap to a small one) or is below 1, and more users than the seeded
# city has home sites (269 at the default seed), before generating
# anything; the analysis commands refuse parameters their pipeline cannot
# take before loading the corpus.
foreach(misuse "--users;4294967298;--days;1" "--users;-3" "--users;2;--days;0"
               "--users;270;--days;1")
  expect_usage_exit("gen-dataset ${misuse}" gen-dataset --out "${WORK_DIR}/gen_usage"
                    ${misuse})
endforeach()
if(EXISTS "${WORK_DIR}/gen_usage")
  list(APPEND failed "a refused gen-dataset wrote its output directory")
endif()
# A malformed storage-fault plan is refused before anything is written: a
# typo in a fault-injection run must not pass fault-free.
execute_process(COMMAND "${CMAKE_COMMAND}" -E env
                        "LOCPRIV_STORAGE_FAULTS=seed=20170301,shrt=0.35"
                        "${LOCPRIV}" gen-dataset --out "${WORK_DIR}/gen_faults"
                        --users 1 --days 1
                OUTPUT_VARIABLE output
                ERROR_VARIABLE errors
                RESULT_VARIABLE exit_code)
if(exit_code EQUAL 2 AND NOT EXISTS "${WORK_DIR}/gen_faults")
  message(STATUS "cli_interval_usage: a malformed LOCPRIV_STORAGE_FAULTS exits 2")
else()
  message("${output}${errors}")
  list(APPEND failed "gen-dataset under a malformed LOCPRIV_STORAGE_FAULTS (exit ${exit_code})")
endif()
foreach(misuse "--users;4294967297;--days;1" "--users;0" "--days;-1" "--users;270;--days;1")
  expect_usage_exit("report ${misuse}" report ${misuse})
endforeach()
expect_usage_exit("market-study --limits -5" market-study --limits -5)
foreach(misuse "--radius;-5" "--radius;0" "--radius;nan" "--visit;0"
               "--visit;200000000000000000")
  expect_usage_exit("extract-pois ${misuse}" extract-pois --root "${WORK_DIR}/corpus"
                    ${misuse})
endforeach()
foreach(pattern 0 3)
  expect_usage_exit("identify --pattern ${pattern}" identify --root "${WORK_DIR}/corpus"
                    --pattern ${pattern})
endforeach()

# A fresh --run-dir that already holds a ledger exits 6 before any corpus is
# read: with a --root that does not exist, reading the corpus first would
# exit 1. Both refusals point at --resume and at a fresh --run-dir.
file(MAKE_DIRECTORY "${WORK_DIR}/reused")
file(WRITE "${WORK_DIR}/reused/ledger.jsonl" "")
foreach(command audit-all serve)
  execute_process(COMMAND "${LOCPRIV}" ${command} --root "${WORK_DIR}/no_such_corpus"
                          --run-dir "${WORK_DIR}/reused"
                  OUTPUT_VARIABLE output
                  ERROR_VARIABLE errors
                  RESULT_VARIABLE exit_code)
  if(exit_code EQUAL 6 AND errors MATCHES "--resume" AND errors MATCHES "--run-dir")
    message(STATUS "cli_interval_usage: ${command} refuses a reused --run-dir with exit 6")
  else()
    message("${output}${errors}")
    list(APPEND failed "${command} on a reused --run-dir (exit ${exit_code})")
  endif()
endforeach()

# The batch size decides which batch each per-shard sequence number names,
# so the ledger pins it: a resume under another --batch exits 6, and one
# under the original batch size continues.
set(serve_run --users 2 --days 1)
foreach(step "fresh;0;--run-dir" "other batch;6;--resume;--batch;32"
             "same batch;0;--resume")
  list(POP_FRONT step label expected flag)
  execute_process(COMMAND "${LOCPRIV}" serve ${serve_run} ${flag} "${WORK_DIR}/serve_batch"
                          ${step}
                  OUTPUT_VARIABLE output
                  ERROR_VARIABLE errors
                  RESULT_VARIABLE exit_code)
  if(exit_code EQUAL expected)
    message(STATUS "cli_interval_usage: serve ${label} exits ${expected}")
  else()
    message("${output}${errors}")
    list(APPEND failed "serve ${label} (exit ${exit_code}, expected ${expected})")
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
