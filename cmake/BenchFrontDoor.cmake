# Service bench front door (ctest `bench_front_door`): bench_locprivd,
# bench_overload and bench_storage_torture refuse out-of-range numbers with
# exit 2 (a negative count would wrap to a huge unsigned one), as
# bench_fault_degradation refuses a fault plan naming a cell it lacks; a run
# without --run-dir leaves nothing in TMPDIR, whatever its exit code. A
# second bench_locprivd run on the same --run-dir exits 6 and leaves the
# directory byte for byte as the first run left it. Run against the bench
# binaries of one build tree:
#
#   cmake -DBENCH_DIR=<dir holding the bench binaries> -DWORK_DIR=<work dir>
#         -P cmake/BenchFrontDoor.cmake
foreach(var BENCH_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_front_door: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
set(tmp "${WORK_DIR}/tmp")
file(MAKE_DIRECTORY "${tmp}")
set(ENV{TMPDIR} "${tmp}")

set(failed "")
# Runs `<bench> <args...>` and returns its exit code in `result`.
function(run_bench result bench)
  execute_process(COMMAND "${BENCH_DIR}/${bench}" ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  OUTPUT_VARIABLE output
                  ERROR_VARIABLE output
                  RESULT_VARIABLE exit_code
                  TIMEOUT 120)
  set(${result} "${exit_code}" PARENT_SCOPE)
  set(last_output "${output}" PARENT_SCOPE)
endfunction()

# Records `label` as failed unless TMPDIR is empty.
function(expect_tmpdir_empty label)
  file(GLOB leftovers LIST_DIRECTORIES true "${tmp}/*" "${tmp}/.*")
  if(leftovers)
    message("bench_front_door: ${label} left ${leftovers} in TMPDIR")
    file(REMOVE_RECURSE ${leftovers})
    set(failed ${failed} "${label} (TMPDIR)" PARENT_SCOPE)
  endif()
endfunction()

# Records `label` as failed unless `<bench> <args...>` exits 2 and leaves
# TMPDIR empty.
function(expect_usage_exit label bench)
  run_bench(exit_code ${bench} ${ARGN})
  if(exit_code EQUAL 2)
    message(STATUS "bench_front_door: ${label} exits 2")
  else()
    message("${last_output}")
    message("bench_front_door: ${label} exited with ${exit_code}, expected 2")
    set(failed ${failed} "${label}")
  endif()
  expect_tmpdir_empty("${label}")
  set(failed ${failed} PARENT_SCOPE)
endfunction()

foreach(bench bench_locprivd bench_overload bench_storage_torture)
  foreach(misuse "--shards;0" "--shards;-1" "--shards;1025" "--users;0"
                 "--users;270;--days;1" "--days;0")
    expect_usage_exit("${bench} ${misuse}" ${bench} ${misuse})
  endforeach()
endforeach()
foreach(misuse "--max-retained-kb;-1" "--max-rss-mb;-1")
  expect_usage_exit("bench_overload ${misuse}" bench_overload ${misuse})
endforeach()
expect_usage_exit("bench_storage_torture --seeds -1" bench_storage_torture --seeds -1)
# A process fault plan naming a sweep cell the run does not have.
expect_usage_exit("bench_fault_degradation --fault-cells crash@i9_t9"
                  bench_fault_degradation --isolate --fault-cells crash@i9_t9)

# A run without --run-dir lives in a scratch directory under TMPDIR that is
# gone after exit, whatever the verdict: 2 users may leave a fault unfired,
# and a run with no fault plan fails its fault checks (exit 1).
foreach(plan "" "--fault-shards=")
  run_bench(exit_code bench_locprivd --users 2 --days 1 ${plan})
  if((exit_code EQUAL 0 AND NOT plan) OR exit_code EQUAL 1)
    message(STATUS "bench_front_door: a scratch bench_locprivd run exits ${exit_code}")
  else()
    message("${last_output}")
    list(APPEND failed "scratch bench_locprivd run ${plan} (exit ${exit_code})")
  endif()
  expect_tmpdir_empty("scratch bench_locprivd run ${plan}")
endforeach()

# A reused --run-dir is refused with exit 6 and left untouched.
function(tree_digest result dir)
  file(GLOB_RECURSE files LIST_DIRECTORIES true RELATIVE "${dir}" "${dir}/*")
  list(SORT files)
  set(digest "")
  foreach(file IN LISTS files)
    if(IS_DIRECTORY "${dir}/${file}")
      string(APPEND digest "${file}/\n")
    else()
      file(SHA256 "${dir}/${file}" hash)
      string(APPEND digest "${file} ${hash}\n")
    endif()
  endforeach()
  set(${result} "${digest}" PARENT_SCOPE)
endfunction()

set(run_dir "${WORK_DIR}/reused")
run_bench(exit_code bench_locprivd --users 2 --days 1 --run-dir "${run_dir}")
tree_digest(before "${run_dir}")
if(NOT before MATCHES "ledger.jsonl")
  message("${last_output}")
  list(APPEND failed "the first --run-dir run journaled nothing (exit ${exit_code})")
endif()
run_bench(exit_code bench_locprivd --users 2 --days 1 --run-dir "${run_dir}")
tree_digest(after "${run_dir}")
if(exit_code EQUAL 6 AND after STREQUAL before)
  message(STATUS "bench_front_door: a reused --run-dir exits 6 and is left untouched")
else()
  message("${last_output}")
  message("before:\n${before}after:\n${after}")
  list(APPEND failed "reused --run-dir (exit ${exit_code})")
endif()
expect_tmpdir_empty("reused --run-dir")

if(failed)
  message(FATAL_ERROR "bench_front_door: failed: ${failed}")
endif()
