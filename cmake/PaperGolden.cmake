# Paper-output golden check (ctest `paper_golden`). Runs each paper bench at
# reduced scale with its CSV export on, hashes its standard output plus
# every CSV it wrote, and compares the digest with the bench's line in the
# digests file:
#
#   cmake -DBENCH_DIR=<bench binaries> -DBENCHES=<name,name,...>
#         -DWORK_DIR=<work dir> -DDIGESTS=<paper_digests.txt>
#         -P cmake/PaperGolden.cmake
#
# On a mismatch it prints the bench's output and the digest line it
# computed. A deliberate change of a paper output re-pins by copying that
# line into the digests file, with a CHANGES.md line saying why.
foreach(var BENCH_DIR BENCHES WORK_DIR DIGESTS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "paper_golden: -D${var}=... is required")
  endif()
endforeach()

file(STRINGS "${DIGESTS}" pinned_lines REGEX "^[^#]")
string(REPLACE "," ";" benches "${BENCHES}")
set(ENV{LOCPRIV_REDUCED_SCALE} 1)
set(mismatched "")
foreach(bench IN LISTS benches)
  set(csv_dir "${WORK_DIR}/${bench}")
  file(REMOVE_RECURSE "${csv_dir}")
  file(MAKE_DIRECTORY "${csv_dir}")
  set(ENV{LOCPRIV_CSV_DIR} "${csv_dir}")
  execute_process(COMMAND "${BENCH_DIR}/${bench}"
                  OUTPUT_VARIABLE output
                  RESULT_VARIABLE exit_code)
  if(NOT exit_code EQUAL 0)
    message(SEND_ERROR "paper_golden: ${bench} exited with ${exit_code}")
    list(APPEND mismatched ${bench})
    continue()
  endif()
  # Benches print where their CSVs went; hash that path as a fixed token so
  # the digest does not depend on where the build tree lives.
  string(REPLACE "${csv_dir}" "<csv>" output "${output}")
  set(material "${output}")
  file(GLOB csv_files RELATIVE "${csv_dir}" "${csv_dir}/*")
  list(SORT csv_files)
  foreach(csv IN LISTS csv_files)
    file(READ "${csv_dir}/${csv}" content)
    string(APPEND material "\n== ${csv} ==\n${content}")
  endforeach()
  string(SHA256 digest "${material}")

  set(expected "")
  foreach(line IN LISTS pinned_lines)
    if(line MATCHES "^${bench} ([0-9a-f]+)$")
      set(expected "${CMAKE_MATCH_1}")
    endif()
  endforeach()
  if(digest STREQUAL expected)
    message(STATUS "paper_golden: ${bench} matches")
  else()
    message("${output}")
    if(expected STREQUAL "")
      message("paper_golden: ${bench} has no pinned digest")
    else()
      message("paper_golden: ${bench} differs from its pinned digest ${expected}")
    endif()
    message("computed digest line:\n${bench} ${digest}")
    list(APPEND mismatched ${bench})
  endif()
endforeach()

if(mismatched)
  message(FATAL_ERROR "paper_golden: outputs changed: ${mismatched}")
endif()
