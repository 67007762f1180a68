# Assert `lotec_sim --trace` dumps the run the table reports: the CSV's data
# rows must equal the table's Messages column for a single-protocol run.
#
#   cmake -DSIM=<lotec_sim> -DARGS="a b c" -DCSV=<file> \
#         -P trace_matches_table.cmake
if(NOT DEFINED SIM OR NOT DEFINED CSV)
  message(FATAL_ERROR "trace_matches_table.cmake needs -DSIM= and -DCSV=")
endif()
separate_arguments(ARGS)
file(REMOVE ${CSV})
execute_process(COMMAND ${SIM} ${ARGS} --trace=${CSV} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${SIM} ${ARGS}: exit ${rc}\n${out}\n${err}")
endif()
# Protocol  Committed  Aborted  DL retries  Messages  ...
string(REGEX MATCH "\n[A-Z-]+ +[0-9]+ +[0-9]+ +[0-9]+ +([0-9]+) " row "${out}")
if(NOT row)
  message(FATAL_ERROR "no table row in output:\n${out}")
endif()
set(messages ${CMAKE_MATCH_1})
file(STRINGS ${CSV} lines)
list(LENGTH lines n)
math(EXPR rows "${n} - 1")  # minus the header
if(NOT rows EQUAL messages)
  message(FATAL_ERROR
          "trace has ${rows} rows but the table reports ${messages} "
          "messages\n${out}")
endif()
