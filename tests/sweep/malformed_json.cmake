cmake_minimum_required(VERSION 3.16)

# Malformed JSON given to the CLIs must end in a reported error, never a
# signal or a silent success:
#  - `mcps trace inspect`, `mcps trace check-bench` and
#    `mcps analyze --check-sarif` on 100 000 nested '[' (they once
#    overflowed the stack) exit 1 or 2;
#  - `mcps_load --import-metrics` on a truncated bench report (once
#    skipped without a word) exits 1, while a well-formed report is
#    spliced in under its prefix.
#
# Inputs: -DMCPS=..., -DMCPS_LOAD=..., -DWORK_DIR=...

file(MAKE_DIRECTORY "${WORK_DIR}")
set(deep "${WORK_DIR}/deep.json")
string(REPEAT "[" 100000 brackets)
file(WRITE "${deep}" "${brackets}")
set(truncated "${WORK_DIR}/truncated.json")
set(report "{\"bench\": \"x\", \"seed\": 1, \"metrics\": [{\"name\": \"a\"")
file(WRITE "${truncated}" "${report}")
set(whole "${WORK_DIR}/whole.json")
file(WRITE "${whole}" "${report}, \"value\": 2.5, \"unit\": \"ms\"}]}")

function(expect_exit allowed)
  execute_process(
    COMMAND ${ARGN}
    OUTPUT_QUIET ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc IN_LIST allowed)
    string(JOIN " " command ${ARGN})
    message(FATAL_ERROR "${command}: result '${rc}', want exit ${allowed}"
      "\n${err}")
  endif()
endfunction()

expect_exit("1;2" ${MCPS} trace inspect "${deep}")
expect_exit("1;2" ${MCPS} trace check-bench "${deep}")
expect_exit("1;2" ${MCPS} analyze --check-sarif "${deep}")
expect_exit("1" ${MCPS_LOAD} --embed --quick
  --import-metrics "${truncated}" imported
  --json "${WORK_DIR}/load.json")
expect_exit("0" ${MCPS_LOAD} --embed --quick
  --import-metrics "${whole}" imported
  --json "${WORK_DIR}/load.json")
file(READ "${WORK_DIR}/load.json" load)
if(NOT load MATCHES "\"imported/a\", \"value\": 2.5")
  message(FATAL_ERROR "mcps_load did not splice imported/a:\n${load}")
endif()
