# Post-hoc check for odq_profile_smoke: the JSON report must contain the
# conv phase-breakdown keys (quantize front end, pack, predictor GEMM,
# sparse epilogue, dequantize), the unattributed remainder and the per-MAC
# costs in its per-layer objects; the conv time no phase accounts for must
# stay within kMaxUnattributedFraction of the conv wall time; and its
# "metrics" section must be the observability plane's snapshot document
# (obs::telemetry_to_json), so the report and the exporter share a schema.
#
# The bound: the five timed phases cover everything a conv does except the
# executor's bookkeeping (stats merge under a lock, telemetry counters,
# trace spans). That remainder measured 0.2-2.7% of conv time on the smoke
# run, also with 12 copies running at once on 4 cores. The bound leaves
# room for a slower host, and a phase that lost its timer (the predictor
# GEMM or the epilogue, each 20-50% of conv time) would still show.
if(NOT DEFINED REPORT)
  message(FATAL_ERROR "pass -DREPORT=<path to smoke.report.json>")
endif()
file(READ "${REPORT}" report_json)
set(kMaxUnattributedFraction 0.15)
foreach(key quantize_seconds pack_seconds gemm_seconds sparse_epilogue_seconds
            dequantize_seconds unattributed_seconds ns_per_predictor_mac
            ns_per_executor_mac conv_unattributed_fraction schema_version)
  string(FIND "${report_json}" "\"${key}\"" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "odq_profile report ${REPORT} is missing \"${key}\"")
  endif()
endforeach()
string(JSON unattributed GET "${report_json}" conv_unattributed_fraction)
if(unattributed GREATER kMaxUnattributedFraction)
  message(FATAL_ERROR
    "odq_profile report ${REPORT}: ${unattributed} of conv wall time is "
    "unattributed to any phase (bound ${kMaxUnattributedFraction})")
endif()
string(FIND "${report_json}" "\"metrics\":{\"bench\":\"odq_telemetry\"" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR
    "odq_profile report ${REPORT}: \"metrics\" is not an odq_telemetry "
    "snapshot document")
endif()
