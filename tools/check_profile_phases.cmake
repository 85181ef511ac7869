# Post-hoc check for odq_profile_smoke: the JSON report must contain the
# conv phase-breakdown keys (quantize front end, pack, predictor GEMM,
# sparse epilogue, dequantize) in its per-layer objects, and its
# "metrics" section must be the observability plane's snapshot document
# (obs::telemetry_to_json), so the report and the exporter share a schema.
if(NOT DEFINED REPORT)
  message(FATAL_ERROR "pass -DREPORT=<path to smoke.report.json>")
endif()
file(READ "${REPORT}" report_json)
foreach(key quantize_seconds pack_seconds gemm_seconds sparse_epilogue_seconds
            dequantize_seconds schema_version)
  string(FIND "${report_json}" "\"${key}\"" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "odq_profile report ${REPORT} is missing \"${key}\"")
  endif()
endforeach()
string(FIND "${report_json}" "\"metrics\":{\"bench\":\"odq_telemetry\"" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR
    "odq_profile report ${REPORT}: \"metrics\" is not an odq_telemetry "
    "snapshot document")
endif()
