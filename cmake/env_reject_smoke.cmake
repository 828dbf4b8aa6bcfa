# Strict env parsing: a malformed or out-of-range knob must stop the rt
# stress harness with exit status 2 and a message naming the variable,
# before it prints its run header or starts a worker thread.
# Invoked by ctest with -DHARNESS_BIN=... -DOUT_DIR=...
set(ENV{LF_BENCH_FAST} 1)
set(ENV{LF_BENCH_OUT} "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

# Each case is VARIABLE=value; only that variable is set while it runs.
foreach(case LF_RT_THREADS=abc LF_RT_THREADS=0 LF_RT_THREADS=4x
             LF_RT_THREADS=-1 LF_RT_WATCHDOG=abc LF_RT_STATS_INTERVAL_MS=abc)
  string(FIND "${case}" "=" eq)
  string(SUBSTRING "${case}" 0 ${eq} name)
  math(EXPR value_at "${eq} + 1")
  string(SUBSTRING "${case}" ${value_at} -1 value)
  set(ENV{${name}} "${value}")
  execute_process(COMMAND "${HARNESS_BIN}" RESULT_VARIABLE rv
                  OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 20)
  unset(ENV{${name}})
  if(NOT rv EQUAL 2)
    message(FATAL_ERROR "${case}: expected exit 2, got ${rv}\n${out}${err}")
  endif()
  if(NOT err MATCHES "${name}")
    message(FATAL_ERROR "${case}: stderr does not name the variable: ${err}")
  endif()
  # The run header precedes every phase; seeing it means the bad value got
  # past parsing.
  if(out MATCHES "rt stress:")
    message(FATAL_ERROR "${case}: harness started running:\n${out}")
  endif()
  message(STATUS "ok: ${case} -> ${err}")
endforeach()
