# LF_RT_STATS_INTERVAL_MS=0 turns the rt stress harness's stats sampler off:
# the run still passes, and it writes no STATS_rt_engine.prom and no
# watchdog keys (the watchdog rides the sampler's tick).
# Invoked by ctest with -DHARNESS_BIN=... -DOUT_DIR=...
set(ENV{LF_BENCH_FAST} 1)
set(ENV{LF_BENCH_OUT} "${OUT_DIR}")
set(ENV{LF_RT_STATS_INTERVAL_MS} 0)
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

execute_process(COMMAND "${HARNESS_BIN}" RESULT_VARIABLE rv
                OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 60)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "expected exit 0, got ${rv}\n${out}${err}")
endif()
if(EXISTS "${OUT_DIR}/STATS_rt_engine.prom")
  message(FATAL_ERROR "sampler off, yet STATS_rt_engine.prom was written")
endif()
file(READ "${OUT_DIR}/BENCH_rt_engine.json" bench)
if(bench MATCHES "rt\\.watchdog\\.|stats_interval_ms")
  message(FATAL_ERROR "sampler off, yet BENCH_rt_engine.json has sampler or "
                      "watchdog keys")
endif()
message(STATUS "ok: LF_RT_STATS_INTERVAL_MS=0 ran without the sampler")
