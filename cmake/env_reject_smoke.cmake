# Strict env parsing: a malformed or out-of-range knob must stop an rt
# harness with exit status 2 and a message naming the variable, before it
# prints its run header or starts a worker thread.
# Invoked by ctest with -DHARNESS_BIN=... -DMM_BIN=... -DOUT_DIR=...
set(ENV{LF_BENCH_FAST} 1)
set(ENV{LF_BENCH_OUT} "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

# Each case is VAR=value, or several joined by '+'; only those variables are
# set while it runs, and the last one is the variable the error must name.
function(expect_reject bin header)
  foreach(case ${ARGN})
    string(REPLACE "+" ";" assignments "${case}")
    set(names)
    foreach(assignment ${assignments})
      string(FIND "${assignment}" "=" eq)
      string(SUBSTRING "${assignment}" 0 ${eq} name)
      math(EXPR value_at "${eq} + 1")
      string(SUBSTRING "${assignment}" ${value_at} -1 value)
      set(ENV{${name}} "${value}")
      list(APPEND names ${name})
    endforeach()
    execute_process(COMMAND "${bin}" RESULT_VARIABLE rv
                    OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 20)
    foreach(n ${names})
      unset(ENV{${n}})
    endforeach()
    if(NOT rv EQUAL 2)
      message(FATAL_ERROR "${case}: expected exit 2, got ${rv}\n${out}${err}")
    endif()
    if(NOT err MATCHES "${name}")
      message(FATAL_ERROR "${case}: stderr does not name ${name}: ${err}")
    endif()
    # The run header precedes every phase; seeing it means the bad value got
    # past parsing.
    if(out MATCHES "${header}")
      message(FATAL_ERROR "${case}: harness started running:\n${out}")
    endif()
    message(STATUS "ok: ${case} -> ${err}")
  endforeach()
endfunction()

expect_reject("${HARNESS_BIN}" "rt stress:"
  LF_RT_THREADS=abc LF_RT_THREADS=0 LF_RT_THREADS=4x LF_RT_THREADS=-1
  LF_RT_WATCHDOG=abc LF_RT_STATS_INTERVAL_MS=abc
  # Injection verdicts and probation ride the sampler's tick.
  LF_RT_INJECT_BAD_SWITCH=1+LF_RT_STATS_INTERVAL_MS=0
  LF_RT_PROBATION_WINDOWS=5+LF_RT_STATS_INTERVAL_MS=0)
# The multimodel watchdog and stage-D rollback ride the sampler's tick, so
# the sampler cannot be turned off there.
expect_reject("${MM_BIN}" "multimodel:" LF_RT_STATS_INTERVAL_MS=0)
