# Strict env parsing: a malformed or zero worker count must stop the rt
# stress harness with exit status 2 and a message naming the variable,
# before it prints its run header or starts a worker thread.
# Invoked by ctest with -DHARNESS_BIN=... -DOUT_DIR=...
set(ENV{LF_BENCH_FAST} 1)
set(ENV{LF_BENCH_OUT} "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

foreach(value abc 0 4x -1)
  set(ENV{LF_RT_THREADS} "${value}")
  execute_process(COMMAND "${HARNESS_BIN}" RESULT_VARIABLE rv
                  OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 20)
  if(NOT rv EQUAL 2)
    message(FATAL_ERROR
            "LF_RT_THREADS=${value}: expected exit 2, got ${rv}\n${out}${err}")
  endif()
  if(NOT err MATCHES "LF_RT_THREADS")
    message(FATAL_ERROR
            "LF_RT_THREADS=${value}: stderr does not name the variable: ${err}")
  endif()
  # The run header precedes every phase; seeing it means the bad value got
  # past parsing.
  if(out MATCHES "rt stress:")
    message(FATAL_ERROR
            "LF_RT_THREADS=${value}: harness started running:\n${out}")
  endif()
  message(STATUS "ok: LF_RT_THREADS=${value} -> ${err}")
endforeach()
