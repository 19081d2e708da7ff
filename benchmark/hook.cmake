# Project-include hook that builds the benchmark inside the root arl
# project, so arl_benchmark inherits the root's flags and libraries while
# every benchmark file stays under benchmark/:
#
#   cmake -S . -B .bench_build -DCMAKE_PROJECT_INCLUDE=$PWD/benchmark/hook.cmake
#   cmake --build .bench_build -j4 --target arl_benchmark arlsim
#
# The hook runs inside project(), before the root defines its
# libraries, so it defers the target definitions to the end of the
# top-level directory.  add_subdirectory() is not allowed in a
# deferred call; include() is.
set(ARL_BENCHMARK_DIR ${CMAKE_CURRENT_LIST_DIR})
cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR}
    CALL include ${ARL_BENCHMARK_DIR}/targets.cmake)
