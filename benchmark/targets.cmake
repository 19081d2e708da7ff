# Benchmark targets, included at the end of the root CMakeLists.txt by
# hook.cmake (so every arl library target already exists).

add_executable(arl_benchmark
    ${ARL_BENCHMARK_DIR}/arl_benchmark.cc
    ${ARL_BENCHMARK_DIR}/span_log.cc)
target_link_libraries(arl_benchmark PRIVATE arl_core_api arl_corpus
    arl_trace)
target_compile_definitions(arl_benchmark PRIVATE
    ARL_BENCHMARK_EXPECTED="${ARL_BENCHMARK_DIR}/expected.json"
    ARL_CORPUS_DIR="${CMAKE_SOURCE_DIR}/corpus")
set_target_properties(arl_benchmark PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/benchmark)

# Every workload at --smoke size, untraced and traced, checked against
# BENCHMARK.json, plus the stored-digest negative check.
add_test(NAME benchmark_smoke
         COMMAND python3 ${ARL_BENCHMARK_DIR}/smoke.py
                 --bin $<TARGET_FILE:arl_benchmark>
                 --arl-sim $<TARGET_FILE:arlsim>
                 --benchmark-json ${CMAKE_SOURCE_DIR}/BENCHMARK.json
                 --work-dir ${CMAKE_BINARY_DIR}/benchmark/smoke)
set_tests_properties(benchmark_smoke PROPERTIES PROCESSORS 4 TIMEOUT 120)
