# Require that bench-diff gates the ring, IOMMU and capability metrics
# whose direction only a name rule in metricDirection gives, each in
# its direction:
#
#   cmake -DTOOL=<uldma_trace_tool> -DBASELINES=<dir> -DOUT=<dir>
#         -P check_gate_rules.cmake
#
# Every guarded metric of the three committed baselines is set to 1 in
# one copy and moved the wrong way (to 2 or 0.5) in another, so even a
# metric whose baseline value is 0 can trip.  bench-diff between the
# copies must exit 1 with one regression per guarded metric: a lost
# rule leaves its metric uncompared, a flipped one reads as a gain.
cmake_minimum_required(VERSION 3.19) # string(JSON)

set(lower crossover_depth walks)
set(higher hit_rate jain_index min_tenant_share min_class_share)
# crossover_depth once; walks and hit_rate on six IOMMU points;
# jain_index, min_tenant_share and min_class_share once.
set(expected 16)

set(guarded 0)
set(regressions 0)
foreach(bench ring iommu cap)
    file(READ ${BASELINES}/BENCH_${bench}.json base)
    set(worse "${base}")
    string(JSON records LENGTH "${base}" records)
    math(EXPR last "${records} - 1")
    foreach(i RANGE ${last})
        foreach(metric IN LISTS lower higher)
            string(JSON value ERROR_VARIABLE absent
                   GET "${base}" records ${i} metrics ${metric})
            if(absent)
                continue()
            endif()
            if(metric IN_LIST lower)
                set(bad 2)
            else()
                set(bad 0.5)
            endif()
            string(JSON base SET "${base}" records ${i} metrics ${metric} 1)
            string(JSON worse SET "${worse}"
                   records ${i} metrics ${metric} ${bad})
            math(EXPR guarded "${guarded} + 1")
        endforeach()
    endforeach()
    file(WRITE ${OUT}/gate_rules_${bench}_base.json "${base}")
    file(WRITE ${OUT}/gate_rules_${bench}_worse.json "${worse}")
    execute_process(COMMAND ${TOOL} bench-diff
                            ${OUT}/gate_rules_${bench}_base.json
                            ${OUT}/gate_rules_${bench}_worse.json
                    OUTPUT_VARIABLE out RESULT_VARIABLE code)
    message("${out}")
    if(NOT code EQUAL 1)
        message(FATAL_ERROR "bench-diff of ${bench} exited ${code}, not 1")
    endif()
    string(REGEX MATCHALL "REGRESSION" hits "${out}")
    list(LENGTH hits n)
    math(EXPR regressions "${regressions} + ${n}")
endforeach()

if(NOT guarded EQUAL expected OR NOT regressions EQUAL expected)
    message(FATAL_ERROR "${guarded} guarded metric(s) found and "
                        "${regressions} regression(s) reported; "
                        "expected ${expected} of each")
endif()
