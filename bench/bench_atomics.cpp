/**
 * @file
 * Experiment E6 — paper §3.5: user-level initiation of NI atomic
 * operations (atomic_add, fetch_and_store, compare_and_swap) versus
 * trapping into the kernel for each one.  "Initiating atomic
 * operations from inside the operating system kernel would result in
 * significant overhead, since the operating system overhead would be
 * much higher than the time it takes to do the atomic operation
 * itself."
 */

#include "bench_common.hh"

#include "core/experiment.hh"

namespace {

using namespace uldma;

void
printExhibit(benchutil::Reporter &reporter)
{
    benchutil::header(
        "E6: atomic operation initiation, user-level vs kernel (us)");
    std::printf("%-22s %12s %12s %12s %8s\n", "operation", "ext-shadow",
                "key-based", "kernel", "speedup");
    benchutil::rule(72);

    for (AtomicOp op : {AtomicOp::Add, AtomicOp::FetchStore,
                        AtomicOp::CompareSwap}) {
        AtomicMeasureConfig user;
        user.op = op;
        user.userLevel = true;
        user.iterations = 500;
        AtomicMeasureConfig keyed = user;
        keyed.keyed = true;
        AtomicMeasureConfig kern = user;
        kern.userLevel = false;

        const AtomicMeasurement mu = measureAtomic(user);
        const AtomicMeasurement mkey = measureAtomic(keyed);
        const AtomicMeasurement mk = measureAtomic(kern);
        std::printf("%-22s %12.2f %12.2f %12.2f %7.1fx\n", toString(op),
                    mu.avgUs, mkey.avgUs, mk.avgUs, mk.avgUs / mu.avgUs);

        auto &r = reporter.record(std::string("atomics/") + toString(op));
        r.config("op", toString(op));
        r.config("iterations", std::int64_t{500});
        r.metric("user_us", mu.avgUs);
        r.metric("keyed_us", mkey.avgUs);
        r.metric("kernel_us", mk.avgUs);
        r.metric("speedup", mk.avgUs / mu.avgUs);
        r.metric("events", static_cast<double>(mu.executed));
    }

    std::printf("\nUser-level atomics cost a few NI accesses (2 for "
                "add/swap, 3 for CAS;\nthe keyed adaptation adds one "
                "arming store); the kernel path adds the\nfull trap "
                "overhead per operation (paper §3.5).\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return uldma::benchutil::benchMain(argc, argv, printExhibit);
}
