/**
 * @file
 * Prints every worker replica's whole op stream for one scenario and
 * seed.  The scenario is spawned on a machine that never starts; each
 * worker's source is drained, its blocks are joined with
 * Program::append (which rebases branch targets), and the join is
 * listed with disassemble() under a "# node<N> <process>" line, in
 * spawn order.  Adversaries are skipped.  ctest pins the listing's
 * SHA-256 (tests/data/golden_worker_programs/SHA256SUMS), recorded
 * when a worker's whole program was unrolled at spawn, so an op that
 * differs is caught even where no report byte would move.
 *
 *   worker_programs <scenario.json> <seed>
 */

#include <iostream>
#include <string>

#include "workload/driver.hh"

using namespace uldma;
using namespace uldma::workload;

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::cerr << "usage: worker_programs <scenario.json> <seed>\n";
        return 2;
    }
    Scenario scenario;
    std::string error;
    if (!loadScenarioFile(argv[1], scenario, &error)) {
        std::cerr << error << "\n";
        return 2;
    }
    std::vector<StreamRuntime> streams;
    const std::unique_ptr<Machine> machine =
        spawnScenario(scenario, std::stoull(argv[2]), streams);

    for (const StreamSpec &spec : scenario.streams) {
        if (spec.adversarial)
            continue;
        Kernel &kernel = machine->node(spec.node).kernel();
        for (unsigned r = 0; r < spec.count; ++r) {
            const std::string name =
                spec.count == 1 ? spec.name
                                : spec.name + "." + std::to_string(r);
            Process *proc = nullptr;
            for (const auto &p : kernel.processes()) {
                if (p->name() == name)
                    proc = p.get();
            }
            if (proc == nullptr) {
                std::cerr << "no process " << name << "\n";
                return 1;
            }
            ExecContext &ctx = proc->context();
            Program whole;
            do {
                whole.append(ctx.program());
            } while (ctx.refill());
            std::cout << "# node" << spec.node << " " << name << "\n"
                      << whole.disassemble();
        }
    }
    return 0;
}
