/**
 * @file
 * Quickstart: build a tiny guest program with ProgramBuilder, run it
 * functionally, profile its access regions, and ask the predictor to
 * classify its memory references — the paper's §3 pipeline in ~100
 * lines.
 *
 *   $ ./quickstart
 *
 * The guest program mirrors the paper's Figure 1: a function foo()
 * that writes a heap array (b[i]), reads a static array (c[i]),
 * dereferences a pointer parameter (*parm1 — region depends on the
 * call site!), and takes the address of a local (a stack access).
 */

#include <cstdio>

#include "builder/program_builder.hh"
#include "core/experiment.hh"
#include "sim/simulator.hh"

using namespace arl;
namespace r = isa::reg;

namespace
{

std::shared_ptr<vm::Program>
buildFigure1Program()
{
    builder::ProgramBuilder b("figure1");
    constexpr int kLimit = 64;

    b.globalArray("c", kLimit);           // int c[LIMIT];  (data)
    b.emitStartStub("main");

    // int bar(int *p) { return *p + 1; }  -- *p is the paper's
    // *parm1: the region depends on who calls.
    b.beginLeaf("bar");
    b.lw(r::T0, 0, r::A0);                // load through pointer arg
    b.addi(r::V0, r::T0, 1);
    b.fnReturn();
    b.endFunction();

    // void foo(int *parm1)
    b.beginFunction("foo", 2, {r::S0, r::S1, r::S2});
    {
        builder::Label loop = b.label();
        builder::Label done = b.label();
        b.move(r::S2, r::A0);             // parm1
        b.li(r::A0, kLimit * 4);
        b.li(r::V0, 13);                  // b = malloc(...)
        b.syscall();
        b.move(r::S0, r::V0);
        b.li(r::S1, 0);                   // i
        b.bind(loop);
        b.li(r::T0, kLimit);
        b.beq(r::S1, r::T0, done);
        b.sll(r::T1, r::S1, 2);
        b.add(r::T2, r::S0, r::T1);
        b.sw(r::S1, 0, r::T2);            // b[i] = ...   (heap)
        b.la(r::T3, "c");
        b.add(r::T3, r::T3, r::T1);
        b.lw(r::T4, 0, r::T3);            // ... = c[i]   (data)
        b.lw(r::T5, 0, r::S2);            // ... + *parm1 (unknown!)
        b.add(r::T4, r::T4, r::T5);
        b.sw(r::T4, b.localOffset(0), r::Sp);  // a = ...  (stack)
        b.addi(r::A0, r::Sp, 0);          // bar(&a)
        b.jal("bar");
        b.addi(r::S1, r::S1, 1);
        b.j(loop);
        b.bind(done);
        b.fnReturn();
        b.endFunction();
    }

    // main() calls foo twice: once with a *global* pointer and once
    // with a *stack* pointer, making bar()'s load multi-region.
    b.beginFunction("main", 2);
    {
        b.la(r::A0, "c");                 // foo(&c[0]): *parm1 = data
        b.jal("foo");
        b.li(r::T0, 7);
        b.sw(r::T0, b.localOffset(1), r::Sp);
        b.addi(r::A0, r::Sp, b.localOffset(1));
        b.jal("foo");                     // foo(&local): *parm1 = stack
        b.li(r::V0, 0);
        b.fnReturn();
        b.endFunction();
    }
    return b.finish();
}

} // namespace

int
main()
{
    auto prog = buildFigure1Program();
    std::printf("built '%s': %zu instructions, %zu static loads/"
                "stores\n\n", prog->name.c_str(), prog->text.size(),
                prog->staticMemInstructionCount());

    // One §3 pass: the region and window profilers and every Figure-4
    // scheme read the same instruction stream, here a live simulator.
    sim::Simulator simulator(prog);
    sim::SimulatorSource source(simulator);
    auto result = sweep::runRegionPass(
        prog->name, source, core::toSweepSchemes(core::figure4Schemes()));

    std::printf("executed %llu instructions\n",
                (unsigned long long)result.instructions);
    std::printf("\nstatic memory instructions by region class "
                "(Fig 2 classes):\n");
    for (unsigned c = 0; c < profile::NumRegionClasses; ++c) {
        if (result.profile.staticCounts[c] == 0)
            continue;
        std::printf("  %-6s : %llu static, %llu dynamic refs\n",
                    profile::regionClassName(
                        static_cast<profile::RegionClass>(c)).c_str(),
                    (unsigned long long)result.profile.staticCounts[c],
                    (unsigned long long)result.profile.dynamicCounts[c]);
    }

    std::printf("\nstack/non-stack prediction accuracy:\n");
    for (const auto &[name, report] : result.schemes)
        std::printf("  %-12s : %7.3f%%  (addr-mode resolved %.1f%% of "
                    "refs)\n", name.c_str(), report.accuracyPct(),
                    report.addrModeResolvedPct());

    std::printf("\nNote how bar()'s pointer load lands in a multi-"
                "region class, and how the CID-indexed schemes "
                "separate its two call sites.\n");
    return 0;
}
