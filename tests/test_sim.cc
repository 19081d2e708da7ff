/**
 * @file
 * Functional simulator tests: instruction semantics, control flow,
 * syscalls, and the StepInfo fields the profilers and predictors
 * depend on (regions, branch history, caller id, produced values).
 *
 * Most tests build a tiny program with ProgramBuilder, run it, and
 * check architectural state or collected StepInfos.
 */

#include <gtest/gtest.h>

#include <bit>

#include "builder/program_builder.hh"
#include "sim/simulator.hh"

using namespace arl;
namespace r = isa::reg;
using builder::Label;
using builder::ProgramBuilder;

TEST(SimArithmetic, IntegerOps)
{
    ProgramBuilder b("arith");
    b.emitStartStub("main");
    b.beginFunction("main", 0);
    b.li(r::T0, 100);
    b.li(r::T1, 7);
    b.add(r::T2, r::T0, r::T1);    // 107
    b.sub(r::T3, r::T0, r::T1);    // 93
    b.mul(r::T4, r::T0, r::T1);    // 700
    b.div(r::T5, r::T0, r::T1);    // 14
    b.rem(r::T6, r::T0, r::T1);    // 2
    b.slt(r::T7, r::T1, r::T0);    // 1
    b.fnReturn();
    b.endFunction();

    sim::Simulator simulator(b.finish());
    simulator.run();
    const auto &proc = simulator.process();
    EXPECT_EQ(proc.gpr[r::T2], 107u);
    EXPECT_EQ(proc.gpr[r::T3], 93u);
    EXPECT_EQ(proc.gpr[r::T4], 700u);
    EXPECT_EQ(proc.gpr[r::T5], 14u);
    EXPECT_EQ(proc.gpr[r::T6], 2u);
    EXPECT_EQ(proc.gpr[r::T7], 1u);
}

TEST(SimArithmetic, ShiftsAndLogic)
{
    ProgramBuilder b("logic");
    b.emitStartStub("main");
    b.beginFunction("main", 0);
    b.li(r::T0, -8);
    b.sra(r::T1, r::T0, 1);            // -4 (arithmetic)
    b.srl(r::T2, r::T0, 28);           // 0xf (logical)
    b.sll(r::T3, r::T0, 1);            // -16
    b.li(r::T4, 0x0ff0);
    b.andi(r::T5, r::T4, 0x00ff);      // 0xf0
    b.ori(r::T6, r::T4, 0xf000);       // 0xfff0
    b.xori(r::T7, r::T4, 0xffff);      // 0xf00f
    b.nor(r::T8, r::Zero, r::Zero);    // 0xffffffff
    b.fnReturn();
    b.endFunction();

    sim::Simulator simulator(b.finish());
    simulator.run();
    const auto &proc = simulator.process();
    EXPECT_EQ(static_cast<SWord>(proc.gpr[r::T1]), -4);
    EXPECT_EQ(proc.gpr[r::T2], 0xfu);
    EXPECT_EQ(static_cast<SWord>(proc.gpr[r::T3]), -16);
    EXPECT_EQ(proc.gpr[r::T5], 0xf0u);
    EXPECT_EQ(proc.gpr[r::T6], 0xfff0u);
    EXPECT_EQ(proc.gpr[r::T7], 0xf00fu);
    EXPECT_EQ(proc.gpr[r::T8], 0xffffffffu);
}

TEST(SimMemory, WidthsSignsAndRegions)
{
    ProgramBuilder b("mem");
    b.globalWord("g", 0);
    b.emitStartStub("main");
    b.beginFunction("main", 2);
    b.li(r::T0, -2);                    // 0xfffffffe
    b.swGlobal(r::T0, "g");             // data store via $gp
    b.la(r::T1, "g");
    b.lb(r::T2, 0, r::T1);              // sign-extended byte: -2
    b.lbu(r::T3, 0, r::T1);             // zero-extended: 0xfe
    b.lh(r::T4, 0, r::T1);              // -2
    b.lhu(r::T5, 0, r::T1);             // 0xfffe
    b.sw(r::T0, b.localOffset(0), r::Sp);   // stack
    b.lw(r::T6, b.localOffset(0), r::Sp);
    b.fnReturn();
    b.endFunction();

    auto prog = b.finish();
    sim::Simulator simulator(prog);
    std::vector<sim::StepInfo> mem_steps;
    simulator.run(0, [&](const sim::StepInfo &step) {
        if (step.isMem)
            mem_steps.push_back(step);
    });
    const auto &proc = simulator.process();
    EXPECT_EQ(static_cast<SWord>(proc.gpr[r::T2]), -2);
    EXPECT_EQ(proc.gpr[r::T3], 0xfeu);
    EXPECT_EQ(static_cast<SWord>(proc.gpr[r::T4]), -2);
    EXPECT_EQ(proc.gpr[r::T5], 0xfffeu);
    EXPECT_EQ(proc.gpr[r::T6], 0xfffffffeu);

    // Regions: the $gp store and pointer loads are data; the spill
    // pair is stack; prologue/epilogue traffic is stack.
    unsigned data_refs = 0, stack_refs = 0;
    for (const auto &step : mem_steps) {
        if (step.region == vm::Region::Data)
            ++data_refs;
        else if (step.region == vm::Region::Stack)
            ++stack_refs;
    }
    EXPECT_EQ(data_refs, 5u);
    EXPECT_GE(stack_refs, 6u);  // frame + spill pair
}

TEST(SimControl, BranchesAndHistory)
{
    ProgramBuilder b("branches");
    b.emitStartStub("main");
    b.beginFunction("main", 0);
    Label skip = b.label();
    Label join = b.label();
    b.li(r::T0, 1);
    b.blez(r::T0, skip);       // not taken
    b.li(r::T1, 10);
    b.bgtz(r::T0, join);       // taken
    b.bind(skip);
    b.li(r::T1, 20);           // skipped
    b.bind(join);
    b.fnReturn();
    b.endFunction();

    sim::Simulator simulator(b.finish());
    std::vector<sim::StepInfo> branches;
    simulator.run(0, [&](const sim::StepInfo &step) {
        if (step.isBranch)
            branches.push_back(step);
    });
    EXPECT_EQ(simulator.process().gpr[r::T1], 10u);
    ASSERT_EQ(branches.size(), 2u);
    EXPECT_FALSE(branches[0].branchTaken);
    EXPECT_TRUE(branches[1].branchTaken);
    // GBH recorded *before* each branch executes; after both, the
    // register holds the taken pattern 0b01.
    EXPECT_EQ(branches[1].gbh & 1u, 0u);
    EXPECT_EQ(simulator.branchHistory() & 3u, 0b01u);
}

TEST(SimControl, CallReturnAndCid)
{
    ProgramBuilder b("calls");
    b.globalWord("sink", 0);
    b.emitStartStub("main");
    b.beginLeaf("callee");
    b.lwGlobal(r::T0, "sink");     // a memory step inside the callee
    b.addi(r::V0, r::T0, 1);
    b.fnReturn();
    b.endFunction();
    b.beginFunction("main", 0);
    b.jal("callee");
    b.fnReturn();
    b.endFunction();

    auto prog = b.finish();
    Addr callee_addr = 0;
    ASSERT_TRUE(prog->lookup("callee", callee_addr));

    sim::Simulator simulator(prog);
    std::vector<sim::StepInfo> steps;
    simulator.run(0, [&](const sim::StepInfo &step) {
        steps.push_back(step);
    });

    // Find the jal, the callee's load, and the return.
    const sim::StepInfo *call = nullptr;
    const sim::StepInfo *load = nullptr;
    const sim::StepInfo *ret = nullptr;
    for (const auto &step : steps) {
        if (step.isCall && step.nextPc == callee_addr)
            call = &step;
        if (step.isMem && step.pc >= callee_addr &&
            step.pc < callee_addr + 16)
            load = &step;
        if (step.isReturn && !ret && call)
            ret = &step;
    }
    ASSERT_NE(call, nullptr);
    ASSERT_NE(load, nullptr);
    ASSERT_NE(ret, nullptr);
    // CID inside the callee = return address = call pc + 4.
    EXPECT_EQ(load->cid, call->pc + 4);
    EXPECT_EQ(ret->nextPc, call->pc + 4);
}

TEST(SimFloat, ArithmeticAndConversion)
{
    ProgramBuilder b("fp");
    b.emitStartStub("main");
    b.beginFunction("main", 0);
    b.fli(0, 1.5f);
    b.fli(1, 2.25f);
    b.fadd(2, 0, 1);           // 3.75
    b.fmul(3, 0, 1);           // 3.375
    b.fsub(4, 1, 0);           // 0.75
    b.fdiv(5, 1, 0);           // 1.5
    b.fneg(6, 0);              // -1.5
    b.flt(r::T0, 0, 1);        // 1
    b.fle(r::T1, 1, 0);        // 0
    b.feq(r::T2, 0, 0);        // 1
    b.li(r::T3, 7);
    b.mtc1(7, r::T3);
    b.cvtsw(7, 7);             // 7.0f
    b.cvtws(8, 7);             // 7
    b.mfc1(r::T4, 8);
    b.fnReturn();
    b.endFunction();

    sim::Simulator simulator(b.finish());
    simulator.run();
    const auto &proc = simulator.process();
    EXPECT_EQ(std::bit_cast<float>(proc.fpr[2]), 3.75f);
    EXPECT_EQ(std::bit_cast<float>(proc.fpr[3]), 3.375f);
    EXPECT_EQ(std::bit_cast<float>(proc.fpr[4]), 0.75f);
    EXPECT_EQ(std::bit_cast<float>(proc.fpr[5]), 1.5f);
    EXPECT_EQ(std::bit_cast<float>(proc.fpr[6]), -1.5f);
    EXPECT_EQ(proc.gpr[r::T0], 1u);
    EXPECT_EQ(proc.gpr[r::T1], 0u);
    EXPECT_EQ(proc.gpr[r::T2], 1u);
    EXPECT_EQ(proc.gpr[r::T4], 7u);
}

TEST(SimSyscalls, PrintMallocFreeRand)
{
    ProgramBuilder b("sys");
    b.emitStartStub("main");
    b.beginFunction("main", 0, {r::S0});
    b.li(r::A0, -42);
    b.li(r::V0, 1);                 // print_int(-42)
    b.syscall();
    b.li(r::A0, ';');
    b.li(r::V0, 2);                 // print_char(';')
    b.syscall();
    b.li(r::A0, 64);
    b.li(r::V0, 13);                // malloc(64)
    b.syscall();
    b.move(r::S0, r::V0);
    b.li(r::T0, 99);
    b.sw(r::T0, 0, r::S0);          // heap write
    b.lw(r::A0, 0, r::S0);
    b.li(r::V0, 1);                 // print_int(99)
    b.syscall();
    b.move(r::A0, r::S0);
    b.li(r::V0, 14);                // free
    b.syscall();
    b.li(r::V0, 17);                // rand
    b.syscall();
    b.fnReturn();
    b.endFunction();

    auto prog = b.finish();
    sim::Simulator simulator(prog);
    std::vector<sim::StepInfo> heap_steps;
    simulator.run(0, [&](const sim::StepInfo &step) {
        if (step.isMem && step.region == vm::Region::Heap)
            heap_steps.push_back(step);
    });
    EXPECT_EQ(simulator.process().output, "-42;99");
    EXPECT_EQ(heap_steps.size(), 2u);
    EXPECT_EQ(simulator.process().heap.liveBlocks(), 0u);
    // rand returned a 31-bit value in $v0.
    EXPECT_LE(simulator.process().gpr[r::V0], 0x7fffffffu);
}

TEST(SimSyscalls, ExitStopsExecution)
{
    ProgramBuilder b("exitc");
    Label start = b.bindHere("_start");
    (void)start;
    b.exit_(3);
    b.li(r::T0, 77);  // never executed
    auto prog = b.finish();
    sim::Simulator simulator(prog);
    InstCount n = simulator.run();
    EXPECT_TRUE(simulator.halted());
    EXPECT_EQ(simulator.process().exitCode, 3u);
    EXPECT_EQ(n, 3u);  // li a0, li v0, syscall
    EXPECT_EQ(simulator.process().gpr[r::T0], 0u);
}

TEST(SimStepInfo, ResultValuesCaptured)
{
    ProgramBuilder b("results");
    b.emitStartStub("main");
    b.beginFunction("main", 1);
    b.li(r::T0, 1111);
    b.sw(r::T0, b.localOffset(0), r::Sp);
    b.lw(r::T1, b.localOffset(0), r::Sp);
    b.fnReturn();
    b.endFunction();

    sim::Simulator simulator(b.finish());
    std::vector<sim::StepInfo> steps;
    simulator.run(0, [&](const sim::StepInfo &step) {
        steps.push_back(step);
    });
    bool saw_store = false, saw_load = false;
    for (const auto &step : steps) {
        if (step.isMem && !step.isLoad && step.storeValue == 1111)
            saw_store = true;
        if (step.isMem && step.isLoad && step.dest == r::T1 &&
            step.result == 1111)
            saw_load = true;
    }
    EXPECT_TRUE(saw_store);
    EXPECT_TRUE(saw_load);
}

TEST(SimRun, MaxInstsLimit)
{
    ProgramBuilder b("spin");
    Label start = b.bindHere("_start");
    Label loop = b.label();
    b.bind(loop);
    b.addi(r::T0, r::T0, 1);
    b.j(loop);
    (void)start;
    sim::Simulator simulator(b.finish());
    InstCount n = simulator.run(1000);
    EXPECT_EQ(n, 1000u);
    EXPECT_FALSE(simulator.halted());
    EXPECT_EQ(simulator.instCount(), 1000u);
}

TEST(SimDeterminism, SameProgramSameTrace)
{
    ProgramBuilder b1("det");
    b1.emitStartStub("main");
    b1.beginFunction("main", 0);
    b1.li(r::V0, 17);
    b1.syscall();                 // rand
    b1.move(r::A0, r::V0);
    b1.li(r::V0, 1);
    b1.syscall();                 // print
    b1.fnReturn();
    b1.endFunction();
    auto prog = b1.finish();

    sim::Simulator s1(prog), s2(prog);
    s1.run();
    s2.run();
    EXPECT_EQ(s1.process().output, s2.process().output);
    EXPECT_FALSE(s1.process().output.empty());
}

namespace
{

/** A record of @p inst as every source makes it: dest from the ISA. */
sim::StepInfo
recordOf(isa::DecodedInst inst)
{
    sim::StepInfo step;
    step.inst = inst;
    step.dest = isa::instDest(inst);
    return step;
}

/** srcDist of @p step after @p writers fills it. */
std::vector<unsigned>
fillDists(sim::LastWriters &writers, sim::StepInfo step)
{
    writers.fill(step);
    EXPECT_TRUE(step.srcDistFilled);
    return {step.srcDist[0], step.srcDist[1], step.srcDist[2]};
}

using isa::Opcode;
using Dists = std::vector<unsigned>;

} // namespace

TEST(SimLastWriters, NamesEachSourcesLastWriter)
{
    sim::LastWriters w;
    // $zero is never a source, and writing it is no write.
    EXPECT_EQ(fillDists(w, recordOf({Opcode::Addi, r::T1, r::Zero, 0, 5, 0})),
              (Dists{0, 0, 0}));
    EXPECT_EQ(fillDists(w, recordOf({Opcode::Addi, r::Zero, r::T1, 0, 1, 0})),
              (Dists{1, 0, 0}));
    EXPECT_EQ(fillDists(w, recordOf({Opcode::Add, r::T2, r::Zero, r::T1, 0,
                                     0})),
              (Dists{2, 0, 0}));
    // addi $t0, $t0, 1 names the previous writer, not itself.
    EXPECT_EQ(fillDists(w, recordOf({Opcode::Addi, r::T0, r::T0, 0, 1, 0})),
              (Dists{0, 0, 0}));
    EXPECT_EQ(fillDists(w, recordOf({Opcode::Addi, r::T0, r::T0, 0, 1, 0})),
              (Dists{1, 0, 0}));
    // syscall reads $v0 and $a0 and writes $v0.
    EXPECT_EQ(fillDists(w, recordOf({Opcode::Syscall, 0, 0, 0, 0, 0})),
              (Dists{0, 0, 0}));
    EXPECT_EQ(fillDists(w, recordOf({Opcode::Addi, r::A0, r::T2, 0, 0, 0})),
              (Dists{4, 0, 0}));
    EXPECT_EQ(fillDists(w, recordOf({Opcode::Syscall, 0, 0, 0, 0, 0})),
              (Dists{2, 1, 0}));
    // jal writes $ra.
    EXPECT_EQ(fillDists(w, recordOf({Opcode::Jal, 0, 0, 0, 0, 0x100})),
              (Dists{0, 0, 0}));
    EXPECT_EQ(fillDists(w, recordOf({Opcode::Jr, 0, r::Ra, 0, 0, 0})),
              (Dists{1, 0, 0}));
    // FP registers map to 32 and up: $f4 is not $a0 (GPR 4).
    EXPECT_EQ(fillDists(w, recordOf({Opcode::Mtc1, 4, r::T0, 0, 0, 0})),
              (Dists{6, 0, 0}));
    EXPECT_EQ(fillDists(w, recordOf({Opcode::Addi, r::A0, r::Zero, 0, 9,
                                     0})),
              (Dists{0, 0, 0}));
    const sim::StepInfo fadd = recordOf({Opcode::FaddS, 6, 4, 4, 0, 0});
    EXPECT_EQ(fadd.dest, isa::FprBase + 6);
    EXPECT_EQ(fillDists(w, fadd), (Dists{2, 2, 0}));
    // A store's base comes first, then its data.
    EXPECT_EQ(fillDists(w, recordOf({Opcode::Sw, r::T2, r::T0, 0, 0, 0})),
              (Dists{9, 11, 0}));
}

TEST(SimLastWriters, KeepsDistancesUpToMaxDist)
{
    static_assert(sim::LastWriters::MaxDist == 65535);
    const sim::StepInfo nop = recordOf({Opcode::Nop, 0, 0, 0, 0, 0});
    const sim::StepInfo write = recordOf({Opcode::Addi, r::T0, r::Zero, 0, 1,
                                          0});
    const sim::StepInfo read = recordOf({Opcode::Addi, r::T1, r::T0, 0, 0,
                                         0});
    for (InstCount between : {InstCount{65534}, InstCount{65535}}) {
        sim::LastWriters w;
        fillDists(w, write);
        for (InstCount i = 0; i < between; ++i)
            fillDists(w, nop);
        const unsigned expected = between + 1 <= 65535 ? 65535 : 0;
        EXPECT_EQ(fillDists(w, read), (Dists{expected, 0, 0}))
            << between << " records between";
    }
}

TEST(SimLastWriters, SkippedRecordsStillCountAsWriters)
{
    // skip() fills nothing but moves the stream on, and its record
    // stays its dest's writer.
    sim::LastWriters w;
    w.skip(recordOf({Opcode::Addi, r::T0, r::Zero, 0, 1, 0}));
    w.skip(recordOf({Opcode::Nop, 0, 0, 0, 0, 0}));
    EXPECT_EQ(fillDists(w, recordOf({Opcode::Addi, r::T1, r::T0, 0, 0, 0})),
              (Dists{2, 0, 0}));
}

TEST(SimLastWriters, StartsAfreshAtASeek)
{
    // A stream seeked to record 2 is filled by a fresh LastWriters:
    // it names no writer before the seek, and later ones as usual.
    const sim::StepInfo stream[] = {
        recordOf({Opcode::Addi, r::T0, r::Zero, 0, 1, 0}),
        recordOf({Opcode::Addi, r::T1, r::Zero, 0, 2, 0}),
        recordOf({Opcode::Add, r::T2, r::T0, r::T1, 0, 0}),
        recordOf({Opcode::Addi, r::T0, r::T2, 0, 3, 0}),
        recordOf({Opcode::Add, r::T3, r::T0, r::T1, 0, 0}),
    };
    sim::LastWriters from_start;
    sim::LastWriters from_seek;
    std::vector<Dists> whole, seeked;
    for (const sim::StepInfo &step : stream)
        whole.push_back(fillDists(from_start, step));
    for (std::size_t i = 2; i < std::size(stream); ++i)
        seeked.push_back(fillDists(from_seek, stream[i]));
    EXPECT_EQ(whole[2], (Dists{2, 1, 0}));
    EXPECT_EQ(seeked[0], (Dists{0, 0, 0}));
    EXPECT_EQ(whole[3], (Dists{1, 0, 0}));
    EXPECT_EQ(seeked[1], (Dists{1, 0, 0}));
    EXPECT_EQ(whole[4], (Dists{1, 3, 0}));
    EXPECT_EQ(seeked[2], (Dists{1, 0, 0}));
}
