/**
 * @file
 * 124.m88ksim substitute: an instruction-set interpreter — the
 * simulated CPU's registers live in the data segment, its memory on
 * the heap, and dispatch goes through a function-pointer table.
 *
 * Character reproduced (paper Table 2 / Fig 2): a balanced D/H/S mix
 * with *bursty heap* accesses (guest loads/stores cluster), and —
 * distinctive for m88ksim and perl in the paper — a visible
 * population of multi-region static instructions: the write_result()
 * helper receives pointers both to guest registers (data) and to a
 * stack-resident pipeline latch, so its store is a D/S instruction
 * straight out of the paper's Figure 1.
 */

#include "workloads/workloads.hh"

#include "builder/program_builder.hh"
#include "workloads/util.hh"

namespace arl::workloads
{

namespace r = isa::reg;
using builder::Label;
using builder::ProgramBuilder;

namespace
{
constexpr unsigned GuestMemWords = 16384;
constexpr unsigned GuestProgWords = 4096;
} // namespace

std::shared_ptr<vm::Program>
buildM88ksimLike(unsigned scale)
{
    ProgramBuilder b("m88ksim_like");

    b.globalArray("guest_regs", 32);
    b.globalWord("guest_mem_ptr", 0);     // heap base, set at init
    b.globalWord("guest_pc", 0);
    b.globalWord("retired", 0);
    b.globalArray("handlers", 4);         // function-pointer table
    b.globalArray("prefetch_buf", 16);    // "icache" refill buffer

    b.emitStartStub("main");

    // ---- void write_result(word *dst /*a0*/, word val /*a1*/) ----
    // The paper's *parm1: dst is &guest_regs[i] (data) from the ALU
    // handler but a stack latch from the dispatch loop.
    b.beginLeaf("write_result");
    {
        b.sw(r::A1, 0, r::A0);            // multi-region store (D/S)
        b.lw(r::T0, 0, r::A0);            // read-back (D/S load)
        b.add(r::V0, r::T0, r::A1);
        b.fnReturn();
        b.endFunction();
    }

    // ---- handler: word h_alu(inst /*a0*/) ----
    b.beginFunction("h_alu", 0);
    {
        b.srl(r::T0, r::A0, 8);
        b.andi(r::T0, r::T0, 31);         // rs
        b.sll(r::T0, r::T0, 2);
        b.la(r::T1, "guest_regs");
        b.add(r::T2, r::T1, r::T0);
        b.lw(r::T3, 0, r::T2);            // guest rs (data)
        b.andi(r::T4, r::A0, 255);        // imm8
        b.add(r::T3, r::T3, r::T4);
        b.srl(r::T5, r::A0, 16);
        b.andi(r::T5, r::T5, 31);         // rd
        b.sll(r::T5, r::T5, 2);
        b.add(r::A0, r::T1, r::T5);       // &guest_regs[rd] (data ptr)
        b.move(r::A1, r::T3);
        b.jal("write_result");
        b.fnReturn();
        b.endFunction();
    }

    // ---- handler: word h_load(inst /*a0*/) ----
    b.beginLeaf("h_load");
    {
        b.move(r::T7, r::A0);
        b.lwGlobal(r::T0, "guest_mem_ptr");
        b.li(r::T1, (GuestMemWords - 1) * 4);
        b.sll(r::T2, r::T7, 2);
        b.and_(r::T2, r::T2, r::T1);      // word-aligned guest addr
        b.add(r::T3, r::T0, r::T2);
        b.lw(r::T4, 0, r::T3);            // guest memory (heap)
        b.srl(r::T5, r::T7, 16);
        b.andi(r::T5, r::T5, 31);
        b.sll(r::T5, r::T5, 2);
        b.la(r::T6, "guest_regs");
        b.add(r::T6, r::T6, r::T5);
        b.sw(r::T4, 0, r::T6);            // write guest rd (data)
        b.move(r::V0, r::T4);
        b.fnReturn();
        b.endFunction();
    }

    // ---- handler: word h_store(inst /*a0*/) ----
    b.beginLeaf("h_store");
    {
        b.move(r::T7, r::A0);
        b.srl(r::T0, r::T7, 8);
        b.andi(r::T0, r::T0, 31);
        b.sll(r::T0, r::T0, 2);
        b.la(r::T1, "guest_regs");
        b.add(r::T1, r::T1, r::T0);
        b.lw(r::T2, 0, r::T1);            // guest rs (data)
        b.lwGlobal(r::T3, "guest_mem_ptr");
        b.li(r::T4, (GuestMemWords - 1) * 4);
        b.sll(r::T5, r::T7, 2);
        b.and_(r::T5, r::T5, r::T4);
        b.add(r::T6, r::T3, r::T5);
        b.sw(r::T2, 0, r::T6);            // guest memory (heap)
        b.move(r::V0, r::T2);
        b.fnReturn();
        b.endFunction();
    }

    // ---- handler: word h_branch(inst /*a0*/) ----
    b.beginLeaf("h_branch");
    {
        b.lwGlobal(r::T0, "guest_pc");
        b.andi(r::T1, r::A0, GuestProgWords - 1);
        b.add(r::T0, r::T0, r::T1);
        b.swGlobal(r::T0, "guest_pc");
        b.move(r::V0, r::T0);
        b.fnReturn();
        b.endFunction();
    }

    // ---- word simulate(cycles /*a0*/) -> v0 ----
    b.beginFunction("simulate", 4, {r::S0, r::S1, r::S2, r::S3, r::S4});
    {
        b.move(r::S0, r::A0);             // remaining cycles
        b.lwGlobal(r::S1, "guest_mem_ptr");
        b.li(r::S2, 0);                   // local checksum
        b.li(r::S3, 0);                   // fetch cursor
        Label loop = b.label();
        Label done = b.label();
        b.bind(loop);
        b.blez(r::S0, done);
        // Fetch from guest program (heap).
        b.andi(r::T0, r::S3, GuestProgWords - 1);
        b.sll(r::T0, r::T0, 2);
        b.add(r::T1, r::S1, r::T0);
        b.lw(r::S4, 0, r::T1);            // guest inst (heap)
        // Dispatch through the function-pointer table (data).
        b.srl(r::T2, r::S4, 28);
        b.andi(r::T2, r::T2, 3);
        b.sll(r::T2, r::T2, 2);
        b.la(r::T3, "handlers");
        b.add(r::T3, r::T3, r::T2);
        b.lw(r::T4, 0, r::T3);            // handler ptr (data)
        b.move(r::A0, r::S4);
        b.jalr(r::Ra, r::T4);             // indirect call
        b.add(r::S2, r::S2, r::V0);
        // Every 16th instruction, latch into a *stack* slot through
        // the shared helper (making its store multi-region).
        b.andi(r::T5, r::S3, 15);
        Label no_latch = b.label();
        b.bne(r::T5, r::Zero, no_latch);
        b.addi(r::A0, r::Sp, 0);          // &latch (stack ptr!)
        b.move(r::A1, r::S2);
        b.jal("write_result");
        b.bind(no_latch);
        // Every 64th instruction: an "icache refill" burst — 16
        // words streamed from guest memory (heap) into a static
        // buffer.  This is what makes m88ksim's heap accesses
        // strictly bursty in Table 2.
        b.andi(r::T5, r::S3, 63);
        Label no_refill = b.label();
        b.bne(r::T5, r::Zero, no_refill);
        b.la(r::A0, "prefetch_buf");
        b.andi(r::T6, r::S3, GuestMemWords - 64);
        b.sll(r::T6, r::T6, 2);
        b.add(r::A1, r::S1, r::T6);
        b.li(r::A2, 16);
        b.jal("memcpy_w");                // heap -> data burst
        b.bind(no_refill);
        b.lwGlobal(r::T6, "retired");
        b.addi(r::T6, r::T6, 1);
        b.swGlobal(r::T6, "retired");
        b.addi(r::S3, r::S3, 1);
        b.addi(r::S0, r::S0, -1);
        b.j(loop);
        b.bind(done);
        b.move(r::V0, r::S2);
        b.fnReturn();
        b.endFunction();
    }

    // ---- int main() ----
    b.beginFunction("main", 1, {r::S0, r::S1});
    {
        // Allocate and fill guest memory with synthetic instructions.
        b.li(r::A0, GuestMemWords * 4);
        b.li(r::V0, 13);
        b.syscall();
        b.swGlobal(r::V0, "guest_mem_ptr");
        b.move(r::S0, r::V0);
        b.li(r::S1, GuestMemWords);
        b.li(r::T7, 424243);              // register LCG
        Label fill = b.label();
        b.bind(fill);
        emitLcgStep(b, r::T0, r::T7, r::T1);
        b.sll(r::T2, r::T0, 17);          // spread bits into op field
        b.or_(r::T2, r::T2, r::T0);
        b.sw(r::T2, 0, r::S0);            // guest inst (heap)
        b.addi(r::S0, r::S0, 4);
        b.addi(r::S1, r::S1, -1);
        b.bgtz(r::S1, fill);

        // Install the handler table (function pointers in data).
        b.laFunc(r::T0, "h_alu");
        b.swGlobal(r::T0, "handlers");
        b.laFunc(r::T0, "h_load");
        b.la(r::T1, "handlers");
        b.sw(r::T0, 4, r::T1);
        b.laFunc(r::T0, "h_store");
        b.sw(r::T0, 8, r::T1);
        b.laFunc(r::T0, "h_branch");
        b.sw(r::T0, 12, r::T1);

        b.li(r::A0, scaledCount(120000, scale));
        b.jal("simulate");
        b.move(r::A0, r::V0);
        b.li(r::V0, 1);
        b.syscall();
        b.li(r::V0, 0);
        b.fnReturn();
        b.endFunction();
    }

    emitMemcpyWords(b);

    return b.finish();
}

} // namespace arl::workloads
