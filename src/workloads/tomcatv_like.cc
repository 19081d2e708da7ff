/**
 * @file
 * 101.tomcatv substitute: 2-D FP mesh relaxation with heavy FP
 * register spilling and a small heap scratch row.
 *
 * Character reproduced (paper Table 2 / Fig 2): uniquely for an FP
 * code, *stack-dominant* (5.97 stack vs 3.96 data per 32, both very
 * bursty) — compiled tomcatv spills many FP temporaries per mesh
 * point — with a small heap component (0.63).  tomcatv is also
 * called out in the paper as having more multi-region instructions:
 * the shared row_reduce() helper here is called with data, heap, and
 * stack pointers in turn.
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
constexpr unsigned Dim = 48;
constexpr unsigned GridWords = Dim * Dim;
} // namespace

std::shared_ptr<vm::Program>
buildTomcatvLike(unsigned scale)
{
    ProgramBuilder b("tomcatv_like");

    b.globalWord("scratch_ptr", 0);     // heap row buffer
    b.globalWord("iters_done", 0);
    b.globalArray("X", GridWords);
    b.globalArray("Y", GridWords);
    b.globalArray("RX", GridWords);

    b.emitStartStub("main");

    // ---- word row_reduce(fptr /*a0*/, n /*a1*/) -> v0 ----
    // Sums a float row through a pointer: called with &RX[row]
    // (data), the heap scratch row, and a stack-resident residual
    // buffer — a three-region instruction (Fig 1's *parm1).
    b.beginFunction("row_reduce", 0);
    {
        b.fli(4, 0.0f);
        Label loop = b.label();
        Label done = b.label();
        b.bind(loop);
        b.blez(r::A1, done);
        b.lwc1(0, 0, r::A0);                  // D / H / S by call site
        b.fadd(4, 4, 0);
        b.addi(r::A0, r::A0, 4);
        b.addi(r::A1, r::A1, -1);
        b.j(loop);
        b.bind(done);
        b.cvtws(4, 4);
        b.mfc1(r::V0, 4);
        b.fnReturn();
        b.endFunction();
    }

    // ---- word relax_row(row /*a0*/) -> v0 ----
    // Per-point 5-point relaxation with 4 FP spill pairs per point
    // (tomcatv's register pressure), residuals collected both into a
    // stack buffer and the heap scratch row.
    b.beginFunction("relax_row", 20, {r::S0, r::S1, r::S2, r::S3});
    {
        b.move(r::S0, r::A0);                 // row index
        b.li(r::T0, Dim * 4);
        b.mul(r::T1, r::S0, r::T0);
        b.la(r::S1, "X");
        b.add(r::S1, r::S1, r::T1);
        b.addi(r::S1, r::S1, 4);              // &X[row][1]
        b.la(r::S2, "Y");
        b.add(r::S2, r::S2, r::T1);
        b.addi(r::S2, r::S2, 4);
        b.li(r::S3, Dim - 2);                 // interior columns
        b.fli(10, 0.25f);
        Label cols = b.label();
        Label done = b.label();
        b.bind(cols);
        b.blez(r::S3, done);
        b.lwc1(0, -4, r::S1);                 // X west (data)
        b.lwc1(1, 4, r::S1);                  // X east (data)
        b.lwc1(2, -(static_cast<std::int32_t>(Dim) * 4), r::S1);
        b.lwc1(3, static_cast<std::int32_t>(Dim) * 4, r::S1);
        // Spill the four neighbours (stack FP traffic).
        b.swc1(0, b.localOffset(0), r::Sp);
        b.swc1(1, b.localOffset(1), r::Sp);
        b.swc1(2, b.localOffset(2), r::Sp);
        b.swc1(3, b.localOffset(3), r::Sp);
        b.lwc1(5, 0, r::S2);                  // Y center (data)
        b.fadd(0, 0, 1);
        b.fadd(2, 2, 3);
        b.fadd(0, 0, 2);
        b.fmul(0, 0, 10);                     // average
        b.fsub(6, 0, 5);                      // residual
        // Reload two spills and fold them in (more stack traffic).
        b.lwc1(7, b.localOffset(0), r::Sp);
        b.lwc1(8, b.localOffset(2), r::Sp);
        b.fadd(7, 7, 8);
        b.fmul(7, 7, 10);
        b.fadd(0, 0, 7);
        b.fmul(0, 0, 10);
        b.swc1(0, 0, r::S1);                  // X update (data)
        // Residual alternates between the stack buffer (odd columns)
        // and the heap scratch row (even columns): this single swc1
        // is an H/S multi-region instruction — the paper singles out
        // tomcatv as having more such instructions.
        {
            Label to_stack = b.label();
            Label store = b.label();
            b.andi(r::T4, r::S3, 1);
            b.bne(r::T4, r::Zero, to_stack);
            b.lwGlobal(r::T3, "scratch_ptr");
            b.andi(r::T2, r::S3, 31);
            b.sll(r::T2, r::T2, 2);
            b.add(r::T3, r::T3, r::T2);       // heap slot
            b.j(store);
            b.bind(to_stack);
            b.andi(r::T2, r::S3, 11);
            b.addi(r::T2, r::T2, 4);
            b.sll(r::T2, r::T2, 2);
            b.add(r::T3, r::Sp, r::T2);       // stack slot
            b.bind(store);
            b.swc1(6, 0, r::T3);              // residual (H/S)
        }
        b.addi(r::S1, r::S1, 4);
        b.addi(r::S2, r::S2, 4);
        b.addi(r::S3, r::S3, -1);
        b.j(cols);
        b.bind(done);

        // Copy a few residuals into the heap scratch row.
        b.lwGlobal(r::T4, "scratch_ptr");
        b.lwc1(9, b.localOffset(4), r::Sp);   // (stack)
        b.swc1(9, 0, r::T4);                  // (heap)
        b.lwc1(9, b.localOffset(5), r::Sp);
        b.swc1(9, 4, r::T4);
        b.lwc1(9, b.localOffset(6), r::Sp);
        b.swc1(9, 8, r::T4);

        // Reduce: stack residuals, then the heap scratch row.
        b.addi(r::A0, r::Sp, b.localOffset(4));
        b.li(r::A1, 12);
        b.jal("row_reduce");                  // stack call site
        b.move(r::S0, r::V0);
        b.lwGlobal(r::A0, "scratch_ptr");
        b.li(r::A1, 3);
        b.jal("row_reduce");                  // heap call site
        b.add(r::V0, r::V0, r::S0);
        b.fnReturn();
        b.endFunction();
    }

    // ---- int main() ----
    b.beginFunction("main", 1, {r::S0, r::S1, r::S2});
    {
        b.li(r::A0, Dim * 4);
        b.li(r::V0, 13);                      // heap scratch row
        b.syscall();
        b.swGlobal(r::V0, "scratch_ptr");

        // Fill X and Y.
        b.la(r::T0, "X");
        b.la(r::T1, "Y");
        b.li(r::T2, GridWords);
        b.li(r::T7, 1999);
        b.fli(8, 1.0f / 128.0f);
        Label fill = b.label();
        b.bind(fill);
        emitLcgStep(b, r::T3, r::T7, r::T4);
        b.andi(r::T3, r::T3, 255);
        b.mtc1(9, r::T3);
        b.cvtsw(9, 9);
        b.fmul(9, 9, 8);
        b.swc1(9, 0, r::T0);
        b.swc1(9, 0, r::T1);
        b.addi(r::T0, r::T0, 4);
        b.addi(r::T1, r::T1, 4);
        b.addi(r::T2, r::T2, -1);
        b.bgtz(r::T2, fill);

        b.li(r::S0, scaledCount(14, scale));  // iters
        b.li(r::S2, 0);
        Label iters = b.label();
        Label iters_done = b.label();
        b.bind(iters);
        b.blez(r::S0, iters_done);
        b.li(r::S1, 1);                        // interior rows 1..Dim-2
        Label rows = b.label();
        Label rows_done = b.label();
        b.bind(rows);
        b.li(r::T0, Dim - 1);
        b.beq(r::S1, r::T0, rows_done);
        b.move(r::A0, r::S1);
        b.jal("relax_row");
        b.add(r::S2, r::S2, r::V0);
        b.addi(r::S1, r::S1, 1);
        b.j(rows);
        b.bind(rows_done);
        // Whole-mesh reduction through the data call site.
        b.la(r::A0, "RX");
        b.li(r::A1, 64);
        b.jal("row_reduce");                  // data call site
        b.add(r::S2, r::S2, r::V0);
        b.lwGlobal(r::T1, "iters_done");
        b.addi(r::T1, r::T1, 1);
        b.swGlobal(r::T1, "iters_done");
        b.addi(r::S0, r::S0, -1);
        b.j(iters);
        b.bind(iters_done);
        b.move(r::A0, r::S2);
        b.li(r::V0, 1);
        b.syscall();
        b.li(r::V0, 0);
        b.fnReturn();
        b.endFunction();
    }

    return b.finish();
}

} // namespace arl::workloads
