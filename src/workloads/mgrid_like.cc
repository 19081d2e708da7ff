/**
 * @file
 * 107.mgrid substitute: 3-D multigrid-style stencil relaxation over
 * static FP arrays.
 *
 * Character reproduced (paper Table 2): the most data-dominant
 * program in the suite (9.57 data refs per 32 instructions) with a
 * *steady* (non-bursty, σ 2.98 < mean) data stream — one tight
 * triple loop with almost no calls — zero heap, and a small stack
 * component.
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
constexpr unsigned Dim = 16;
constexpr unsigned PlaneWords = Dim * Dim;
constexpr unsigned GridWords = Dim * Dim * Dim;
} // namespace

std::shared_ptr<vm::Program>
buildMgridLike(unsigned scale)
{
    ProgramBuilder b("mgrid_like");

    b.globalWord("relax_calls", 0);
    b.globalArray("GRID", GridWords);
    b.globalArray("RHS", GridWords);

    b.emitStartStub("main");

    // ---- word relax(src /*a0*/, dst /*a1*/) -> v0 ----
    // One 7-point Jacobi sweep from src into dst (the caller
    // ping-pongs GRID and RHS).  The loop is unrolled by two with
    // independent accumulators and spill chains, as the paper's
    // EGCS -O3 + loop unrolling would emit; this is what lets an FP
    // code demand more than two cache ports per cycle.
    b.beginFunction("relax", 4, {r::S0, r::S1, r::S2, r::S3});
    {
        constexpr std::int32_t row = static_cast<std::int32_t>(Dim) * 4;
        constexpr std::int32_t plane =
            static_cast<std::int32_t>(PlaneWords) * 4;
        b.fli(10, 1.0f / 8.0f);
        b.fli(11, 0.0f);                      // accumulator, even pts
        b.fmov(13, 11);                       // accumulator, odd pts
        b.fmov(12, 11);                       // spill-check chain A
        b.fmov(15, 11);                       // spill-check chain B
        b.move(r::S0, r::A0);                 // src plane
        b.move(r::S1, r::A1);                 // dst plane
        b.li(r::S2, PlaneWords + Dim + 1);                 // idx
        b.li(r::S3, GridWords - PlaneWords - Dim - 2);     // limit
        Label loop = b.label();
        Label done = b.label();
        b.bind(loop);
        b.slt(r::T0, r::S2, r::S3);
        b.beq(r::T0, r::Zero, done);
        b.sll(r::T1, r::S2, 2);
        b.add(r::T2, r::S0, r::T1);           // &src[idx]
        b.add(r::T3, r::S1, r::T1);           // &dst[idx]
        // Even point.
        b.lwc1(0, -4, r::T2);                 // x-1     (data)
        b.lwc1(1, 4, r::T2);                  // x+1     (data)
        b.lwc1(2, -row, r::T2);
        b.lwc1(3, row, r::T2);
        b.lwc1(4, -plane, r::T2);
        b.lwc1(5, plane, r::T2);
        b.lwc1(6, 0, r::T2);                  // centre  (data)
        b.fadd(0, 0, 1);
        b.fadd(2, 2, 3);
        b.fadd(4, 4, 5);
        b.fadd(0, 0, 2);
        b.fadd(0, 0, 4);
        b.fadd(0, 0, 6);
        b.fmul(0, 0, 10);                     // / 8
        b.swc1(0, b.localOffset(1), r::Sp);   // spill (stack)
        b.swc1(0, 0, r::T3);                  // dst[idx] (data)
        b.fadd(11, 11, 0);
        // Odd point (independent registers and accumulators).
        b.lwc1(14, 0, r::T2);
        b.lwc1(16, 8, r::T2);
        b.lwc1(17, 4 - row, r::T2);
        b.lwc1(18, 4 + row, r::T2);
        b.lwc1(19, 4 - plane, r::T2);
        b.lwc1(20, 4 + plane, r::T2);
        b.lwc1(21, 4, r::T2);                 // centre  (data)
        b.fadd(14, 14, 16);
        b.fadd(17, 17, 18);
        b.fadd(19, 19, 20);
        b.fadd(14, 14, 17);
        b.fadd(14, 14, 19);
        b.fadd(14, 14, 21);
        b.fmul(14, 14, 10);
        b.swc1(14, b.localOffset(2), r::Sp);  // spill (stack)
        b.swc1(14, 4, r::T3);                 // dst[idx+1] (data)
        b.fadd(13, 13, 14);
        // Fold the spilled copies through separate check chains.
        b.lwc1(7, b.localOffset(1), r::Sp);   // reload (stack)
        b.fadd(12, 12, 7);
        b.lwc1(22, b.localOffset(2), r::Sp);  // reload (stack)
        b.fadd(15, 15, 22);
        b.addi(r::S2, r::S2, 2);
        b.j(loop);
        b.bind(done);
        b.lwGlobal(r::T4, "relax_calls");
        b.addi(r::T4, r::T4, 1);
        b.swGlobal(r::T4, "relax_calls");
        b.fadd(11, 11, 13);
        b.fadd(12, 12, 15);
        b.fadd(11, 11, 12);
        b.swc1(11, b.localOffset(0), r::Sp);  // spill checksum (stack)
        b.lwc1(23, b.localOffset(0), r::Sp);
        b.cvtws(23, 23);
        b.mfc1(r::V0, 23);
        b.fnReturn();
        b.endFunction();
    }

    // ---- int main() ----
    b.beginFunction("main", 1, {r::S0, r::S1});
    {
        // Fill GRID and RHS.
        b.la(r::T0, "GRID");
        b.la(r::T1, "RHS");
        b.li(r::T2, GridWords);
        b.li(r::T7, 4242);
        b.fli(8, 1.0f / 512.0f);
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

        b.li(r::S0, scaledCount(24, scale));
        b.li(r::S1, 0);
        Label steps = b.label();
        Label done = b.label();
        b.bind(steps);
        b.blez(r::S0, done);
        // Ping-pong between the two grids.
        b.andi(r::T0, r::S0, 1);
        Label pong = b.label();
        Label relaxed = b.label();
        b.beq(r::T0, r::Zero, pong);
        b.la(r::A0, "GRID");
        b.la(r::A1, "RHS");
        b.j(relaxed);
        b.bind(pong);
        b.la(r::A0, "RHS");
        b.la(r::A1, "GRID");
        b.bind(relaxed);
        b.jal("relax");
        b.add(r::S1, r::S1, r::V0);
        b.addi(r::S0, r::S0, -1);
        b.j(steps);
        b.bind(done);
        b.move(r::A0, r::S1);
        b.li(r::V0, 1);
        b.syscall();
        b.li(r::V0, 0);
        b.fnReturn();
        b.endFunction();
    }

    return b.finish();
}

} // namespace arl::workloads
