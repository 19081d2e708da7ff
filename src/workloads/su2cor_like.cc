/**
 * @file
 * 103.su2cor substitute: lattice sweeps with inner-product kernels
 * over static FP arrays, plus a small heap workspace.
 *
 * Character reproduced (paper Table 2): strongly data-dominant
 * (7.38 per 32) with a *small but non-zero* heap component (0.44 —
 * a malloc'd correlation workspace touched once per sweep) and a
 * bursty stack (σ 4.53 > mean 2.98 at window 32: frames cluster at
 * sweep boundaries).
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
constexpr unsigned LatticeWords = 8192;
constexpr unsigned CorrWords = 128;
} // namespace

std::shared_ptr<vm::Program>
buildSu2corLike(unsigned scale)
{
    ProgramBuilder b("su2cor_like");

    b.globalWord("corr_ptr", 0);
    b.globalWord("sweeps", 0);
    b.globalArray("LAT_A", LatticeWords);
    b.globalArray("LAT_B", LatticeWords);

    b.emitStartStub("main");

    // ---- word dot_block(a /*a0*/, b /*a1*/, n /*a2*/) -> v0 ----
    // Pointer-based FP inner product (rule-4 accesses, data region).
    b.beginFunction("dot_block", 2, {r::S0});
    {
        // Two independent partial-sum chains (unrolled inner
        // product) plus an off-critical-path spill pair per
        // iteration for the stack-traffic realism of compiled FP
        // code.
        b.fli(4, 0.0f);                       // partial sum, lane A
        b.fmov(9, 4);                         // partial sum, lane B
        b.fmov(11, 4);                        // spill-check chain
        Label loop = b.label();
        Label done = b.label();
        b.bind(loop);
        b.blez(r::A2, done);
        b.lwc1(0, 0, r::A0);                  // lattice A (data)
        b.lwc1(1, 0, r::A1);                  // lattice B (data)
        b.fmul(0, 0, 1);
        b.fadd(4, 4, 0);
        b.lwc1(2, 4, r::A0);
        b.lwc1(3, 4, r::A1);
        b.fmul(2, 2, 3);
        b.fadd(9, 9, 2);
        b.swc1(0, b.localOffset(0), r::Sp);   // spill product (stack)
        b.lwc1(10, b.localOffset(0), r::Sp);  // reload (stack)
        b.fadd(11, 11, 10);
        b.addi(r::A0, r::A0, 8);
        b.addi(r::A1, r::A1, 8);
        b.addi(r::A2, r::A2, -2);
        b.j(loop);
        b.bind(done);
        b.fadd(4, 4, 9);
        b.fadd(4, 4, 11);
        b.swc1(4, b.localOffset(1), r::Sp);   // FP spill (stack)
        b.lwc1(5, b.localOffset(1), r::Sp);
        b.cvtws(5, 5);
        b.mfc1(r::V0, 5);
        b.fnReturn();
        b.endFunction();
    }

    // ---- word update_block(a /*a0*/, n /*a1*/, scale_bits /*a2*/) ----
    b.beginFunction("update_block", 0);
    {
        b.mtc1(6, r::A2);
        b.cvtsw(6, 6);
        b.fli(7, 1.0f / 1024.0f);
        b.fmul(6, 6, 7);
        b.fli(8, 0.96875f);                   // damping
        Label loop = b.label();
        Label done = b.label();
        b.bind(loop);
        b.blez(r::A1, done);
        b.lwc1(0, 0, r::A0);                  // (data)
        b.fmul(0, 0, 8);
        b.fadd(0, 0, 6);
        b.swc1(0, 0, r::A0);                  // (data)
        b.addi(r::A0, r::A0, 4);
        b.addi(r::A1, r::A1, -1);
        b.j(loop);
        b.bind(done);
        b.fnReturn();
        b.endFunction();
    }

    // ---- word sweep(seed /*a0*/) -> v0 ----
    b.beginFunction("sweep", 2, {r::S0, r::S1, r::S2});
    {
        b.move(r::S0, r::A0);
        // Update both lattices block by block (data streams).
        b.la(r::A0, "LAT_A");
        b.li(r::A1, LatticeWords);
        b.andi(r::A2, r::S0, 127);
        b.jal("update_block");
        b.la(r::A0, "LAT_B");
        b.li(r::A1, LatticeWords);
        b.andi(r::A2, r::S0, 63);
        b.jal("update_block");
        // Correlate in 128 chunks of 64 words each: frequent small
        // calls cluster frame traffic (the bursty stack of Table 2).
        b.li(r::S1, 128);
        b.li(r::S2, 0);
        Label corr = b.label();
        Label corr_done = b.label();
        b.bind(corr);
        b.blez(r::S1, corr_done);
        b.li(r::T0, (LatticeWords / 128) * 4);
        b.addi(r::T1, r::S1, -1);
        b.mul(r::T2, r::T1, r::T0);
        b.la(r::A0, "LAT_A");
        b.add(r::A0, r::A0, r::T2);
        b.la(r::A1, "LAT_B");
        b.add(r::A1, r::A1, r::T2);
        b.li(r::A2, LatticeWords / 128);
        b.jal("dot_block");
        // Stash this chunk's correlation in the heap workspace and
        // fold the previous chunk's value back in.
        b.lwGlobal(r::T3, "corr_ptr");
        b.addi(r::T4, r::S1, -1);
        b.andi(r::T4, r::T4, CorrWords - 1);
        b.sll(r::T4, r::T4, 2);
        b.add(r::T3, r::T3, r::T4);
        b.lw(r::T5, 0, r::T3);                // previous (heap)
        b.sw(r::V0, 0, r::T3);                // workspace (heap)
        b.add(r::S2, r::S2, r::V0);
        b.add(r::S2, r::S2, r::T5);
        b.addi(r::S1, r::S1, -1);
        b.j(corr);
        b.bind(corr_done);
        b.lwGlobal(r::T5, "sweeps");
        b.addi(r::T5, r::T5, 1);
        b.swGlobal(r::T5, "sweeps");
        b.move(r::V0, r::S2);
        b.fnReturn();
        b.endFunction();
    }

    // ---- int main() ----
    b.beginFunction("main", 1, {r::S0, r::S1});
    {
        b.li(r::A0, CorrWords * 4);
        b.li(r::V0, 13);
        b.syscall();
        b.swGlobal(r::V0, "corr_ptr");

        // Fill the lattices.
        b.la(r::T0, "LAT_A");
        b.la(r::T1, "LAT_B");
        b.li(r::T2, LatticeWords);
        b.li(r::T7, 90210);
        b.fli(8, 1.0f / 300.0f);
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

        b.li(r::S0, scaledCount(40, scale));
        b.li(r::S1, 0);
        Label steps = b.label();
        Label done = b.label();
        b.bind(steps);
        b.blez(r::S0, done);
        b.move(r::A0, r::S0);
        b.jal("sweep");
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
