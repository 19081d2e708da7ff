/**
 * @file
 * 102.swim substitute: 2-D shallow-water-style stencil sweeps over
 * three static FP arrays.
 *
 * Character reproduced (paper Table 2): data-dominant FP code with
 * *zero heap* — swim's arrays are all static — and a moderate stack
 * component from the per-row kernel calls.  The three sweeps per
 * timestep (U, V, P phases) give the near-bursty data signature
 * (6.06 mean vs 5.09 σ in the paper).
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
constexpr unsigned Dim = 64;
constexpr unsigned GridWords = Dim * Dim;
} // namespace

std::shared_ptr<vm::Program>
buildSwimLike(unsigned scale)
{
    ProgramBuilder b("swim_like");

    b.globalWord("steps_done", 0);
    b.globalArray("U", GridWords);
    b.globalArray("V", GridWords);
    b.globalArray("P", GridWords);

    b.emitStartStub("main");

    // ---- void row_kernel(srcA /*a0*/, srcB /*a1*/, dst /*a2*/,
    //                      cols /*a3*/) ----
    // dst[i] = 0.25*(A[i-1]+A[i+1]) + 0.5*B[i]; pointer (rule-4)
    // FP accesses whose region is data at every call site, with one
    // FP spill pair per row (compiled-FP-code realism).
    b.beginFunction("row_kernel", 4, {r::S0});
    {
        // Unrolled by two (as EGCS -O3 with unrolling emits), with
        // independent FP registers, spill slots, and accumulators so
        // both lanes can be in flight at once.
        b.fli(4, 0.25f);
        b.fli(5, 0.5f);
        b.fli(6, 0.0f);                       // accumulator, lane A
        b.fmov(13, 6);                        // accumulator, lane B
        Label loop = b.label();
        Label done = b.label();
        b.bind(loop);
        b.blez(r::A3, done);
        // Lane A: column i.
        b.lwc1(0, -4, r::A0);                 // A[i-1] (data)
        b.lwc1(1, 4, r::A0);                  // A[i+1] (data)
        b.lwc1(2, 0, r::A1);                  // B[i]   (data)
        b.fadd(0, 0, 1);
        b.fmul(0, 0, 4);
        b.swc1(0, b.localOffset(0), r::Sp);   // FP temp spill (stack)
        b.fmul(2, 2, 5);
        b.lwc1(3, b.localOffset(0), r::Sp);   // reload (stack)
        b.fadd(0, 3, 2);
        b.swc1(0, 0, r::A2);                  // dst[i] (data)
        b.fadd(6, 6, 0);
        // Lane B: column i+1.
        b.lwc1(14, 0, r::A0);                 // A[i]   (data)
        b.lwc1(15, 8, r::A0);                 // A[i+2] (data)
        b.lwc1(16, 4, r::A1);                 // B[i+1] (data)
        b.fadd(14, 14, 15);
        b.fmul(14, 14, 4);
        b.swc1(14, b.localOffset(2), r::Sp);  // spill (stack)
        b.fmul(16, 16, 5);
        b.lwc1(17, b.localOffset(2), r::Sp);  // reload (stack)
        b.fadd(14, 17, 16);
        b.swc1(14, 4, r::A2);                 // dst[i+1] (data)
        b.fadd(13, 13, 14);
        b.addi(r::A0, r::A0, 8);
        b.addi(r::A1, r::A1, 8);
        b.addi(r::A2, r::A2, 8);
        b.addi(r::A3, r::A3, -2);
        b.j(loop);
        b.bind(done);
        b.fadd(6, 6, 13);
        b.swc1(6, b.localOffset(1), r::Sp);   // FP spill (stack)
        b.lwc1(7, b.localOffset(1), r::Sp);   // reload
        b.mfc1(r::V0, 7);
        b.fnReturn();
        b.endFunction();
    }

    // ---- word sweep(src_a /*a0*/, src_b /*a1*/, dst /*a2*/) ----
    // Row loop over the interior, calling row_kernel per row.
    b.beginFunction("sweep", 1, {r::S0, r::S1, r::S2, r::S3, r::S4});
    {
        b.move(r::S0, r::A0);
        b.move(r::S1, r::A1);
        b.move(r::S2, r::A2);
        b.li(r::S3, Dim - 2);                 // interior rows
        b.li(r::S4, 0);
        Label rows = b.label();
        Label done = b.label();
        b.bind(rows);
        b.blez(r::S3, done);
        // advance to next row start (+1 col in).
        b.addi(r::A0, r::S0, Dim * 4 + 4);
        b.addi(r::A1, r::S1, Dim * 4 + 4);
        b.addi(r::A2, r::S2, Dim * 4 + 4);
        b.li(r::A3, Dim - 2);
        b.jal("row_kernel");
        b.add(r::S4, r::S4, r::V0);
        b.addi(r::S0, r::S0, Dim * 4);
        b.addi(r::S1, r::S1, Dim * 4);
        b.addi(r::S2, r::S2, Dim * 4);
        b.addi(r::S3, r::S3, -1);
        b.j(rows);
        b.bind(done);
        b.move(r::V0, r::S4);
        b.fnReturn();
        b.endFunction();
    }

    // ---- int main() ----
    b.beginFunction("main", 1, {r::S0, r::S1});
    {
        // Fill U and V with small values; P zero.
        b.la(r::T0, "U");
        b.la(r::T1, "V");
        b.li(r::T2, GridWords);
        b.li(r::T7, 31337);
        b.fli(8, 1.0f / 256.0f);
        Label fill = b.label();
        b.bind(fill);
        emitLcgStep(b, r::T3, r::T7, r::T4);
        b.andi(r::T3, r::T3, 255);
        b.mtc1(9, r::T3);
        b.cvtsw(9, 9);
        b.fmul(9, 9, 8);                      // value in [0,1)
        b.swc1(9, 0, r::T0);                  // U (data)
        b.swc1(9, 0, r::T1);                  // V (data)
        b.addi(r::T0, r::T0, 4);
        b.addi(r::T1, r::T1, 4);
        b.addi(r::T2, r::T2, -1);
        b.bgtz(r::T2, fill);

        b.li(r::S0, scaledCount(10, scale));
        b.li(r::S1, 0);
        Label steps = b.label();
        Label done = b.label();
        b.bind(steps);
        b.blez(r::S0, done);
        // Three phase sweeps: P = f(U,V); U = f(V,P); V = f(P,U).
        b.la(r::A0, "U");
        b.la(r::A1, "V");
        b.la(r::A2, "P");
        b.jal("sweep");
        b.add(r::S1, r::S1, r::V0);
        b.la(r::A0, "V");
        b.la(r::A1, "P");
        b.la(r::A2, "U");
        b.jal("sweep");
        b.add(r::S1, r::S1, r::V0);
        b.la(r::A0, "P");
        b.la(r::A1, "U");
        b.la(r::A2, "V");
        b.jal("sweep");
        b.add(r::S1, r::S1, r::V0);
        b.lwGlobal(r::T0, "steps_done");
        b.addi(r::T0, r::T0, 1);
        b.swGlobal(r::T0, "steps_done");
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
