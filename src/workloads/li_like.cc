/**
 * @file
 * 130.li substitute: a lisp-style evaluator — cons cells on the heap
 * driven by ctak-like deep recursion.
 *
 * Character reproduced (paper Table 2): stack-heaviest of the
 * integer codes after vortex (the recursion), with a strong heap
 * component (cons cells) and few data-segment references — li keeps
 * almost everything in dynamically allocated cells.  130.li ran
 * ctak.lsp in the paper; we run a tak recursion whose leaves cons
 * and walk heap lists.
 */

#include "workloads/workloads.hh"

#include "builder/program_builder.hh"
#include "workloads/util.hh"

namespace arl::workloads
{

namespace r = isa::reg;
using builder::Label;
using builder::ProgramBuilder;

std::shared_ptr<vm::Program>
buildLiLike(unsigned scale)
{
    ProgramBuilder b("li_like");

    b.globalWord("cons_count", 0);
    b.globalWord("free_list", 0);
    b.globalWord("list_check", 0);

    b.emitStartStub("main");

    // ---- cell *cons(car /*a0*/, cdr /*a1*/) -> v0 ----
    // Reuses a freed cell when available (li's GC free list),
    // otherwise mallocs a fresh 2-word cell.
    b.beginFunction("cons", 1);
    {
        Label fresh = b.label();
        Label have = b.label();
        b.sw(r::A0, b.localOffset(0), r::Sp);    // protect car (stack)
        b.lwGlobal(r::T0, "free_list");
        b.beq(r::T0, r::Zero, fresh);
        b.lw(r::T1, 4, r::T0);                   // next free (heap)
        b.swGlobal(r::T1, "free_list");
        b.move(r::V0, r::T0);
        b.j(have);
        b.bind(fresh);
        b.li(r::A0, 8);
        b.li(r::V0, 13);                         // malloc syscall
        b.syscall();
        b.bind(have);
        b.lw(r::T2, b.localOffset(0), r::Sp);    // reload car
        b.sw(r::T2, 0, r::V0);                   // car (heap)
        b.sw(r::A1, 4, r::V0);                   // cdr (heap)
        b.lwGlobal(r::T3, "cons_count");
        b.addi(r::T3, r::T3, 1);
        b.swGlobal(r::T3, "cons_count");
        b.fnReturn();
        b.endFunction();
    }

    // ---- word list_sum(cell* /*a0*/) -> v0: walk a heap list ----
    b.beginLeaf("list_sum");
    {
        Label loop = b.label();
        Label done = b.label();
        b.li(r::V0, 0);
        b.bind(loop);
        b.beq(r::A0, r::Zero, done);
        b.lw(r::T0, 0, r::A0);                   // car (heap)
        b.add(r::V0, r::V0, r::T0);
        b.lw(r::A0, 4, r::A0);                   // cdr (heap)
        b.j(loop);
        b.bind(done);
        b.fnReturn();
        b.endFunction();
    }

    // ---- void release(cell* /*a0*/): push a list onto free_list ----
    b.beginLeaf("release");
    {
        Label loop = b.label();
        Label done = b.label();
        b.bind(loop);
        b.beq(r::A0, r::Zero, done);
        b.lw(r::T0, 4, r::A0);                   // next (heap)
        b.lwGlobal(r::T1, "free_list");
        b.sw(r::T1, 4, r::A0);                   // link into free list
        b.swGlobal(r::A0, "free_list");
        b.move(r::A0, r::T0);
        b.j(loop);
        b.bind(done);
        b.fnReturn();
        b.endFunction();
    }

    // ---- word tak(x /*a0*/, y /*a1*/, z /*a2*/) -> v0 ----
    // if (x <= y) { leaf: cons a 3-list, sum it, release it }
    // else tak(tak(x-1,y,z), tak(y-1,z,x), tak(z-1,x,y))
    b.beginFunction("tak", 2, {r::S0, r::S1, r::S2, r::S3, r::S4});
    {
        Label leaf = b.label();
        b.slt(r::T0, r::A1, r::A0);              // y < x ?
        b.beq(r::T0, r::Zero, leaf);

        b.move(r::S0, r::A0);
        b.move(r::S1, r::A1);
        b.move(r::S2, r::A2);
        b.addi(r::A0, r::S0, -1);
        b.move(r::A1, r::S1);
        b.move(r::A2, r::S2);
        b.jal("tak");
        b.move(r::S3, r::V0);
        b.addi(r::A0, r::S1, -1);
        b.move(r::A1, r::S2);
        b.move(r::A2, r::S0);
        b.jal("tak");
        b.move(r::S4, r::V0);
        b.addi(r::A0, r::S2, -1);
        b.move(r::A1, r::S0);
        b.move(r::A2, r::S1);
        b.jal("tak");
        b.move(r::A2, r::V0);
        b.move(r::A0, r::S3);
        b.move(r::A1, r::S4);
        b.jal("tak");
        b.fnReturn();

        b.bind(leaf);
        // Build (x y z) as cons cells, sum, and release.
        b.move(r::S0, r::A0);
        b.move(r::S1, r::A1);
        b.move(r::S2, r::A2);
        b.move(r::A0, r::S2);
        b.li(r::A1, 0);
        b.jal("cons");
        b.move(r::A1, r::V0);
        b.move(r::A0, r::S1);
        b.jal("cons");
        b.move(r::A1, r::V0);
        b.move(r::A0, r::S0);
        b.jal("cons");
        b.move(r::S3, r::V0);
        b.move(r::A0, r::S3);
        b.jal("list_sum");
        // Fold the list sum into a global check value; tak itself
        // must return the *bounded* classic value (z) or the
        // recursion's arguments diverge.
        b.lwGlobal(r::T0, "list_check");
        b.add(r::T0, r::T0, r::V0);
        b.swGlobal(r::T0, "list_check");
        b.move(r::A0, r::S3);
        b.jal("release");
        b.move(r::V0, r::S2);                    // classic tak: return z
        b.fnReturn();
        b.endFunction();
    }

    // ---- int main() ----
    b.beginFunction("main", 1, {r::S0, r::S1});
    {
        Label loop = b.label();
        Label done = b.label();
        b.li(r::S0, scaledCount(2, scale));
        b.li(r::S1, 0);
        b.bind(loop);
        b.blez(r::S0, done);
        b.li(r::A0, 16);
        b.li(r::A1, 10);
        b.li(r::A2, 5);
        b.jal("tak");
        b.add(r::S1, r::S1, r::V0);
        b.addi(r::S0, r::S0, -1);
        b.j(loop);
        b.bind(done);
        b.lwGlobal(r::T0, "cons_count");
        b.add(r::S1, r::S1, r::T0);
        b.lwGlobal(r::T1, "list_check");
        b.add(r::A0, r::S1, r::T1);
        b.li(r::V0, 1);                          // print checksum
        b.syscall();
        b.li(r::V0, 0);
        b.fnReturn();
        b.endFunction();
    }

    return b.finish();
}

} // namespace arl::workloads
