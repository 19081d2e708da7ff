/**
 * @file
 * 126.gcc substitute: builds expression trees on the heap, folds them
 * recursively, and periodically rescans global tables.
 *
 * Character reproduced (paper Table 2): stack > data > heap, with
 * *bursty data* accesses (gcc is the only integer code besides ijpeg
 * whose data accesses are strictly bursty — here the burstiness comes
 * from the periodic table-rehash phase).  gcc also has by far the
 * most static memory instructions; this substitute deliberately uses
 * many distinct functions and duplicated loop bodies so its static
 * footprint is the largest of our integer suite (Table 3 pressure).
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
constexpr unsigned TableWords = 2048;

/**
 * Emit one of several near-identical fold helpers.  Real gcc has
 * hundreds of similar tree-walking routines; stamping a few variants
 * multiplies the *static* instruction count without changing the
 * dynamic behaviour much.
 */
void
emitFoldVariant(ProgramBuilder &b, const std::string &name, int op_bias,
                bool write_back)
{
    // word fold_N(node* /*a0*/) -> v0 ; node = {op, left, right, val}
    b.beginFunction(name, 2, {r::S0, r::S1, r::S2});
    Label leaf = b.label();
    Label have_right = b.label();
    b.move(r::S0, r::A0);
    b.li(r::S1, 0);                        // folded left
    b.li(r::S2, 0);                        // folded right
    b.lw(r::T0, 4, r::S0);                 // left child (heap)
    b.beq(r::T0, r::Zero, leaf);

    b.move(r::A0, r::T0);
    b.jal(name);                           // recurse left
    b.move(r::S1, r::V0);
    b.lw(r::T1, 8, r::S0);                 // right child (heap)
    b.bne(r::T1, r::Zero, have_right);
    b.li(r::S2, 0);
    b.j(leaf);                             // (reuses leaf as join)
    b.bind(have_right);
    b.move(r::A0, r::T1);
    b.jal(name);                           // recurse right
    b.move(r::S2, r::V0);

    b.bind(leaf);
    b.lw(r::T2, 0, r::S0);                 // op (heap)
    b.lw(r::T3, 12, r::S0);                // val (heap)
    b.andi(r::T4, r::T2, TableWords - 1);
    b.sll(r::T4, r::T4, 2);
    b.la(r::T5, "op_costs");
    b.add(r::T5, r::T5, r::T4);
    b.lw(r::T6, 0, r::T5);                 // cost table (data)
    // Second attribute lookup (gcc consults several tables per node).
    b.srl(r::T7, r::T2, 3);
    b.andi(r::T7, r::T7, TableWords - 1);
    b.sll(r::T7, r::T7, 2);
    b.la(r::T8, "mode_table");
    b.add(r::T8, r::T8, r::T7);
    b.lw(r::T8, 0, r::T8);                 // mode table (data)
    b.add(r::V0, r::T3, r::T6);
    b.add(r::V0, r::V0, r::T8);
    b.add(r::V0, r::V0, r::S1);
    b.add(r::V0, r::V0, r::S2);
    b.addi(r::V0, r::V0, op_bias);
    if (write_back)
        b.sw(r::V0, 12, r::S0);            // fold result back (heap)
    b.fnReturn();
    b.endFunction();
}

} // namespace

std::shared_ptr<vm::Program>
buildGccLike(unsigned scale)
{
    ProgramBuilder b("gcc_like");

    b.globalWord("node_count", 0);
    b.globalWord("rehash_count", 0);
    b.globalArray("op_costs", TableWords);
    b.globalArray("mode_table", TableWords);
    b.globalArray("sym_hash", TableWords);
    b.globalArray("sym_backup", TableWords);

    b.emitStartStub("main");

    // ---- node *build_expr(depth /*a0*/, seed /*a1*/) -> v0 ----
    b.beginFunction("build_expr", 2, {r::S0, r::S1, r::S2, r::S3});
    {
        Label leaf = b.label();
        Label done = b.label();
        b.move(r::S0, r::A0);
        b.move(r::S1, r::A1);
        b.li(r::A0, 16);
        b.li(r::V0, 13);                   // malloc node
        b.syscall();
        b.move(r::S2, r::V0);
        b.sw(r::S1, 0, r::S2);             // op = seed (heap)
        b.sw(r::S1, 12, r::S2);            // val = seed (heap)
        b.lwGlobal(r::T0, "node_count");
        b.addi(r::T0, r::T0, 1);
        b.swGlobal(r::T0, "node_count");
        b.blez(r::S0, leaf);

        b.addi(r::A0, r::S0, -1);
        b.li(r::T1, 7);
        b.mul(r::A1, r::S1, r::T1);
        b.addi(r::A1, r::A1, 3);
        b.jal("build_expr");
        b.sw(r::V0, 4, r::S2);             // left (heap)
        b.addi(r::A0, r::S0, -1);
        b.li(r::T2, 13);
        b.mul(r::A1, r::S1, r::T2);
        b.addi(r::A1, r::A1, 5);
        b.jal("build_expr");
        b.sw(r::V0, 8, r::S2);             // right (heap)
        b.j(done);

        b.bind(leaf);
        b.sw(r::Zero, 4, r::S2);
        b.sw(r::Zero, 8, r::S2);
        b.bind(done);
        b.move(r::V0, r::S2);
        b.fnReturn();
        b.endFunction();
    }

    // ---- void free_expr(node* /*a0*/) ----
    b.beginFunction("free_expr", 1, {r::S0});
    {
        Label no_left = b.label();
        Label no_right = b.label();
        b.move(r::S0, r::A0);
        b.lw(r::T0, 4, r::S0);             // left (heap)
        b.beq(r::T0, r::Zero, no_left);
        b.move(r::A0, r::T0);
        b.jal("free_expr");
        b.bind(no_left);
        b.lw(r::T1, 8, r::S0);             // right (heap)
        b.beq(r::T1, r::Zero, no_right);
        b.move(r::A0, r::T1);
        b.jal("free_expr");
        b.bind(no_right);
        b.move(r::A0, r::S0);
        b.li(r::V0, 14);                   // free
        b.syscall();
        b.fnReturn();
        b.endFunction();
    }

    // Three near-identical folders (static-footprint realism); only
    // the arithmetic fold writes results back.
    emitFoldVariant(b, "fold_arith", 1, true);
    emitFoldVariant(b, "fold_logic", 2, false);
    emitFoldVariant(b, "fold_addr", 3, false);

    // ---- void rehash(): scan/permute the global symbol table ----
    // This is the bursty-data phase (sym_hash -> sym_backup -> back).
    b.beginFunction("rehash", 0);
    {
        b.la(r::A0, "sym_backup");
        b.la(r::A1, "sym_hash");
        b.li(r::A2, TableWords);
        b.jal("memcpy_w");                 // data->data burst
        b.la(r::T0, "sym_hash");
        b.la(r::T1, "sym_backup");
        b.li(r::T2, TableWords);
        Label mix = b.label();
        b.bind(mix);
        b.lw(r::T3, 0, r::T1);             // backup (data)
        b.li(r::T4, 29);
        b.mul(r::T3, r::T3, r::T4);
        b.addi(r::T3, r::T3, 1);
        b.sw(r::T3, 0, r::T0);             // rehash (data)
        b.addi(r::T0, r::T0, 4);
        b.addi(r::T1, r::T1, 4);
        b.addi(r::T2, r::T2, -1);
        b.bgtz(r::T2, mix);
        b.lwGlobal(r::T5, "rehash_count");
        b.addi(r::T5, r::T5, 1);
        b.swGlobal(r::T5, "rehash_count");
        b.fnReturn();
        b.endFunction();
    }

    // ---- int main() ----
    b.beginFunction("main", 2, {r::S0, r::S1, r::S2, r::S3});
    {
        // Seed the attribute tables.
        b.la(r::T0, "op_costs");
        b.la(r::T3, "mode_table");
        b.li(r::T1, TableWords);
        b.li(r::T2, 5);
        Label seed = b.label();
        b.bind(seed);
        b.sw(r::T2, 0, r::T0);
        b.sw(r::T2, 0, r::T3);
        b.addi(r::T2, r::T2, 11);
        b.andi(r::T2, r::T2, 1023);
        b.addi(r::T0, r::T0, 4);
        b.addi(r::T3, r::T3, 4);
        b.addi(r::T1, r::T1, -1);
        b.bgtz(r::T1, seed);

        b.li(r::S0, scaledCount(60, scale));
        b.li(r::S1, 0);                    // checksum
        Label loop = b.label();
        Label done = b.label();
        b.bind(loop);
        b.blez(r::S0, done);
        // Build a depth-7 expression, fold it three ways, free it.
        b.li(r::A0, 7);
        b.move(r::A1, r::S0);
        b.jal("build_expr");
        b.move(r::S2, r::V0);
        b.move(r::A0, r::S2);
        b.jal("fold_arith");
        b.add(r::S1, r::S1, r::V0);
        b.move(r::A0, r::S2);
        b.jal("fold_logic");
        b.add(r::S1, r::S1, r::V0);
        b.move(r::A0, r::S2);
        b.jal("fold_addr");
        b.add(r::S1, r::S1, r::V0);
        b.move(r::A0, r::S2);
        b.jal("free_expr");
        // Every 4th iteration: the bursty table phase.
        b.andi(r::T0, r::S0, 3);
        Label no_rehash = b.label();
        b.bne(r::T0, r::Zero, no_rehash);
        b.jal("rehash");
        b.bind(no_rehash);
        b.addi(r::S0, r::S0, -1);
        b.j(loop);
        b.bind(done);
        b.lwGlobal(r::T0, "node_count");
        b.add(r::A0, r::S1, r::T0);
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
