/**
 * @file
 * 147.vortex substitute: an object database manipulated through deep
 * chains of small procedures.
 *
 * Character reproduced (paper Table 2): *extreme* stack dominance
 * (11.81 stack refs per 32 instructions — the highest in the suite)
 * with a moderate heap component (the objects) and few data refs.
 * Vortex's style — every operation filtered through many layers of
 * small validating/dispatching functions — means most memory traffic
 * is frame save/restore and argument spilling, which is exactly what
 * this program emits: a five-deep call chain per object operation,
 * each level with a full frame and several callee-saved registers.
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
constexpr unsigned NumObjects = 512;
constexpr unsigned ObjectWords = 16;
} // namespace

std::shared_ptr<vm::Program>
buildVortexLike(unsigned scale)
{
    ProgramBuilder b("vortex_like");

    b.globalWord("op_count", 0);
    b.globalArray("obj_table", NumObjects);   // pointers to heap objects
    b.globalArray("schema", 64);              // per-type field schema

    b.emitStartStub("main");

    // Layer 5 (innermost): word field_hash(obj /*a0*/, i /*a1*/)
    b.beginFunction("field_hash", 2, {r::S0});
    {
        b.move(r::S0, r::A0);
        b.sw(r::A1, b.localOffset(0), r::Sp);     // spill index
        b.sll(r::T0, r::A1, 2);
        b.add(r::T0, r::S0, r::T0);
        b.lw(r::V0, 0, r::T0);                    // field (heap)
        b.li(r::T1, 2654435);
        b.mul(r::V0, r::V0, r::T1);
        b.lw(r::T2, b.localOffset(0), r::Sp);     // reload index
        b.add(r::V0, r::V0, r::T2);
        b.srl(r::V0, r::V0, 3);
        b.fnReturn();
        b.endFunction();
    }

    // Layer 4: word touch_field(obj /*a0*/, i /*a1*/): hash then store
    b.beginFunction("touch_field", 2, {r::S0, r::S1});
    {
        b.move(r::S0, r::A0);
        b.move(r::S1, r::A1);
        b.jal("field_hash");
        b.sw(r::V0, b.localOffset(0), r::Sp);     // spill hash
        b.sll(r::T0, r::S1, 2);
        b.add(r::T0, r::S0, r::T0);
        b.lw(r::T1, b.localOffset(0), r::Sp);     // reload hash
        b.sw(r::T1, 0, r::T0);                    // update field (heap)
        b.lw(r::T3, 4, r::T0);                    // neighbour (heap)
        b.add(r::T3, r::T3, r::T1);
        b.sw(r::T3, 4, r::T0);                    // propagate (heap)
        b.move(r::V0, r::T1);
        b.fnReturn();
        b.endFunction();
    }

    // Layer 3: word validate(obj /*a0*/, key /*a1*/)
    b.beginFunction("validate", 2, {r::S0, r::S1, r::S2});
    {
        Label ok = b.label();
        b.move(r::S0, r::A0);
        b.move(r::S1, r::A1);
        b.lw(r::T0, 0, r::S0);                    // header word (heap)
        b.bne(r::T0, r::Zero, ok);
        b.li(r::T1, 0x7fff);
        b.sw(r::T1, 0, r::S0);                    // lazily initialise
        b.bind(ok);
        // Consult the type schema (data) for this key.
        b.andi(r::T2, r::S1, 63);
        b.sll(r::T2, r::T2, 2);
        b.la(r::T3, "schema");
        b.add(r::T3, r::T3, r::T2);
        b.lw(r::S2, 0, r::T3);                    // schema word (data)
        b.andi(r::A1, r::S1, 13);
        b.addi(r::A1, r::A1, 1);                  // field 1..14
        b.move(r::A0, r::S0);
        b.jal("touch_field");
        b.add(r::V0, r::V0, r::S1);
        b.add(r::V0, r::V0, r::S2);
        b.fnReturn();
        b.endFunction();
    }

    // Layer 2: word obj_update(index /*a0*/, key /*a1*/)
    b.beginFunction("obj_update", 2, {r::S0, r::S1, r::S2});
    {
        b.move(r::S0, r::A0);
        b.move(r::S1, r::A1);
        b.la(r::T0, "obj_table");
        b.sll(r::T1, r::S0, 2);
        b.add(r::T0, r::T0, r::T1);
        b.lw(r::S2, 0, r::T0);                    // object ptr (data)
        b.move(r::A0, r::S2);
        b.move(r::A1, r::S1);
        b.jal("validate");
        b.sw(r::V0, b.localOffset(0), r::Sp);     // spill result
        b.lwGlobal(r::T2, "op_count");
        b.addi(r::T2, r::T2, 1);
        b.swGlobal(r::T2, "op_count");
        b.lw(r::V0, b.localOffset(0), r::Sp);     // reload result
        b.fnReturn();
        b.endFunction();
    }

    // Layer 1: word transaction(seed /*a0*/) — four object updates
    b.beginFunction("transaction", 2, {r::S0, r::S1, r::S2, r::S3});
    {
        b.move(r::S0, r::A0);
        b.li(r::S1, 4);                           // ops per transaction
        b.li(r::S2, 0);                           // accumulator
        Label loop = b.label();
        Label done = b.label();
        b.bind(loop);
        b.blez(r::S1, done);
        b.andi(r::A0, r::S0, NumObjects - 1);
        b.move(r::A1, r::S0);
        b.jal("obj_update");
        b.add(r::S2, r::S2, r::V0);
        b.li(r::T0, 31);
        b.mul(r::S0, r::S0, r::T0);
        b.addi(r::S0, r::S0, 17);
        b.addi(r::S1, r::S1, -1);
        b.j(loop);
        b.bind(done);
        b.move(r::V0, r::S2);
        b.fnReturn();
        b.endFunction();
    }

    // ---- int main() ----
    b.beginFunction("main", 1, {r::S0, r::S1, r::S2});
    {
        // Seed the schema table.
        b.la(r::T0, "schema");
        b.li(r::T1, 64);
        b.li(r::T2, 3);
        Label sseed = b.label();
        b.bind(sseed);
        b.sw(r::T2, 0, r::T0);
        b.addi(r::T2, r::T2, 5);
        b.addi(r::T0, r::T0, 4);
        b.addi(r::T1, r::T1, -1);
        b.bgtz(r::T1, sseed);

        // Allocate the object store.
        b.li(r::S0, NumObjects);
        b.la(r::S1, "obj_table");
        Label alloc = b.label();
        b.bind(alloc);
        b.li(r::A0, ObjectWords * 4);
        b.li(r::V0, 13);                          // malloc
        b.syscall();
        b.sw(r::V0, 0, r::S1);                    // table entry (data)
        b.addi(r::S1, r::S1, 4);
        b.addi(r::S0, r::S0, -1);
        b.bgtz(r::S0, alloc);

        b.li(r::S0, scaledCount(5000, scale));
        b.li(r::S2, 0);
        Label txn = b.label();
        Label done = b.label();
        b.bind(txn);
        b.blez(r::S0, done);
        b.move(r::A0, r::S0);
        b.jal("transaction");
        b.add(r::S2, r::S2, r::V0);
        b.addi(r::S0, r::S0, -1);
        b.j(txn);
        b.bind(done);
        b.move(r::A0, r::S2);
        b.li(r::V0, 1);                           // print checksum
        b.syscall();
        b.li(r::V0, 0);
        b.fnReturn();
        b.endFunction();
    }

    return b.finish();
}

} // namespace arl::workloads
