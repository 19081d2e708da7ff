/**
 * @file
 * 134.perl substitute: string hashing and associative-array
 * operations over heap-allocated strings.
 *
 * Character reproduced (paper Table 2 / Fig 2): stack > heap > data
 * (6.29 / 4.79 / 2.06 per 32 in the paper).  The stack component
 * comes from a per-character recursive hash (perl's recursive-descent
 * interpretation), the heap component from string bytes and chain
 * nodes, and the small data component from the global bucket array.
 * Like m88ksim, perl shows multi-region instructions in the paper;
 * here the shared byte-counting helper is called with both heap
 * strings and a stack-resident key buffer.
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
constexpr unsigned Buckets = 1024;
constexpr unsigned MaxStr = 24;
} // namespace

std::shared_ptr<vm::Program>
buildPerlLike(unsigned scale)
{
    ProgramBuilder b("perl_like");

    b.globalWord("insert_count", 0);
    b.globalWord("hit_count", 0);
    b.globalArray("buckets", Buckets);
    b.globalBytes("class_tab", 256);      // perl-ish char-class table

    b.emitStartStub("main");

    // ---- word hash_rec(byte *s /*a0*/, len /*a1*/) -> v0 ----
    // One recursion level per character: perl-style stack pressure.
    b.beginFunction("hash_rec", 1, {r::S0, r::S1});
    {
        Label base = b.label();
        b.blez(r::A1, base);
        b.move(r::S0, r::A0);
        b.move(r::S1, r::A1);
        b.addi(r::A0, r::S0, 1);
        b.addi(r::A1, r::S1, -1);
        b.jal("hash_rec");
        b.lbu(r::T0, 0, r::S0);           // string byte (heap/stack)
        b.la(r::T2, "class_tab");
        b.add(r::T2, r::T2, r::T0);
        b.lbu(r::T3, 0, r::T2);           // char class (data)
        b.li(r::T1, 31);
        b.mul(r::V0, r::V0, r::T1);
        b.add(r::V0, r::V0, r::T0);
        b.add(r::V0, r::V0, r::T3);
        b.fnReturn();
        b.bind(base);
        b.li(r::V0, 5381);
        b.fnReturn();
        b.endFunction();
    }

    // ---- void insert(str /*a0*/, len /*a1*/, hash /*a2*/) ----
    b.beginFunction("insert", 1, {r::S0, r::S1, r::S2});
    {
        b.move(r::S0, r::A0);
        b.move(r::S1, r::A2);
        // node = malloc(12): {hash, str, next}
        b.li(r::A0, 12);
        b.li(r::V0, 13);
        b.syscall();
        b.move(r::S2, r::V0);
        b.sw(r::S1, 0, r::S2);            // hash (heap)
        b.sw(r::S0, 4, r::S2);            // str ptr (heap)
        b.andi(r::T0, r::S1, Buckets - 1);
        b.sll(r::T0, r::T0, 2);
        b.la(r::T1, "buckets");
        b.add(r::T1, r::T1, r::T0);
        b.lw(r::T2, 0, r::T1);            // old head (data)
        b.sw(r::T2, 8, r::S2);            // next (heap)
        b.sw(r::S2, 0, r::T1);            // new head (data)
        b.lwGlobal(r::T3, "insert_count");
        b.addi(r::T3, r::T3, 1);
        b.swGlobal(r::T3, "insert_count");
        b.fnReturn();
        b.endFunction();
    }

    // ---- word lookup(hash /*a0*/) -> v0: walk a chain ----
    b.beginLeaf("lookup");
    {
        Label walk = b.label();
        Label done = b.label();
        Label miss = b.label();
        b.andi(r::T0, r::A0, Buckets - 1);
        b.sll(r::T0, r::T0, 2);
        b.la(r::T1, "buckets");
        b.add(r::T1, r::T1, r::T0);
        b.lw(r::T2, 0, r::T1);            // head (data)
        b.bind(walk);
        b.beq(r::T2, r::Zero, miss);
        b.lw(r::T3, 0, r::T2);            // node hash (heap)
        b.beq(r::T3, r::A0, done);
        b.lw(r::T2, 8, r::T2);            // next (heap)
        b.j(walk);
        b.bind(done);
        b.lwGlobal(r::T4, "hit_count");
        b.addi(r::T4, r::T4, 1);
        b.swGlobal(r::T4, "hit_count");
        b.li(r::V0, 1);
        b.fnReturn();
        b.bind(miss);
        b.li(r::V0, 0);
        b.fnReturn();
        b.endFunction();
    }

    // ---- word process(seed /*a0*/) -> v0 ----
    // Make a heap string, hash it recursively, insert, and also hash
    // a stack-resident key copy (multi-region byte loads).
    b.beginFunction("process", 8, {r::S0, r::S1, r::S2, r::S3});
    {
        b.move(r::S0, r::A0);
        b.andi(r::S1, r::S0, MaxStr - 9);
        b.addi(r::S1, r::S1, 8);          // len 8..23
        // Heap string.
        b.addi(r::A0, r::S1, 1);
        b.li(r::V0, 13);
        b.syscall();
        b.move(r::S2, r::V0);
        // Fill it (heap byte stores) and mirror the first 8 bytes
        // into a stack key buffer (stack byte stores).
        b.move(r::T0, r::S2);
        b.move(r::T1, r::S1);
        b.move(r::T2, r::S0);
        Label fill = b.label();
        b.bind(fill);
        b.andi(r::T3, r::T2, 255);
        b.sb(r::T3, 0, r::T0);            // string byte (heap)
        b.li(r::T4, 17);
        b.mul(r::T2, r::T2, r::T4);
        b.addi(r::T2, r::T2, 3);
        b.addi(r::T0, r::T0, 1);
        b.addi(r::T1, r::T1, -1);
        b.bgtz(r::T1, fill);
        // Stack key copy (8 bytes at locals 0..1).
        b.lw(r::T5, 0, r::S2);            // heap word
        b.sw(r::T5, b.localOffset(0), r::Sp);
        b.lw(r::T5, 4, r::S2);
        b.sw(r::T5, b.localOffset(1), r::Sp);

        // Hash the heap string (recursive; heap byte loads).
        b.move(r::A0, r::S2);
        b.move(r::A1, r::S1);
        b.jal("hash_rec");
        b.move(r::S3, r::V0);
        // Hash the stack key (same static loads now hit the stack).
        b.addi(r::A0, r::Sp, b.localOffset(0));
        b.li(r::A1, 8);
        b.jal("hash_rec");
        b.add(r::S3, r::S3, r::V0);

        b.move(r::A0, r::S2);
        b.move(r::A1, r::S1);
        b.move(r::A2, r::S3);
        b.jal("insert");
        // Scan the heap string once more (word granularity).
        b.move(r::A0, r::S2);
        b.srl(r::A1, r::S1, 2);
        b.jal("sum_w");
        b.sw(r::V0, b.localOffset(3), r::Sp)  /* string checksum */;
        // Hit lookup, then a near-miss lookup that walks the whole
        // chain (perl's failed pattern matches).
        b.move(r::A0, r::S3);
        b.jal("lookup");
        b.sw(r::V0, b.localOffset(2), r::Sp);
        b.xori(r::A0, r::S3, 1);
        b.jal("lookup");
        b.lw(r::T0, b.localOffset(2), r::Sp);
        b.add(r::V0, r::V0, r::T0);
        b.lw(r::T1, b.localOffset(3), r::Sp);
        b.add(r::V0, r::V0, r::T1);
        b.add(r::V0, r::V0, r::S3);
        b.fnReturn();
        b.endFunction();
    }

    // ---- int main() ----
    b.beginFunction("main", 1, {r::S0, r::S1});
    {
        // Seed the char-class table (one data byte per entry).
        b.la(r::T0, "class_tab");
        b.li(r::T1, 256);
        b.li(r::T2, 1);
        Label ctab = b.label();
        b.bind(ctab);
        b.sb(r::T2, 0, r::T0);
        b.addi(r::T2, r::T2, 7);
        b.andi(r::T2, r::T2, 31);
        b.addi(r::T0, r::T0, 1);
        b.addi(r::T1, r::T1, -1);
        b.bgtz(r::T1, ctab);

        Label loop = b.label();
        Label done = b.label();
        b.li(r::S0, scaledCount(9000, scale));
        b.li(r::S1, 0);
        b.bind(loop);
        b.blez(r::S0, done);
        b.move(r::A0, r::S0);
        b.jal("process");
        b.add(r::S1, r::S1, r::V0);
        b.addi(r::S0, r::S0, -1);
        b.j(loop);
        b.bind(done);
        b.lwGlobal(r::T0, "hit_count");
        b.add(r::A0, r::S1, r::T0);
        b.li(r::V0, 1);
        b.syscall();
        b.li(r::V0, 0);
        b.fnReturn();
        b.endFunction();
    }

    emitSumWords(b);

    return b.finish();
}

} // namespace arl::workloads
