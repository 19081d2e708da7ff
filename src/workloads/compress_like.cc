/**
 * @file
 * 129.compress substitute: an LZW-flavoured coder over data-segment
 * buffers.
 *
 * Character reproduced (paper Table 2): strongly data-dominant
 * (~10 data refs per 32 instructions), near-zero heap, very few
 * stack references — compress keeps its buffers and hash tables in
 * static data and runs one tight loop with only an occasional
 * output-helper call.
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

constexpr unsigned InputBytes = 65536;
constexpr unsigned HashWords = 4096;   // keys; codes follow at +16 KB

} // namespace

std::shared_ptr<vm::Program>
buildCompressLike(unsigned scale)
{
    ProgramBuilder b("compress_like");

    // ---- data segment ----
    b.globalWord("next_code", 256);
    b.globalWord("out_count", 0);
    b.globalWord("checksum", 0);
    b.globalBytes("input", InputBytes);
    b.globalArray("htab", HashWords);      // keys
    b.globalArray("codetab", HashWords);   // codes, at htab+16384
    b.globalArray("output", InputBytes);   // worst case 1 code/byte

    b.emitStartStub("main");

    // ---- void output_code(code /*a0*/, word *out /*a1*/) -> new out
    b.beginFunction("output_code", 1);
    b.sw(r::A0, b.localOffset(0), r::Sp);   // spill (stack)
    b.lwGlobal(r::T0, "out_count");         // $gp (rule 3, data)
    b.addi(r::T0, r::T0, 1);
    b.swGlobal(r::T0, "out_count");
    b.lw(r::T1, b.localOffset(0), r::Sp);   // reload (stack)
    b.sw(r::T1, 0, r::A1);                  // emit code (rule 4, data)
    b.addi(r::V0, r::A1, 4);
    b.fnReturn();
    b.endFunction();

    // ---- void init_input(): fill the input buffer with LCG bytes
    b.beginFunction("init_input", 0);
    b.la(r::T8, "input");
    b.la(r::T9, "input");
    b.li(r::At, InputBytes);
    b.add(r::T9, r::T9, r::At);
    b.li(r::T7, 99991);                     // register-resident LCG
    Label fill = b.label();
    emitLcgStep(b, r::T0, r::T7, r::T1);
    b.bind(fill);
    b.sb(r::T0, 0, r::T8);                  // data store (rule 4)
    emitLcgStep(b, r::T0, r::T7, r::T1);
    b.addi(r::T8, r::T8, 1);
    b.bne(r::T8, r::T9, fill);
    b.fnReturn();
    b.endFunction();

    // ---- word compress_pass() -> v0 (codes emitted) ----
    b.beginFunction("compress_pass", 2,
                    {r::S0, r::S1, r::S2, r::S3, r::S4, r::S5});
    // Clear the hash table through the shared memset helper (a
    // rule-4 pointer store whose region is data at this call site).
    b.la(r::A0, "htab");
    b.li(r::A1, HashWords);
    b.li(r::A2, -1);
    b.jal("memset_w");

    b.la(r::S0, "input");                   // in cursor
    b.la(r::S1, "input");
    b.li(r::At, InputBytes);
    b.add(r::S1, r::S1, r::At);             // in end
    b.la(r::S2, "htab");
    b.li(r::S3, 0);                         // prefix code
    b.la(r::S4, "output");                  // out cursor

    Label loop = b.label();
    Label match = b.label();
    Label next = b.label();
    b.bind(loop);
    b.lbu(r::T0, 0, r::S0);                 // input byte (data)
    b.sll(r::T1, r::S3, 8);
    b.or_(r::T1, r::T1, r::T0);             // key = (prefix<<8)|c
    b.srl(r::T2, r::T1, 7);                 // shift-xor hash (as in
    b.xor_(r::T2, r::T2, r::T1);            // the real compress)
    b.sll(r::T3, r::T2, 3);
    b.xor_(r::T2, r::T2, r::T3);
    b.andi(r::T2, r::T2, HashWords - 1);
    b.sll(r::T2, r::T2, 2);
    b.add(r::T3, r::S2, r::T2);             // &htab[h]
    b.lw(r::T4, 0, r::T3);                  // probe key (data)
    b.beq(r::T4, r::T1, match);

    // Miss: install the pair, emit the prefix code.
    b.sw(r::T1, 0, r::T3);                  // store key (data)
    b.lwGlobal(r::T5, "next_code");         // $gp scalar
    b.sw(r::T5, 16384, r::T3);              // store code (data)
    b.addi(r::T5, r::T5, 1);
    b.swGlobal(r::T5, "next_code");
    b.move(r::A0, r::S3);
    b.move(r::A1, r::S4);
    b.jal("output_code");                   // stack burst
    b.move(r::S4, r::V0);
    b.lbu(r::T0, 0, r::S0);                 // re-read byte after call
    b.move(r::S3, r::T0);                   // restart prefix
    b.j(next);

    b.bind(match);
    b.lw(r::S3, 16384, r::T3);              // extend prefix (data)

    b.bind(next);
    b.addi(r::S0, r::S0, 1);
    b.bne(r::S0, r::S1, loop);

    // Checksum the emitted codes through the cross-region summer.
    b.la(r::A0, "output");
    b.la(r::T0, "output");
    b.sub(r::A1, r::S4, r::T0);
    b.srl(r::A1, r::A1, 2);
    b.jal("sum_w");
    b.lwGlobal(r::T0, "checksum");
    b.xor_(r::T0, r::T0, r::V0);
    b.swGlobal(r::T0, "checksum");
    b.fnReturn();
    b.endFunction();

    // ---- int main() ----
    b.beginFunction("main", 1, {r::S0, r::S1});
    b.jal("init_input");
    b.li(r::S0, 0);
    b.li(r::S1, scaledCount(2, scale));
    Label passes = b.label();
    Label done = b.label();
    b.bind(passes);
    b.beq(r::S0, r::S1, done);
    b.jal("compress_pass");
    b.addi(r::S0, r::S0, 1);
    b.j(passes);
    b.bind(done);
    b.lwGlobal(r::A0, "checksum");
    b.li(r::V0, 1);                         // print_int(checksum)
    b.syscall();
    b.li(r::V0, 0);
    b.fnReturn();
    b.endFunction();

    emitMemsetWords(b);
    emitSumWords(b);

    return b.finish();
}

} // namespace arl::workloads
