#include "workloads/util.hh"

#include "common/logging.hh"

namespace arl::workloads
{

namespace r = isa::reg;
using builder::Label;
using builder::ProgramBuilder;

std::int32_t
scaledCount(std::int64_t per_scale, unsigned scale)
{
    if (per_scale > MaxCountPerScale)
        fatal("workload loop count %lld per scale unit exceeds %lld",
              static_cast<long long>(per_scale),
              static_cast<long long>(MaxCountPerScale));
    if (scale == 0 || scale > MaxScale)
        fatal("workload scale %u is outside 1..%u", scale, MaxScale);
    return static_cast<std::int32_t>(per_scale * scale);
}

void
emitLcgStep(ProgramBuilder &b, RegIndex rd, RegIndex rstate, RegIndex rtmp)
{
    b.li(rtmp, 1103515245);
    b.mul(rstate, rstate, rtmp);
    b.addi(rstate, rstate, 12345);
    b.srl(rd, rstate, 16);
    b.andi(rd, rd, 0x7fff);
}

void
emitMemsetWords(ProgramBuilder &b)
{
    // void memset_w(word *ptr /*a0*/, int words /*a1*/, word v /*a2*/)
    b.beginLeaf("memset_w");
    Label loop = b.label();
    Label done = b.label();
    b.bind(loop);
    b.blez(r::A1, done);
    b.sw(r::A2, 0, r::A0);          // rule-4 store through pointer arg
    b.addi(r::A0, r::A0, 4);
    b.addi(r::A1, r::A1, -1);
    b.j(loop);
    b.bind(done);
    b.fnReturn();
    b.endFunction();
}

void
emitMemcpyWords(ProgramBuilder &b)
{
    // void memcpy_w(word *dst /*a0*/, word *src /*a1*/, int words /*a2*/)
    b.beginLeaf("memcpy_w");
    Label loop = b.label();
    Label done = b.label();
    b.bind(loop);
    b.blez(r::A2, done);
    b.lw(r::T0, 0, r::A1);          // rule-4 load, region = call site's
    b.sw(r::T0, 0, r::A0);          // rule-4 store
    b.addi(r::A0, r::A0, 4);
    b.addi(r::A1, r::A1, 4);
    b.addi(r::A2, r::A2, -1);
    b.j(loop);
    b.bind(done);
    b.fnReturn();
    b.endFunction();
}

void
emitSumWords(ProgramBuilder &b)
{
    // word sum_w(word *ptr /*a0*/, int words /*a1*/) -> v0
    b.beginLeaf("sum_w");
    Label loop = b.label();
    Label done = b.label();
    b.li(r::V0, 0);
    b.bind(loop);
    b.blez(r::A1, done);
    b.lw(r::T0, 0, r::A0);          // the paper's *parm1 pattern
    b.add(r::V0, r::V0, r::T0);
    b.addi(r::A0, r::A0, 4);
    b.addi(r::A1, r::A1, -1);
    b.j(loop);
    b.bind(done);
    b.fnReturn();
    b.endFunction();
}

void
emitLcgGlobal(ProgramBuilder &b)
{
    b.globalWord("__lcg_state", 12345);
    // word lcg_next() -> v0
    b.beginLeaf("lcg_next");
    b.lwGlobal(r::T0, "__lcg_state");   // $gp-relative (rule 3)
    b.li(r::T1, 1103515245);
    b.mul(r::T0, r::T0, r::T1);
    b.addi(r::T0, r::T0, 12345);
    b.swGlobal(r::T0, "__lcg_state");
    b.srl(r::V0, r::T0, 16);
    b.andi(r::V0, r::V0, 0x7fff);
    b.fnReturn();
    b.endFunction();
}

} // namespace arl::workloads
