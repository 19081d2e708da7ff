/**
 * @file
 * 132.ijpeg substitute: blocked 8x8 transforms over heap image
 * planes, staged through a stack-resident work buffer.
 *
 * Character reproduced (paper Table 2): the only program whose data,
 * heap, AND stack accesses are all strictly bursty — each block runs
 * three distinct phases (heap gather, in-place stack transform,
 * quantise+writeback), so no region sees a steady stream.  Heap >
 * stack > data, as in the paper (3.45 / 4.10 / 1.41 — stack and heap
 * close together).
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
constexpr unsigned ImageDim = 64;                     // 64x64 words
constexpr unsigned ImageWords = ImageDim * ImageDim;
constexpr unsigned BlockDim = 8;
} // namespace

std::shared_ptr<vm::Program>
buildIjpegLike(unsigned scale)
{
    ProgramBuilder b("ijpeg_like");

    b.globalWord("in_plane", 0);
    b.globalWord("out_plane", 0);
    b.globalWord("blocks_done", 0);
    b.globalArray("quant", BlockDim * BlockDim);

    b.emitStartStub("main");

    // ---- word do_block(bx /*a0*/, by /*a1*/) -> v0 ----
    // locals: 64-word block buffer + 2 scratch slots.
    b.beginFunction("do_block", 66, {r::S0, r::S1, r::S2, r::S3, r::S4});
    {
        b.move(r::S0, r::A0);                     // bx
        b.move(r::S1, r::A1);                     // by

        // Phase 1: gather the block from the heap plane into the
        // stack buffer (heap loads + stack stores, bursty).
        b.lwGlobal(r::S2, "in_plane");
        // src = plane + ((by*8*64) + bx*8) * 4
        b.li(r::T0, BlockDim * ImageDim * 4);
        b.mul(r::T1, r::S1, r::T0);
        b.sll(r::T2, r::S0, 5);                   // bx*8*4
        b.add(r::T1, r::T1, r::T2);
        b.add(r::S2, r::S2, r::T1);               // src cursor
        b.move(r::S3, r::Sp);                     // dst = stack buffer
        b.li(r::S4, BlockDim);                    // row counter
        Label gather_row = b.label();
        b.bind(gather_row);
        for (unsigned i = 0; i < BlockDim; ++i) {
            b.lw(r::T3, static_cast<std::int32_t>(i * 4), r::S2);
            b.sw(r::T3, static_cast<std::int32_t>(i * 4), r::S3);
        }
        b.addi(r::S2, r::S2, ImageDim * 4);
        b.addi(r::S3, r::S3, BlockDim * 4);
        b.addi(r::S4, r::S4, -1);
        b.bgtz(r::S4, gather_row);

        // Phase 2: butterfly row transform, fully unrolled with
        // $sp-relative addressing — exactly how a compiler addresses
        // a fixed-size local array with constant indices (static
        // rule 2 resolves these).  Pure stack burst.
        for (unsigned row = 0; row < BlockDim; ++row) {
            for (unsigned i = 0; i < BlockDim / 2; ++i) {
                std::int32_t lo = b.localOffset(row * BlockDim + i);
                std::int32_t hi =
                    b.localOffset(row * BlockDim + BlockDim - 1 - i);
                b.lw(r::T0, lo, r::Sp);
                b.lw(r::T1, hi, r::Sp);
                b.add(r::T2, r::T0, r::T1);
                b.sub(r::T3, r::T0, r::T1);
                b.sra(r::T2, r::T2, 1);
                b.sw(r::T2, lo, r::Sp);
                b.sw(r::T3, hi, r::Sp);
            }
        }

        // Phase 3: quantise (data loads) and write back to the output
        // plane (heap stores), accumulating a block checksum.
        b.lwGlobal(r::S2, "out_plane");
        b.li(r::T0, BlockDim * ImageDim * 4);
        b.mul(r::T1, r::S1, r::T0);
        b.sll(r::T2, r::S0, 5);
        b.add(r::T1, r::T1, r::T2);
        b.add(r::S2, r::S2, r::T1);               // dst cursor
        b.move(r::S3, r::Sp);
        b.la(r::S4, "quant");
        b.li(r::V0, 0);
        b.li(r::T9, BlockDim);
        Label quant_row = b.label();
        b.bind(quant_row);
        for (unsigned i = 0; i < BlockDim; ++i) {
            std::int32_t off = static_cast<std::int32_t>(i * 4);
            b.lw(r::T0, off, r::S3);              // block (stack)
            b.lw(r::T1, off, r::S4);              // quant (data)
            b.sra(r::T2, r::T0, 2);
            b.add(r::T2, r::T2, r::T1);
            b.sw(r::T2, off, r::S2);              // out plane (heap)
            b.add(r::V0, r::V0, r::T2);
        }
        b.addi(r::S2, r::S2, ImageDim * 4);
        b.addi(r::S3, r::S3, BlockDim * 4);
        b.addi(r::T9, r::T9, -1);
        b.bgtz(r::T9, quant_row);

        // Phase 4: "entropy coding" — register-resident bit packing
        // over the block checksum (almost no memory traffic; this is
        // what separates the block's bursts from each other).
        b.li(r::T0, 128);
        b.move(r::T1, r::V0);
        Label entropy = b.label();
        b.bind(entropy);
        b.sll(r::T2, r::T1, 5);
        b.xor_(r::T1, r::T1, r::T2);
        b.srl(r::T3, r::T1, 7);
        b.xor_(r::T1, r::T1, r::T3);
        b.addi(r::T1, r::T1, 0x1234);
        b.addi(r::T0, r::T0, -1);
        b.bgtz(r::T0, entropy);
        b.xor_(r::V0, r::V0, r::T1);

        b.lwGlobal(r::T0, "blocks_done");
        b.addi(r::T0, r::T0, 1);
        b.swGlobal(r::T0, "blocks_done");
        b.fnReturn();
        b.endFunction();
    }

    // ---- int main() ----
    b.beginFunction("main", 1, {r::S0, r::S1, r::S2, r::S3});
    {
        // Allocate planes.
        b.li(r::A0, ImageWords * 4);
        b.li(r::V0, 13);
        b.syscall();
        b.swGlobal(r::V0, "in_plane");
        b.li(r::A0, ImageWords * 4);
        b.li(r::V0, 13);
        b.syscall();
        b.swGlobal(r::V0, "out_plane");

        // Fill the input plane (heap stores) and the quant table.
        b.lwGlobal(r::T0, "in_plane");
        b.li(r::T1, ImageWords);
        b.li(r::T7, 777);
        Label fill = b.label();
        b.bind(fill);
        emitLcgStep(b, r::T2, r::T7, r::T3);
        b.andi(r::T2, r::T2, 255);
        b.sw(r::T2, 0, r::T0);
        b.addi(r::T0, r::T0, 4);
        b.addi(r::T1, r::T1, -1);
        b.bgtz(r::T1, fill);
        b.la(r::T0, "quant");
        b.li(r::T1, BlockDim * BlockDim);
        b.li(r::T2, 1);
        Label qfill = b.label();
        b.bind(qfill);
        b.sw(r::T2, 0, r::T0);
        b.addi(r::T2, r::T2, 3);
        b.addi(r::T0, r::T0, 4);
        b.addi(r::T1, r::T1, -1);
        b.bgtz(r::T1, qfill);

        // Passes over all 8x8 blocks of the plane.
        b.li(r::S0, scaledCount(14, scale));  // passes
        b.li(r::S3, 0);                            // checksum
        Label pass = b.label();
        Label pass_done = b.label();
        b.bind(pass);
        b.blez(r::S0, pass_done);
        b.li(r::S1, ImageDim / BlockDim);          // by
        Label yloop = b.label();
        Label ydone = b.label();
        b.bind(yloop);
        b.blez(r::S1, ydone);
        b.li(r::S2, ImageDim / BlockDim);          // bx
        Label xloop = b.label();
        Label xdone = b.label();
        b.bind(xloop);
        b.blez(r::S2, xdone);
        b.addi(r::A0, r::S2, -1);
        b.addi(r::A1, r::S1, -1);
        b.jal("do_block");
        b.add(r::S3, r::S3, r::V0);
        b.addi(r::S2, r::S2, -1);
        b.j(xloop);
        b.bind(xdone);
        b.addi(r::S1, r::S1, -1);
        b.j(yloop);
        b.bind(ydone);
        b.addi(r::S0, r::S0, -1);
        b.j(pass);
        b.bind(pass_done);
        b.move(r::A0, r::S3);
        b.li(r::V0, 1);
        b.syscall();
        b.li(r::V0, 0);
        b.fnReturn();
        b.endFunction();
    }

    return b.finish();
}

} // namespace arl::workloads
