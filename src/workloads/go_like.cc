/**
 * @file
 * 099.go substitute: recursive game-tree search over global board
 * arrays.
 *
 * Character reproduced (paper Table 2 / Fig 2): data-dominant with a
 * bursty stack component from the recursion's frame traffic, and —
 * like the real 099.go — *no heap at all*: every structure is a
 * statically allocated array.
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
constexpr unsigned BoardCells = 361;       // 19 x 19
constexpr unsigned Branching = 8;
} // namespace

std::shared_ptr<vm::Program>
buildGoLike(unsigned scale)
{
    ProgramBuilder b("go_like");

    b.globalWord("eval_calls", 0);
    b.globalWord("checksum", 0);
    b.globalArray("board", BoardCells);
    b.globalArray("weights", BoardCells);

    b.emitStartStub("main");

    // ---- word evaluate() -> v0: weighted row scan of the board ----
    b.beginFunction("evaluate", 2);
    b.lwGlobal(r::T0, "eval_calls");        // $gp (data)
    b.addi(r::T1, r::T0, 1);
    b.swGlobal(r::T1, "eval_calls");
    b.andi(r::T0, r::T0, 15);               // row 0..15
    b.li(r::T1, 19 * 4);
    b.mul(r::T0, r::T0, r::T1);             // row byte offset
    b.la(r::T2, "board");
    b.add(r::T2, r::T2, r::T0);
    b.la(r::T3, "weights");
    b.add(r::T3, r::T3, r::T0);
    b.li(r::V0, 0);
    b.sw(r::V0, b.localOffset(0), r::Sp);   // zero the accumulator slot
    b.li(r::T4, 19);                        // cells in a row
    Label scan = b.label();
    b.bind(scan);
    b.lw(r::T5, 0, r::T2);                  // board cell (data)
    b.lw(r::T6, 0, r::T3);                  // weight (data)
    b.mul(r::T7, r::T5, r::T6);
    b.add(r::V0, r::V0, r::T7);
    b.add(r::V0, r::V0, r::T5);             // stones score on their own
    b.add(r::V0, r::V0, r::T6);
    b.addi(r::T2, r::T2, 4);
    b.addi(r::T3, r::T3, 4);
    b.addi(r::T4, r::T4, -1);
    b.bgtz(r::T4, scan);
    b.lw(r::T5, b.localOffset(0), r::Sp);   // one spill pair per call
    b.add(r::V0, r::V0, r::T5);
    b.sw(r::V0, b.localOffset(0), r::Sp);
    b.fnReturn();
    b.endFunction();

    // ---- word search(depth /*a0*/, player /*a1*/) -> v0 ----
    b.beginFunction("search", 2,
                    {r::S0, r::S1, r::S2, r::S3, r::S4, r::S5});
    Label recurse = b.label();
    Label moves = b.label();
    Label skip = b.label();
    Label after = b.label();
    Label out = b.label();

    b.bgtz(r::A0, recurse);
    b.jal("evaluate");                      // leaf: static evaluation
    b.j(out);

    b.bind(recurse);
    b.move(r::S0, r::A0);                   // depth
    b.move(r::S1, r::A1);                   // player
    b.li(r::S3, -100000);                   // best score
    b.la(r::S5, "board");
    // Deterministic move cursor seeded by (depth, player).
    b.li(r::T0, 89);
    b.mul(r::T0, r::S0, r::T0);
    b.li(r::T1, 37);
    b.mul(r::T1, r::S1, r::T1);
    b.add(r::S2, r::T0, r::T1);
    b.li(r::S4, Branching);                 // trials

    b.bind(moves);
    b.andi(r::T0, r::S2, 255);              // cell index (< 361)
    b.sll(r::T0, r::T0, 2);
    b.add(r::T1, r::S5, r::T0);             // &board[cell]
    b.lw(r::T2, 0, r::T1);                  // occupied? (data)
    b.bne(r::T2, r::Zero, skip);

    b.addi(r::T3, r::S1, 1);
    b.sw(r::T3, 0, r::T1);                  // place stone (data)
    b.addi(r::A0, r::S0, -1);
    b.li(r::T4, 1);
    b.sub(r::A1, r::T4, r::S1);
    b.jal("search");                        // recurse
    // Undo: recompute the cell address (temps died at the call).
    b.andi(r::T0, r::S2, 255);
    b.sll(r::T0, r::T0, 2);
    b.add(r::T1, r::S5, r::T0);
    b.sw(r::Zero, 0, r::T1);                // remove stone (data)
    // Negamax-flavoured best tracking.
    b.sub(r::T5, r::Zero, r::V0);
    b.slt(r::T6, r::S3, r::T5);
    b.beq(r::T6, r::Zero, after);
    b.move(r::S3, r::T5);
    b.j(after);

    b.bind(skip);
    b.addi(r::S2, r::S2, 7);                // probe a nearby cell

    b.bind(after);
    b.addi(r::S2, r::S2, 13);
    b.addi(r::S4, r::S4, -1);
    b.bgtz(r::S4, moves);
    b.move(r::V0, r::S3);

    b.bind(out);
    b.fnReturn();
    b.endFunction();

    // ---- int main() ----
    b.beginFunction("main", 1, {r::S0, r::S1, r::S2});
    // Scatter 30 initial stones with the global LCG.
    b.li(r::S0, 30);
    Label seed = b.label();
    b.bind(seed);
    b.jal("lcg_next");
    b.andi(r::T0, r::V0, 255);
    b.sll(r::T0, r::T0, 2);
    b.la(r::T1, "board");
    b.add(r::T1, r::T1, r::T0);
    b.li(r::T2, 1);
    b.sw(r::T2, 0, r::T1);                  // stone (data)
    b.jal("lcg_next");
    b.andi(r::S2, r::V0, 255);              // weight cell (call-safe)
    b.jal("lcg_next");
    b.andi(r::T2, r::V0, 63);
    b.sll(r::T0, r::S2, 2);
    b.la(r::T1, "weights");
    b.add(r::T1, r::T1, r::T0);
    b.sw(r::T2, 0, r::T1);                  // weight (data)
    b.addi(r::S0, r::S0, -1);
    b.bgtz(r::S0, seed);

    b.li(r::S1, scaledCount(12, scale));
    b.li(r::S2, 0);                         // running checksum
    Label games = b.label();
    Label done = b.label();
    b.bind(games);
    b.blez(r::S1, done);
    b.li(r::A0, 3);                         // search depth
    b.andi(r::A1, r::S1, 1);                // alternate player
    b.jal("search");
    b.add(r::S2, r::S2, r::V0);
    b.addi(r::S1, r::S1, -1);
    b.j(games);
    b.bind(done);
    b.move(r::A0, r::S2);
    b.li(r::V0, 1);                         // print_int(checksum)
    b.syscall();
    b.li(r::V0, 0);
    b.fnReturn();
    b.endFunction();

    emitLcgGlobal(b);

    return b.finish();
}

} // namespace arl::workloads
