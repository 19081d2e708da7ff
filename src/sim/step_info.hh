/**
 * @file
 * Per-instruction record emitted by the functional simulator.
 *
 * One StepInfo carries everything downstream consumers need:
 *  - the profilers (§3) read pc / region / base register;
 *  - the predictors read pc, the pre-execution global branch
 *    history (gbh) and caller id (cid), and the actual region;
 *  - the out-of-order timing model (§4) additionally reads the
 *    produced register value (for value-prediction verification),
 *    the effective address, control-flow outcomes (its perfect
 *    front end follows the recorded path), and how far back each
 *    source register was last written (its register dataflow).
 */

#ifndef ARL_SIM_STEP_INFO_HH
#define ARL_SIM_STEP_INFO_HH

#include "common/types.hh"
#include "isa/inst.hh"
#include "isa/operands.hh"
#include "vm/layout.hh"

namespace arl::sim
{

/** Dynamic record of one executed instruction. */
struct StepInfo
{
    /** PC of the instruction. */
    Addr pc = 0;
    /** Dynamic sequence number (0-based). */
    InstCount seq = 0;
    /** The decoded instruction. */
    isa::DecodedInst inst;

    // --- memory ---
    bool isMem = false;
    bool isLoad = false;
    Addr effAddr = 0;
    std::uint8_t memSize = 0;
    vm::Region region = vm::Region::Unknown;

    // --- control flow ---
    bool isBranch = false;     ///< conditional branch
    bool branchTaken = false;
    bool isCall = false;       ///< jal/jalr
    bool isReturn = false;     ///< jr $ra
    Addr nextPc = 0;           ///< architectural successor PC

    // --- run-time context *before* execution (predictor inputs) ---
    Word gbh = 0;              ///< global branch history register
    Word cid = 0;              ///< caller id = current $ra value

    // --- produced value (dest, result, storeValue) ---
    isa::FlatReg dest = isa::NoReg;

    // --- register dataflow (LastWriters::fill), packed after dest ---
    bool srcDistFilled = false;  ///< srcDist below is set
    /**
     * Per source register, in isa::instSources() order (a memory
     * operand's base first): how many records back the stream last
     * wrote it.  0 = no writer since the stream began (or since the
     * seek it started at), a writer more than LastWriters::MaxDist
     * records back, or no such source.
     */
    std::uint16_t srcDist[3] = {0, 0, 0};

    Word result = 0;           ///< value written to dest (if any)
    Word storeValue = 0;       ///< value written to memory (stores)
};

// Region passes copy every record and never read srcDist: the
// distances live in what was padding, so the copy does not grow.
static_assert(sizeof(StepInfo) == 72, "StepInfo outgrew 72 bytes");

/**
 * Fills StepInfo::srcDist along one stream: each register's last
 * writer (the record's dest), as a position in the stream.  Feed it
 * every record of the stream in order, from the stream's first
 * record or the one a seek landed on; a fresh LastWriters then knows
 * no writer before it.
 */
class LastWriters
{
  public:
    /** The longest distance a record keeps. */
    static constexpr InstCount MaxDist = 0xffff;

    /** Fill @p step's distances, then take it as its dest's writer. */
    void
    fill(StepInfo &step)
    {
        const isa::SourceList sources = isa::instSources(step.inst);
        for (unsigned i = 0; i < 3; ++i) {
            const InstCount at = i < sources.count
                                     ? written[sources.regs[i]]
                                     : 0;
            step.srcDist[i] = at && pos + 1 - at <= MaxDist
                                  ? static_cast<std::uint16_t>(pos + 1 - at)
                                  : 0;
        }
        step.srcDistFilled = true;
        skip(step);
    }

    /** Take @p step as its dest's writer without filling its own
     *  distances, for a reader that never looks at them. */
    void
    skip(const StepInfo &step)
    {
        ++pos;
        if (step.dest != isa::NoReg)
            written[step.dest] = pos;
    }

  private:
    /** Records filled so far: the 1-based position of the last. */
    InstCount pos = 0;
    /** Per flat register, its last writer's position (0 = none). */
    InstCount written[isa::NumFlatRegs] = {};
};

} // namespace arl::sim

#endif // ARL_SIM_STEP_INFO_HH
