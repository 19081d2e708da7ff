/**
 * @file
 * Cycle-accounting CPI stack: one attributed cause per simulated
 * cycle, so the per-cause counters always sum exactly to total
 * cycles — no unattributed and no double-counted time.
 *
 * The taxonomy follows where a cycle with zero commits was lost,
 * resolved from the ROB head outward (top-down accounting):
 *
 *   Commit           at least one instruction retired this cycle
 *   FrontendEmpty    ROB empty — the front end delivered nothing
 *   RobFull          dispatch blocked on a full ROB (head cause weak)
 *   LsqFull          dispatch blocked on a full LSQ (head cause weak)
 *   LvaqFull         dispatch blocked on a full LVAQ (head cause weak)
 *   LoadPort         head load denied a cache port (dcache/lvc leaf)
 *   StoreCommit      completed head store found no store port
 *   BankConflict     head load serialized behind a busy cache bank
 *   MshrFull         head load's miss waited for a free MSHR
 *   WritebackFull    head load's miss waited on the writeback buffer
 *   BusBusy          head load's fill queued behind the shared bus
 *   TlbWalk          head access stalled in a page-table walk
 *   RegionMispredict head re-routed after a steering misprediction
 *   MemLatency       head load waiting on plain hierarchy latency
 *   ExecLatency      head executing in a (non-memory) functional unit
 *   Other            residual (store-data waits, issue-ramp cycles)
 *
 * Causes are tracked per memory pipe (DCache / LVC) where a pipe is
 * meaningful; the port/bank/MSHR/store-commit causes register per-pipe
 * leaves and the rest register pipe-summed leaves, under
 * "<prefix>.<cause>".  Accumulation is counters only and never feeds
 * back into timing, so enabling the stack cannot change any simulated
 * number.
 */

#ifndef ARL_OBS_CPI_STACK_HH
#define ARL_OBS_CPI_STACK_HH

#include <cstdint>
#include <string>

namespace arl::obs
{

class StatsRegistry;

/** Where one zero-commit cycle went (see file comment). */
enum class StallCause : std::uint8_t
{
    Commit,
    FrontendEmpty,
    RobFull,
    LsqFull,
    LvaqFull,
    LoadPort,
    StoreCommit,
    BankConflict,
    MshrFull,
    WritebackFull,
    BusBusy,
    TlbWalk,
    RegionMispredict,
    MemLatency,
    ExecLatency,
    Other,
    NumCauses
};

/** Snake-case leaf name of @p cause ("frontend_empty", ...). */
const char *stallCauseName(StallCause cause);

/** Per-cause, per-pipe cycle accumulator. */
class CpiStack
{
  public:
    static constexpr unsigned NumPipes = 2;  ///< [DCache, Lvc]

    /** Charge one cycle to @p cause on @p pipe. */
    void
    add(StallCause cause, unsigned pipe = 0)
    {
        ++cycles_[static_cast<unsigned>(cause)][pipe & 1];
    }

    /** Cycles charged to @p cause on @p pipe. */
    std::uint64_t
    of(StallCause cause, unsigned pipe) const
    {
        return cycles_[static_cast<unsigned>(cause)][pipe & 1];
    }

    /** Cycles charged to @p cause, both pipes. */
    std::uint64_t
    of(StallCause cause) const
    {
        return of(cause, 0) + of(cause, 1);
    }

    /** Sum over every cause; equals total cycles by construction. */
    std::uint64_t total() const;

    /**
     * Register the stack's leaves under "<prefix>." (for the core:
     * "ooo.cpi_stack").  LoadPort registers as the per-pipe leaves
     * dcache_port / lvc_port; StoreCommit, BankConflict and MshrFull
     * as "<cause>.dcache" / "<cause>.lvc"; every other cause as one
     * pipe-summed leaf, plus "<prefix>.total".  The registry reads
     * this object lazily — it must outlive @p registry snapshots.
     */
    void registerStats(StatsRegistry &registry,
                       const std::string &prefix) const;

  private:
    std::uint64_t cycles_[static_cast<unsigned>(
        StallCause::NumCauses)][NumPipes] = {};
};

} // namespace arl::obs

#endif // ARL_OBS_CPI_STACK_HH
