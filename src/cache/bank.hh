/**
 * @file
 * Address-interleaved cache bank scheduler.
 *
 * A BankSet models the per-bank structural hazard of a multi-ported
 * cache built from single-ported banks: consecutive cache lines map
 * to consecutive banks, each bank accepts one access per cycle, and
 * two same-cycle accesses to the same bank serialize.  The scheduler
 * only tracks *time* — tag state lives in Cache, and the hierarchy
 * decides what an access means once it has been granted a bank slot.
 *
 * With zero banks the set is disabled and schedule() is the identity
 * on time, which is the ideal fully-interleaved behaviour the rest of
 * the repository defaults to.
 */

#ifndef ARL_CACHE_BANK_HH
#define ARL_CACHE_BANK_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "obs/histogram.hh"

namespace arl::cache
{

/** Per-bank next-free-cycle scheduler for one cache structure. */
class BankSet
{
  public:
    /**
     * @param banks number of single-ported banks (0 = disabled:
     *        fully interleaved, never a conflict).
     * @param line_bytes the owning cache's line size; banks are
     *        interleaved on line address.
     */
    BankSet(unsigned banks, std::uint32_t line_bytes);

    /** Most banks one set models; more is a usage error, rejected
     *  by the CLI before anything is built. */
    static constexpr unsigned kMaxBanks = 1024;

    bool enabled() const { return !nextFree.empty(); }

    /** Bank index serving @p addr (0 when disabled). */
    unsigned bankOf(Addr addr) const;

    /**
     * Claim the bank serving @p addr for one cycle, no earlier than
     * @p at.  Returns the cycle the access actually starts; any
     * delay versus @p at is a bank conflict and is counted.
     */
    Cycle schedule(Addr addr, Cycle at);

    /** Forget all busy time (e.g. between warmup and timed run). */
    void reset();

    // --- statistics ---
    std::uint64_t conflicts = 0;       ///< accesses delayed by a busy bank
    std::uint64_t conflictCycles = 0;  ///< cycles lost to those delays
    /** Lengths of runs of consecutive delayed accesses.  A run still
     *  open at the end of a run is not recorded (it has no length
     *  yet); the loss is at most one sample and is deterministic. */
    obs::Log2Histogram conflictBursts;

  private:
    std::vector<Cycle> nextFree;  ///< per bank: first claimable cycle
    std::uint32_t lineBytes;
    std::uint64_t currentBurst = 0;  ///< delayed accesses in the open run
};

} // namespace arl::cache

#endif // ARL_CACHE_BANK_HH
