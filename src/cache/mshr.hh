/**
 * @file
 * Miss Status Holding Registers: the bound on outstanding misses of
 * one lockup-free cache.
 *
 * Each entry tracks one in-flight line fill and the cycle its data
 * returns.  A second miss to a line already in flight merges into
 * the existing entry (miss-under-miss); a primary miss that finds
 * every register occupied stalls until the earliest fill returns
 * (structural hazard).
 *
 * The tag model (cache/cache.hh) allocates a line on the first miss,
 * so from the tag array's point of view a secondary miss looks like
 * a hit.  The hierarchy therefore consults inFlight() on *hits* to
 * detect merges, and only allocates MSHRs on tag misses.
 *
 * Zero entries disables the file: unlimited outstanding misses, the
 * repository's ideal default.
 */

#ifndef ARL_CACHE_MSHR_HH
#define ARL_CACHE_MSHR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "obs/histogram.hh"

namespace arl::cache
{

/** The MSHR file of one cache structure. */
class MshrFile
{
  public:
    /** @param entries register count (0 = disabled / unlimited). */
    explicit MshrFile(unsigned entries);

    /** Most registers one file models; more is a usage error,
     *  rejected by the CLI before anything is built. */
    static constexpr unsigned kMaxEntries = 1024;

    bool enabled() const { return limit != 0; }

    /** Drop every entry whose fill has returned by @p now. */
    void retire(Cycle now);

    /**
     * Fill-return cycle of an outstanding miss to @p line, or 0 when
     * no such miss is in flight.  (@p line is a line address, i.e.
     * addr / lineBytes.)
     */
    Cycle inFlight(Addr line) const;

    /** All registers occupied? */
    bool full() const;

    /** Earliest fill-return cycle among occupied registers. */
    Cycle earliestReady() const;

    /** Occupy a register for a primary miss to @p line. */
    void allocate(Addr line, Cycle ready_at);

    std::size_t occupancy() const { return entries.size(); }

    /** Forget all in-flight state (between warmup and timed run). */
    void reset();

    // --- statistics ---
    std::uint64_t allocations = 0;   ///< primary misses registered
    std::uint64_t merges = 0;        ///< secondary misses merged
    std::uint64_t fullStalls = 0;    ///< misses that found it full
    std::uint64_t stallCycles = 0;   ///< cycles those misses waited
    std::uint64_t peakOccupancy = 0; ///< high-water register count
    /** Register count right after each allocation (occupancy the
     *  primary miss observed, itself included). */
    obs::Log2Histogram occupancyAtAllocate;

  private:
    struct Entry
    {
        Addr line;
        Cycle readyAt;
    };

    std::vector<Entry> entries;  ///< at most `limit`; linear scans
    unsigned limit;
};

} // namespace arl::cache

#endif // ARL_CACHE_MSHR_HH
