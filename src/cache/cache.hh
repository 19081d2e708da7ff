/**
 * @file
 * Set-associative cache tag model with LRU replacement.
 *
 * The timing simulator only needs hit/miss decisions and statistics;
 * data never moves (the functional simulator owns the architectural
 * memory).  Caches are write-back / write-allocate, as in
 * SimpleScalar's default configuration used by the paper.  Port
 * arbitration and miss latencies live in the hierarchy / core, not
 * here.
 */

#ifndef ARL_CACHE_CACHE_HH
#define ARL_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace arl::obs
{
class StatsRegistry;
}

namespace arl::cache
{

/** Geometry and identity of one cache. */
struct CacheGeometry
{
    std::string name = "cache";
    std::uint32_t sizeBytes = 64 * 1024;
    std::uint32_t lineBytes = 32;
    std::uint32_t assoc = 2;

    std::uint32_t numSets() const
    {
        return sizeBytes / (lineBytes * assoc);
    }
};

/** Result of one tag probe. */
struct AccessOutcome
{
    bool hit = false;
    bool writeback = false;   ///< a dirty victim was evicted
};

/** LRU set-associative tag array. */
class Cache
{
  public:
    explicit Cache(const CacheGeometry &geometry);

    /**
     * Probe and update tags for an access to @p addr.
     * Allocates on miss (write-allocate).
     */
    AccessOutcome access(Addr addr, bool is_write);

    /** Probe only — no allocation, no LRU update. */
    bool probe(Addr addr) const;

    const CacheGeometry &geometry() const { return geom; }

    // --- statistics ---
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;

    /** Hit rate in percent (100 when never accessed). */
    double hitRatePct() const;

    /**
     * Register hits/misses/writebacks and the hit-rate formula under
     * "<prefix>.".  The cache must outlive @p registry's consumers.
     */
    void registerStats(obs::StatsRegistry &registry,
                       const std::string &prefix) const;

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lruStamp = 0;
    };

    Addr lineAddr(Addr addr) const { return addr / geom.lineBytes; }
    std::uint32_t setIndex(Addr addr) const
    {
        return lineAddr(addr) % geom.numSets();
    }

    CacheGeometry geom;
    std::vector<Line> lines;   ///< numSets * assoc, set-major
    std::uint64_t stamp = 0;
};

} // namespace arl::cache

#endif // ARL_CACHE_CACHE_HH
