#include "cache/cache.hh"

#include "common/bits.hh"
#include "common/logging.hh"
#include "obs/stats_registry.hh"

namespace arl::cache
{

Cache::Cache(const CacheGeometry &geometry) : geom(geometry)
{
    ARL_ASSERT(isPowerOf2(geom.lineBytes) && isPowerOf2(geom.assoc),
               "cache %s: line size and associativity must be powers "
               "of two", geom.name.c_str());
    ARL_ASSERT(geom.sizeBytes % (geom.lineBytes * geom.assoc) == 0,
               "cache %s: size not divisible by way size",
               geom.name.c_str());
    lines.resize(static_cast<std::size_t>(geom.numSets()) * geom.assoc);
}

AccessOutcome
Cache::access(Addr addr, bool is_write)
{
    AccessOutcome outcome;
    Addr tag = lineAddr(addr);
    std::size_t base =
        static_cast<std::size_t>(setIndex(addr)) * geom.assoc;
    ++stamp;

    // Hit path.
    for (std::uint32_t way = 0; way < geom.assoc; ++way) {
        Line &line = lines[base + way];
        if (line.valid && line.tag == tag) {
            line.lruStamp = stamp;
            line.dirty |= is_write;
            ++hits;
            outcome.hit = true;
            return outcome;
        }
    }

    // Miss: choose the LRU (or first invalid) victim.
    ++misses;
    Line *victim = &lines[base];
    for (std::uint32_t way = 0; way < geom.assoc; ++way) {
        Line &line = lines[base + way];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.lruStamp < victim->lruStamp)
            victim = &line;
    }
    if (victim->valid && victim->dirty) {
        ++writebacks;
        outcome.writeback = true;
    }
    victim->valid = true;
    victim->tag = tag;
    victim->dirty = is_write;
    victim->lruStamp = stamp;
    return outcome;
}

bool
Cache::probe(Addr addr) const
{
    Addr tag = lineAddr(addr);
    std::size_t base =
        static_cast<std::size_t>(setIndex(addr)) * geom.assoc;
    for (std::uint32_t way = 0; way < geom.assoc; ++way) {
        const Line &line = lines[base + way];
        if (line.valid && line.tag == tag)
            return true;
    }
    return false;
}

double
Cache::hitRatePct()const
{
    std::uint64_t total = hits + misses;
    return total ? 100.0 * static_cast<double>(hits) /
                       static_cast<double>(total)
                 : 100.0;
}

void
Cache::registerStats(obs::StatsRegistry &registry,
                     const std::string &prefix) const
{
    registry.addCounter(prefix + ".hits", &hits,
                        geom.name + " tag hits");
    registry.addCounter(prefix + ".misses", &misses,
                        geom.name + " tag misses");
    registry.addCounter(prefix + ".writebacks", &writebacks,
                        geom.name + " dirty evictions");
    registry.addFormula(prefix + ".hit_rate_pct",
                        [this] { return hitRatePct(); },
                        geom.name + " hit rate (100 when idle)");
}

} // namespace arl::cache
