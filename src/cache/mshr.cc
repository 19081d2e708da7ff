#include "cache/mshr.hh"

#include <algorithm>

#include "common/logging.hh"

namespace arl::cache
{

MshrFile::MshrFile(unsigned entries_in) : limit(entries_in)
{
    ARL_ASSERT(limit <= kMaxEntries, "%u MSHRs, at most %u", limit,
               kMaxEntries);
    if (limit)
        entries.reserve(limit);
}

void
MshrFile::retire(Cycle now)
{
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [now](const Entry &e) {
                                     return e.readyAt <= now;
                                 }),
                  entries.end());
}

Cycle
MshrFile::inFlight(Addr line) const
{
    for (const Entry &e : entries)
        if (e.line == line)
            return e.readyAt;
    return 0;
}

bool
MshrFile::full() const
{
    return limit && entries.size() >= limit;
}

Cycle
MshrFile::earliestReady() const
{
    ARL_ASSERT(!entries.empty(), "earliestReady on an empty MSHR file");
    Cycle earliest = entries.front().readyAt;
    for (const Entry &e : entries)
        earliest = std::min(earliest, e.readyAt);
    return earliest;
}

void
MshrFile::allocate(Addr line, Cycle ready_at)
{
    if (!limit)
        return;
    ARL_ASSERT(entries.size() < limit, "MSHR allocate while full");
    entries.push_back({line, ready_at});
    ++allocations;
    peakOccupancy = std::max<std::uint64_t>(peakOccupancy,
                                            entries.size());
    occupancyAtAllocate.add(entries.size());
}

void
MshrFile::reset()
{
    entries.clear();
}

} // namespace arl::cache
