#include "cache/bank.hh"

#include "common/logging.hh"

namespace arl::cache
{

BankSet::BankSet(unsigned banks, std::uint32_t line_bytes)
    : lineBytes(line_bytes ? line_bytes : 1)
{
    ARL_ASSERT(banks <= kMaxBanks, "%u banks, at most %u", banks,
               kMaxBanks);
    nextFree.assign(banks, Cycle{0});
}

unsigned
BankSet::bankOf(Addr addr) const
{
    if (nextFree.empty())
        return 0;
    return static_cast<unsigned>((addr / lineBytes) % nextFree.size());
}

Cycle
BankSet::schedule(Addr addr, Cycle at)
{
    if (nextFree.empty())
        return at;
    Cycle &free_at = nextFree[bankOf(addr)];
    Cycle start = at;
    if (free_at > start) {
        ++conflicts;
        conflictCycles += free_at - start;
        start = free_at;
        ++currentBurst;
    } else if (currentBurst) {
        conflictBursts.add(currentBurst);
        currentBurst = 0;
    }
    free_at = start + 1;
    return start;
}

void
BankSet::reset()
{
    for (Cycle &free_at : nextFree)
        free_at = 0;
    currentBurst = 0;
}

} // namespace arl::cache
