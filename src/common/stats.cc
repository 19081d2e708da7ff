#include "common/stats.hh"

#include <cmath>

namespace arl
{

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.n == 0)
        return;
    if (n == 0) {
        *this = other;
        return;
    }
    std::uint64_t combined = n + other.n;
    double delta = other.meanAcc - meanAcc;
    double combined_mean =
        meanAcc + delta * static_cast<double>(other.n) /
                      static_cast<double>(combined);
    m2 = m2 + other.m2 +
         delta * delta * static_cast<double>(n) *
             static_cast<double>(other.n) / static_cast<double>(combined);
    meanAcc = combined_mean;
    n = combined;
}

} // namespace arl
