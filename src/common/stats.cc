#include "common/stats.hh"

#include <cmath>

namespace arl
{

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

} // namespace arl
