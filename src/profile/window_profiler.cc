#include "profile/window_profiler.hh"

#include <cmath>

#include "common/logging.hh"

namespace arl::profile
{

WindowProfiler::WindowProfiler(unsigned window_size)
    : ring(window_size, 0)
{
    ARL_ASSERT(window_size > 0);
}

WindowStats
WindowProfiler::stats_summary() const
{
    WindowStats out;
    out.windowSize = windowSize();
    if (samples == 0.0)
        return out;
    for (unsigned r = 0; r < vm::NumDataRegions; ++r) {
        out.mean[r] = mean[r];
        // Population standard deviation.
        out.stddev[r] = std::sqrt(m2[r] / samples);
    }
    out.samples = static_cast<std::uint64_t>(samples);
    return out;
}

} // namespace arl::profile
