/**
 * @file
 * Sliding-instruction-window interleaving statistics (paper §3.2.2,
 * Table 2).
 *
 * Every executed instruction ("cycle" in the functional profiler),
 * the profiler counts how many of the last W instructions were
 * memory references to each region, and accumulates the mean and the
 * standard deviation of those per-region counts.  A region is
 * "strictly bursty" when its standard deviation exceeds its mean.
 */

#ifndef ARL_PROFILE_WINDOW_PROFILER_HH
#define ARL_PROFILE_WINDOW_PROFILER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/step_info.hh"
#include "vm/layout.hh"

namespace arl::profile
{

/** Per-region mean/σ of in-window access counts. */
struct WindowStats
{
    unsigned windowSize = 0;
    std::array<double, vm::NumDataRegions> mean{};
    std::array<double, vm::NumDataRegions> stddev{};
    std::uint64_t samples = 0;

    /** The paper's "strictly bursty" predicate for one region. */
    bool
    strictlyBursty(unsigned region_index) const
    {
        return mean[region_index] < stddev[region_index];
    }
};

/** Tracks one window size over an instruction stream. */
class WindowProfiler
{
  public:
    explicit WindowProfiler(unsigned window_size);

    /** Record one executed instruction. */
    void
    observe(const sim::StepInfo &step)
    {
        // Evict the instruction leaving the window.
        std::uint8_t old_code = ring[head];
        if (old_code)
            --counts[old_code - 1];

        // Insert the new instruction (0 = not a memory reference).
        std::uint8_t code =
            step.isMem ? static_cast<std::uint8_t>(
                             static_cast<unsigned>(step.region) + 1)
                       : 0;
        ring[head] = code;
        if (code)
            ++counts[code - 1];
        if (++head == ring.size())
            head = 0;

        // Sample once the window is full, once per instruction.
        if (filled < ring.size()) {
            ++filled;
            if (filled < ring.size())
                return;
        }
        // Welford's recurrence per region, over one shared count.
        samples += 1.0;
        for (unsigned r = 0; r < vm::NumDataRegions; ++r) {
            double x = static_cast<double>(counts[r]);
            double delta = x - mean[r];
            mean[r] += delta / samples;
            m2[r] += delta * (x - mean[r]);
        }
    }

    /** Aggregate results. */
    WindowStats stats_summary() const;

    /** Window size being tracked. */
    unsigned windowSize() const { return static_cast<unsigned>(ring.size()); }

  private:
    std::vector<std::uint8_t> ring;
    std::size_t head = 0;
    std::size_t filled = 0;
    std::array<std::uint32_t, vm::NumDataRegions> counts{};
    /**
     * Samples taken.  A double is exact below 2^53, so delta /
     * samples is the same division as by an integer count.
     */
    double samples = 0.0;
    std::array<double, vm::NumDataRegions> mean{};
    std::array<double, vm::NumDataRegions> m2{};
};

} // namespace arl::profile

#endif // ARL_PROFILE_WINDOW_PROFILER_HH
