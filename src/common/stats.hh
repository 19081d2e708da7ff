/**
 * @file
 * Streaming mean / standard deviation accumulator of the window
 * profiler (Table 2).
 */

#ifndef ARL_COMMON_STATS_HH
#define ARL_COMMON_STATS_HH

#include <cstdint>

namespace arl
{

/**
 * Streaming mean / standard deviation accumulator (Welford's
 * algorithm, numerically stable for the hundreds of millions of
 * samples the window profiler feeds it).
 */
class RunningStat
{
  public:
    /** Add one sample. */
    void
    add(double x)
    {
        ++n;
        double delta = x - meanAcc;
        meanAcc += delta / static_cast<double>(n);
        m2 += delta * (x - meanAcc);
    }

    /** Number of samples so far. */
    std::uint64_t count() const { return n; }

    /** Sample mean (0 when empty). */
    double mean() const { return n ? meanAcc : 0.0; }

    /** Population variance (0 when empty). */
    double
    variance() const
    {
        return n ? m2 / static_cast<double>(n) : 0.0;
    }

    /** Population standard deviation. */
    double stddev() const;

    /** Reset to the empty state. */
    void
    reset()
    {
        n = 0;
        meanAcc = 0.0;
        m2 = 0.0;
    }

  private:
    std::uint64_t n = 0;
    double meanAcc = 0.0;
    double m2 = 0.0;
};

} // namespace arl

#endif // ARL_COMMON_STATS_HH
