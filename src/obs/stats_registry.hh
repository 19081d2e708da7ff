/**
 * @file
 * gem5-style hierarchical statistics registry.
 *
 * Modules register named stats — live counters/gauges they own,
 * formulas evaluated lazily (IPC, hit rates), and Log2Histogram
 * accumulators — under dotted hierarchical names
 * ("ooo.lsq.forwarded_loads", "predict.arpt.accuracy_pct",
 * "cache.lvc.hits").  The registry resolves everything to a flat,
 * deterministically sorted (name, value) snapshot, the only way its
 * values are read: the JSON/CSV reports and the interval sampler
 * consume it.
 *
 * Registration can reference storage the caller keeps alive (the
 * usual case: a simulator's counters) or ask the registry to own the
 * storage (tools that tally after the fact).
 */

#ifndef ARL_OBS_STATS_REGISTRY_HH
#define ARL_OBS_STATS_REGISTRY_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hh"

namespace arl::obs
{

/** Hierarchical name → value registry with deterministic snapshots. */
class StatsRegistry
{
  public:
    /** Flat, name-sorted view of every leaf stat. */
    using Snapshot = std::vector<std::pair<std::string, double>>;

    // ---- registration against caller-owned storage ----

    /** Register a live counter; the caller keeps @p value alive. */
    void addCounter(const std::string &name, const std::uint64_t *value,
                    const std::string &desc = "");

    /** Register a live floating-point gauge. */
    void addGauge(const std::string &name, const double *value,
                  const std::string &desc = "");

    /** Register a formula evaluated at snapshot time (IPC, rates). */
    void addFormula(const std::string &name,
                    std::function<double()> formula,
                    const std::string &desc = "");

    /**
     * Register a Log2Histogram; expands to the leaves
     * name.count / name.min / name.max / name.mean /
     * name.p50 / name.p90 / name.p99.
     */
    void addLog2Histogram(const std::string &name,
                          const Log2Histogram *hist,
                          const std::string &desc = "");

    // ---- registry-owned storage ----

    /**
     * Counter owned by the registry (stable address; created on first
     * use, same reference on repeated calls with the same name).
     */
    std::uint64_t &counter(const std::string &name,
                           const std::string &desc = "");

    /** Gauge owned by the registry. */
    double &gauge(const std::string &name, const std::string &desc = "");

    // ---- reading: every value goes through a snapshot ----

    /** Description given at registration ("" for expanded leaves). */
    std::string description(const std::string &name) const;

    /** Evaluate every leaf stat; sorted by name, deterministic. */
    Snapshot snapshot() const;

  private:
    enum class Kind : std::uint8_t
    {
        Counter,
        Gauge,
        Formula,
        Log2Hist
    };

    struct Entry
    {
        Kind kind = Kind::Counter;
        std::string desc;
        const std::uint64_t *counter = nullptr;
        const double *gauge = nullptr;
        std::function<double()> formula;
        const Log2Histogram *log2Hist = nullptr;
    };

    void insert(const std::string &name, Entry entry);
    void expand(const std::string &name, const Entry &entry,
                Snapshot &out) const;

    std::map<std::string, Entry> entries;

    // Deques give owned counters/gauges stable addresses.
    std::deque<std::uint64_t> ownedCounters;
    std::deque<double> ownedGauges;
    std::map<std::string, std::uint64_t *> ownedCounterIndex;
    std::map<std::string, double *> ownedGaugeIndex;
};

/** Quote one CSV field when it contains separators or quotes. */
std::string csvField(const std::string &field);

} // namespace arl::obs

#endif // ARL_OBS_STATS_REGISTRY_HH
