/**
 * @file
 * gem5-style hierarchical statistics registry.
 *
 * Modules register named stats — live counters/gauges they own,
 * formulas evaluated lazily (IPC, hit rates), and RunningStat /
 * Histogram accumulators — under dotted hierarchical names
 * ("ooo.lsq.forwarded_loads", "predict.arpt.accuracy_pct",
 * "cache.lvc.hits").  The registry resolves everything to a flat,
 * deterministically sorted (name, value) snapshot that the JSON/CSV
 * serializers and the interval sampler consume.
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
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "obs/histogram.hh"

namespace arl::obs
{

class JsonWriter;

/** Hierarchical name → value registry with deterministic dumps. */
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
     * Register a RunningStat; expands to the leaves
     * name.count / name.mean / name.stddev.
     */
    void addDistribution(const std::string &name, const RunningStat *stat,
                         const std::string &desc = "");

    /**
     * Register a Histogram; expands to the leaves
     * name.count / name.mean / name.stddev / name.overflow
     * (overflow = samples clamped into the last bucket).
     */
    void addHistogram(const std::string &name, const Histogram *hist,
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

    // ---- queries ----

    /** True when @p name resolves to a leaf stat. */
    bool has(const std::string &name) const;

    /** Value of leaf stat @p name; fatal when unknown. */
    double value(const std::string &name) const;

    /** Description given at registration ("" for expanded leaves). */
    std::string description(const std::string &name) const;

    /** Registered entries (before distribution/histogram expansion). */
    std::size_t size() const { return entries.size(); }

    /** All leaf names, sorted. */
    std::vector<std::string> names() const;

    /** Evaluate every leaf stat; sorted by name, deterministic. */
    Snapshot snapshot() const;

    /** Plain-text "name = value" lines, sorted (debug dump). */
    std::string dump() const;

    /** Emit all leaf stats as one JSON object value. */
    void writeJson(JsonWriter &w) const;

  private:
    enum class Kind : std::uint8_t
    {
        Counter,
        Gauge,
        Formula,
        Distribution,
        Histogram,
        Log2Hist
    };

    struct Entry
    {
        Kind kind = Kind::Counter;
        std::string desc;
        const std::uint64_t *counter = nullptr;
        const double *gauge = nullptr;
        std::function<double()> formula;
        const RunningStat *dist = nullptr;
        const Histogram *hist = nullptr;
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

/** Serialize a snapshot as "stat,value" CSV rows (with header). */
void writeCsv(std::ostream &os, const StatsRegistry::Snapshot &snapshot);

/** Quote one CSV field when it contains separators or quotes. */
std::string csvField(const std::string &field);

} // namespace arl::obs

#endif // ARL_OBS_STATS_REGISTRY_HH
