#include "obs/stats_registry.hh"

#include <algorithm>

#include "common/logging.hh"

namespace arl::obs
{

void
StatsRegistry::insert(const std::string &name, Entry entry)
{
    ARL_ASSERT(!name.empty(), "empty stat name");
    if (entries.count(name))
        fatal("StatsRegistry: duplicate stat '%s'", name.c_str());
    entries.emplace(name, std::move(entry));
}

void
StatsRegistry::addCounter(const std::string &name,
                          const std::uint64_t *value,
                          const std::string &desc)
{
    ARL_ASSERT(value, "null counter '%s'", name.c_str());
    Entry e;
    e.kind = Kind::Counter;
    e.desc = desc;
    e.counter = value;
    insert(name, std::move(e));
}

void
StatsRegistry::addGauge(const std::string &name, const double *value,
                        const std::string &desc)
{
    ARL_ASSERT(value, "null gauge '%s'", name.c_str());
    Entry e;
    e.kind = Kind::Gauge;
    e.desc = desc;
    e.gauge = value;
    insert(name, std::move(e));
}

void
StatsRegistry::addFormula(const std::string &name,
                          std::function<double()> formula,
                          const std::string &desc)
{
    ARL_ASSERT(formula, "null formula '%s'", name.c_str());
    Entry e;
    e.kind = Kind::Formula;
    e.desc = desc;
    e.formula = std::move(formula);
    insert(name, std::move(e));
}

void
StatsRegistry::addLog2Histogram(const std::string &name,
                                const Log2Histogram *hist,
                                const std::string &desc)
{
    ARL_ASSERT(hist, "null log2 histogram '%s'", name.c_str());
    Entry e;
    e.kind = Kind::Log2Hist;
    e.desc = desc;
    e.log2Hist = hist;
    insert(name, std::move(e));
}

std::uint64_t &
StatsRegistry::counter(const std::string &name, const std::string &desc)
{
    auto it = ownedCounterIndex.find(name);
    if (it != ownedCounterIndex.end())
        return *it->second;
    ownedCounters.push_back(0);
    std::uint64_t *slot = &ownedCounters.back();
    ownedCounterIndex[name] = slot;
    addCounter(name, slot, desc);
    return *slot;
}

double &
StatsRegistry::gauge(const std::string &name, const std::string &desc)
{
    auto it = ownedGaugeIndex.find(name);
    if (it != ownedGaugeIndex.end())
        return *it->second;
    ownedGauges.push_back(0.0);
    double *slot = &ownedGauges.back();
    ownedGaugeIndex[name] = slot;
    addGauge(name, slot, desc);
    return *slot;
}

void
StatsRegistry::expand(const std::string &name, const Entry &entry,
                      Snapshot &out) const
{
    switch (entry.kind) {
      case Kind::Counter:
        out.emplace_back(name, static_cast<double>(*entry.counter));
        break;
      case Kind::Gauge:
        out.emplace_back(name, *entry.gauge);
        break;
      case Kind::Formula:
        out.emplace_back(name, entry.formula());
        break;
      case Kind::Log2Hist:
        out.emplace_back(name + ".count",
                         static_cast<double>(entry.log2Hist->count()));
        out.emplace_back(name + ".min",
                         static_cast<double>(entry.log2Hist->min()));
        out.emplace_back(name + ".max",
                         static_cast<double>(entry.log2Hist->max()));
        out.emplace_back(name + ".mean", entry.log2Hist->mean());
        out.emplace_back(name + ".p50", entry.log2Hist->p50());
        out.emplace_back(name + ".p90", entry.log2Hist->p90());
        out.emplace_back(name + ".p99", entry.log2Hist->p99());
        break;
    }
}

StatsRegistry::Snapshot
StatsRegistry::snapshot() const
{
    Snapshot out;
    out.reserve(entries.size());
    // `entries` iterates name-sorted; expansion appends suffixed
    // leaves in a fixed order, so re-sort to keep the flat view
    // strictly ordered regardless of how expansions interleave.
    for (const auto &[name, entry] : entries)
        expand(name, entry, out);
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    return out;
}

std::string
StatsRegistry::description(const std::string &name) const
{
    auto it = entries.find(name);
    return it != entries.end() ? it->second.desc : std::string();
}

std::string
csvField(const std::string &field)
{
    if (field.find_first_of(",\"\n\r") == std::string::npos)
        return field;
    std::string out = "\"";
    for (char c : field) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace arl::obs
