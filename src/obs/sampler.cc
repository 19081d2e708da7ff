#include "obs/sampler.hh"

#include <ostream>

#include "common/logging.hh"
#include "obs/json.hh"

namespace arl::obs
{

IntervalSampler::IntervalSampler(const StatsRegistry &reg,
                                 std::uint64_t every, bool keep_rows)
    : registry(reg), nextAt(every), keep(keep_rows)
{
    ARL_ASSERT(every > 0, "zero sampling interval");
    kept.every = every;
    for (auto &[name, value] : registry.snapshot()) {
        kept.names.push_back(name);
        last.values.push_back(value);
    }
}

std::vector<double>
IntervalSampler::sampleValues() const
{
    // Evaluate in frozen-name order; stats registered after
    // construction are deliberately excluded so columns stay stable.
    std::vector<double> values;
    values.reserve(kept.names.size());
    StatsRegistry::Snapshot snap = registry.snapshot();
    std::size_t cursor = 0;
    for (const std::string &name : kept.names) {
        while (cursor < snap.size() && snap[cursor].first != name)
            ++cursor;
        ARL_ASSERT(cursor < snap.size(),
                   "sampled stat '%s' disappeared", name.c_str());
        values.push_back(snap[cursor].second);
    }
    return values;
}

void
IntervalSampler::capture(std::uint64_t committed)
{
    IntervalSample row{committed, sampleValues()};
    lastDelta = row;
    for (std::size_t i = 0; i < row.values.size(); ++i)
        lastDelta.values[i] -= last.values[i];
    last = std::move(row);
    if (keep) {
        kept.samples.push_back(last);
        kept.deltas.push_back(lastDelta);
    }
    // One row per crossing even when several boundaries were passed
    // at once (e.g. a batched commit burst).
    nextAt = (committed / kept.every + 1) * kept.every;
}

bool
IntervalSampler::tick(std::uint64_t committed)
{
    if (committed < nextAt)
        return false;
    capture(committed);
    return true;
}

bool
IntervalSampler::flush(std::uint64_t committed)
{
    // Only sample when there is progress past the last row; a run
    // whose length is an exact multiple of the interval already has
    // its final row from tick().
    if (committed == 0 || last.at >= committed)
        return false;
    capture(committed);
    return true;
}

void
IntervalCsv::start(const IntervalSampler &sampler)
{
    os << "at";
    for (const std::string &name : sampler.rows().names)
        os << ',' << name;
    os << '\n';
    os.flush();
}

void
IntervalCsv::row(const IntervalSampler &sampler)
{
    // Flushed at once so a long run is observable (and crash-durable)
    // as it goes.
    os << sampler.row().at;
    for (double v : sampler.row().values)
        os << ',' << jsonNumber(v);
    os << '\n';
    os.flush();
}

} // namespace arl::obs
