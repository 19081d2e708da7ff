#include "obs/hooks.hh"

#include <algorithm>
#include <fstream>

namespace arl::obs
{

std::ostream *
Hooks::openFile(const std::string &path)
{
    auto file = std::make_unique<std::ofstream>(path);
    if (!file->is_open())
        return nullptr;
    files.push_back(std::move(file));
    return files.back().get();
}

std::uint64_t
Hooks::due() const
{
    return std::min(sampler ? sampler->next() : kNever, beatAt);
}

std::uint64_t
Hooks::arm(std::uint64_t committed, bool beats)
{
    if (intervalEvery && !sampler) {
        bool keep = true;
        for (const auto &sink : sinks)
            keep = keep && !sink->takesRows();
        sampler = std::make_unique<IntervalSampler>(registry,
                                                    intervalEvery, keep);
        for (const auto &sink : sinks)
            sink->start(*sampler);
    }
    beatAt = beats && telemetry
                 ? committed + telemetry->channel()->checkEvery()
                 : kNever;
    return due();
}

std::uint64_t
Hooks::progress(const TelemetryFrame &frame)
{
    if (sampler && sampler->tick(frame.insts))
        for (const auto &sink : sinks)
            sink->row(*sampler);
    if (telemetry && frame.insts >= beatAt) {
        telemetry->check(frame);
        beatAt = frame.insts + telemetry->channel()->checkEvery();
    }
    return due();
}

bool
Hooks::tracing() const
{
    for (const auto &sink : sinks)
        if (sink->tracesPipe())
            return true;
    return false;
}

void
Hooks::event(std::uint64_t cycle, std::uint64_t seq, std::uint32_t pc,
             PipeEvent ev, const char *detail)
{
    const std::string d(detail);
    for (const auto &sink : sinks)
        sink->event(cycle, seq, pc, ev, d);
}

void
Hooks::finish(std::uint64_t committed, const std::string &process_name)
{
    if (sampler && sampler->flush(committed))
        for (const auto &sink : sinks)
            sink->row(*sampler);
    finalSnapshot = registry.snapshot();
    for (const auto &sink : sinks)
        sink->finish(process_name);
    sinks.clear();
    files.clear();
}

} // namespace arl::obs
