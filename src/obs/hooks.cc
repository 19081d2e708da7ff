#include "obs/hooks.hh"

#include <fstream>

#include "common/logging.hh"

namespace arl::obs
{

void
Hooks::startSampling()
{
    if (intervalEvery == 0 || sampler)
        return;
    sampler = std::make_unique<IntervalSampler>(registry, intervalEvery);
    if (intervalStream)
        sampler->setStream(intervalStream);
}

bool
Hooks::openTrace(const std::string &path, std::uint64_t max_events)
{
    auto file = std::make_unique<std::ofstream>(path);
    if (!file->is_open()) {
        warn("cannot open pipetrace file '%s'", path.c_str());
        return false;
    }
    traceFile = std::move(file);
    tracer = std::make_unique<PipeTracer>(*traceFile, max_events);
    return true;
}

bool
Hooks::openChromeTrace(const std::string &path, std::uint64_t max_insts)
{
    auto file = std::make_unique<std::ofstream>(path);
    if (!file->is_open()) {
        warn("cannot open chrome trace file '%s'", path.c_str());
        return false;
    }
    chromeFile = std::move(file);
    chrome = std::make_unique<ChromeTracer>(*chromeFile, max_insts);
    return true;
}

void
Hooks::finishChromeTrace(const std::string &process_name)
{
    if (!chrome)
        return;
    if (sampler)
        chrome->counterTracks(*sampler);
    chrome->finish(process_name);
    chrome.reset();
    chromeFile.reset();
}

} // namespace arl::obs
