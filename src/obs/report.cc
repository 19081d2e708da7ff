#include "obs/report.hh"

#include <fstream>

#include "common/logging.hh"
#include "obs/hooks.hh"
#include "obs/json.hh"

namespace arl::obs
{

RunRecord
RunRecord::fromHooks(const std::string &workload, const std::string &config,
                     const Hooks &hooks)
{
    RunRecord record;
    record.workload = workload;
    record.config = config;
    record.stats = hooks.finalSnapshot;
    // Rows a sink took are on disk, not in the sampler, so the report
    // omits the intervals section (every == 0) rather than
    // serializing empty arrays.
    if (hooks.sampler && hooks.sampler->keepsRows())
        record.intervals = hooks.sampler->rows();
    return record;
}

namespace
{

void
writeSamples(JsonWriter &w, const std::vector<IntervalSample> &ss)
{
    w.beginArray();
    for (const auto &s : ss) {
        w.beginObject();
        w.field("at", s.at);
        w.key("values").beginArray();
        for (double v : s.values)
            w.value(v);
        w.endArray();
        w.endObject();
    }
    w.endArray();
}

} // namespace

void
Report::writeJson(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema_version", 1);
    w.field("tool", tool);
    w.field("command", command);
    if (hasMeta) {
        w.key("meta");
        writeHostMetaJson(w, meta);
    }
    w.key("runs").beginArray();
    for (const RunRecord &run : runs) {
        w.beginObject();
        w.field("workload", run.workload);
        w.field("config", run.config);
        w.key("stats").beginObject();
        for (const auto &[name, value] : run.stats)
            w.field(name, value);
        w.endObject();
        if (run.intervals.every) {
            w.key("intervals").beginObject();
            w.field("every", run.intervals.every);
            w.key("names").beginArray();
            for (const std::string &name : run.intervals.names)
                w.value(name);
            w.endArray();
            w.key("samples");
            writeSamples(w, run.intervals.samples);
            w.key("deltas");
            writeSamples(w, run.intervals.deltas);
            w.endObject();
        }
        if (run.sampling.enabled) {
            const SamplingReport &s = run.sampling;
            w.key("sampling").beginObject();
            w.field("interval_insts", s.intervalInsts);
            w.field("clusters", s.clusters);
            w.field("clusters_requested", s.clustersRequested);
            w.field("intervals", s.intervals);
            w.field("total_insts", s.totalInsts);
            w.field("simulated_insts", s.simulatedInsts);
            w.field("coverage_pct", s.coveragePct);
            w.field("est_cpi", s.estCpi);
            w.field("est_error_pct", s.estErrorPct);
            if (s.measuredErrorPct >= 0.0)
                w.field("measured_error_pct", s.measuredErrorPct);
            w.key("representatives").beginArray();
            for (const SamplingReport::Representative &rep :
                 s.representatives) {
                w.beginObject();
                w.field("cluster", rep.cluster);
                w.field("start", rep.start);
                w.field("length", rep.length);
                w.field("warmup", rep.warmup);
                w.field("weight", rep.weight);
                w.field("cycles", rep.cycles);
                w.field("cpi", rep.cpi);
                w.endObject();
            }
            w.endArray();
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

void
Report::writeCsv(std::ostream &os) const
{
    os << "workload,config,stat,value\n";
    for (const RunRecord &run : runs)
        for (const auto &[name, value] : run.stats)
            os << csvField(run.workload) << ',' << csvField(run.config)
               << ',' << csvField(name) << ',' << jsonNumber(value)
               << '\n';
}

bool
Report::writeJsonFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os.is_open()) {
        warn("cannot write stats file '%s'", path.c_str());
        return false;
    }
    writeJson(os);
    return true;
}

bool
Report::writeCsvFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os.is_open()) {
        warn("cannot write stats file '%s'", path.c_str());
        return false;
    }
    writeCsv(os);
    return true;
}

} // namespace arl::obs
