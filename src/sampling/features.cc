#include "sampling/features.hh"

#include "common/logging.hh"
#include "vm/layout.hh"

namespace arl::sampling
{

const char *
featureName(unsigned i)
{
    static const char *names[NumFeatures] = {
        "data_refs_per_inst", "heap_refs_per_inst",
        "stack_refs_per_inst", "loads_per_inst",
        "stores_per_inst",    "region_transitions_per_ref",
        "branches_per_inst",  "taken_per_branch",
    };
    return i < NumFeatures ? names[i] : "?";
}

FeatureStream::FeatureStream(InstCount interval_insts, InstCount start,
                             InstCount limit)
    : interval(interval_insts), first(start),
      end(limit ? start + limit : ~InstCount{0})
{
    if (interval_insts == 0)
        fatal("sampling: interval length must be non-zero");
}

void
FeatureStream::visit(const trace::TraceRecord &record,
                     const isa::DecodedInst &inst)
{
    const InstCount index = next++;
    if (index < first || index >= end)
        return;
    if (length == interval)
        closeInterval();
    ++length;
    const trace::RecordClass cls = trace::classifyRecord(record, inst);
    if (cls.isLoad)
        ++loads;
    if (cls.isStore)
        ++stores;
    if (cls.isBranch) {
        ++branches;
        if (cls.taken)
            ++taken;
    }
    if (cls.isMem && cls.region < vm::NumDataRegions) {
        ++memRefs;
        ++regionRefs[cls.region];
        if (prevRegion < vm::NumDataRegions && cls.region != prevRegion)
            ++transitions;
        prevRegion = cls.region;
    }
}

void
FeatureStream::closeInterval()
{
    IntervalFeatures iv;
    iv.start = first + intervals.size() * interval;
    iv.length = length;
    double insts = static_cast<double>(length);
    for (unsigned r = 0; r < vm::NumDataRegions; ++r)
        iv.f[r] = regionRefs[r] / insts;
    iv.f[3] = loads / insts;
    iv.f[4] = stores / insts;
    iv.f[5] = memRefs ? static_cast<double>(transitions) / memRefs : 0.0;
    iv.f[6] = branches / insts;
    iv.f[7] = branches ? static_cast<double>(taken) / branches : 0.0;
    intervals.push_back(iv);

    length = 0;
    for (std::uint64_t &refs : regionRefs)
        refs = 0;
    loads = stores = transitions = 0;
    branches = taken = memRefs = 0;
    prevRegion = vm::NumDataRegions;
}

std::vector<IntervalFeatures>
FeatureStream::finish()
{
    if (length)
        closeInterval();
    return std::move(intervals);
}

std::vector<IntervalFeatures>
extractFeatures(const trace::InMemoryTrace &t, InstCount interval_insts,
                InstCount first, InstCount limit)
{
    FeatureStream stream(interval_insts, first, limit);
    stream.skipPrefix();
    InstCount end = t.size();
    if (limit && first + limit < end)
        end = first + limit;
    isa::DecodedInst inst;
    for (InstCount i = first; i < end; ++i) {
        if (i < t.decoded.size())
            inst = t.decoded[i];
        else if (!isa::decode(t.records[i].instWord, inst))
            fatal("trace: undecodable instruction word 0x%08x",
                  t.records[i].instWord);
        stream.visit(t.records[i], inst);
    }
    return stream.finish();
}

} // namespace arl::sampling
