#include "obs/chrome_trace.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/sampler.hh"

namespace arl::obs
{

namespace
{

/** tid bases per pipe group; lanes within a group count up from 0. */
constexpr std::uint32_t kGroupBase[3] = { 100, 200, 300 };
constexpr const char *kGroupName[3] = { "dcache", "lvc", "core" };

} // namespace

ChromeTracer::ChromeTracer(std::ostream &out, std::uint64_t max_insts)
    : os(out), limit(max_insts)
{
}

void
ChromeTracer::event(std::uint64_t cycle, std::uint64_t seq,
                    std::uint32_t pc, PipeEvent ev,
                    const std::string &)
{
    ARL_ASSERT(!finished, "ChromeTracer::event after finish");
    if (ev == PipeEvent::Dispatch) {
        if (limit && emittedCount + open.size() >= limit) {
            ++droppedCount;
            return;
        }
        InstRecord rec;
        rec.seq = seq;
        rec.pc = pc;
        rec.dispatchAt = cycle;
        open.emplace(seq, std::move(rec));
        return;
    }

    auto it = open.find(seq);
    if (it == open.end())
        return;  // dropped by the cap, or dispatched before tracing
    InstRecord &rec = it->second;

    switch (ev) {
      case PipeEvent::SteerLsq:
        rec.group = Dcache;
        rec.steer = "lsq";
        break;
      case PipeEvent::SteerLvaq:
        rec.group = Lvc;
        rec.steer = "lvaq";
        break;
      case PipeEvent::Issue:
        if (rec.issueAt == kUnset)
            rec.issueAt = cycle;
        break;
      case PipeEvent::MemAccess:
        if (rec.memAt == kUnset)
            rec.memAt = cycle;
        break;
      case PipeEvent::Forward:
        rec.instants.emplace_back(cycle, "forward");
        break;
      case PipeEvent::Writeback:
        rec.writebackAt = cycle;  // last writeback wins after squashes
        break;
      case PipeEvent::RegionMispredict:
        rec.group = rec.group == Dcache ? Lvc : Dcache;
        rec.instants.emplace_back(cycle, "region_mispredict");
        break;
      case PipeEvent::Squash:
        rec.instants.emplace_back(cycle, "squash");
        break;
      case PipeEvent::Commit:
        rec.commitAt = cycle;
        ++emittedCount;
        done.push_back(std::move(rec));
        open.erase(it);
        break;
      case PipeEvent::Dispatch:
      case PipeEvent::AddrGen:
      case PipeEvent::TlbVerify:
        break;
    }
}

void
ChromeTracer::counter(std::uint64_t cycle, const std::string &name,
                      double value)
{
    ARL_ASSERT(!finished, "ChromeTracer::counter after finish");
    TraceEvent ev;
    ev.ph = 'C';
    ev.ts = cycle;
    ev.tid = 0;
    ev.name = name;
    ev.value = value;
    ev.hasValue = true;
    events.push_back(std::move(ev));
}

void
ChromeTracer::row(const IntervalSampler &sampler)
{
    const auto &names = sampler.rows().names;
    std::size_t cycles_col = names.size();
    for (std::size_t i = 0; i < names.size(); ++i)
        if (names[i] == "ooo.cycles")
            cycles_col = i;

    const std::uint64_t ts =
        cycles_col < names.size()
            ? static_cast<std::uint64_t>(sampler.row().values[cycles_col])
            : rows;
    ++rows;
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (i == cycles_col)
            continue;
        counter(ts, names[i], sampler.rowDelta().values[i]);
    }
}

void
ChromeTracer::finalizeRecords()
{
    // Unretired instructions (run ended mid-flight) have no commit
    // point; drop them rather than invent a duration.
    open.clear();

    std::stable_sort(done.begin(), done.end(),
                     [](const InstRecord &a, const InstRecord &b) {
                         return a.dispatchAt < b.dispatchAt;
                     });

    // Greedy lane waterfall per group: overlapping lifetimes land on
    // different tids so Perfetto never has to nest unrelated slices.
    std::vector<std::uint64_t> lane_end[3];
    std::uint32_t used_lanes[3] = { 0, 0, 0 };

    for (const InstRecord &rec : done) {
        if (rec.commitAt == kUnset)
            continue;
        const unsigned g = rec.group;
        const std::uint64_t dur =
            rec.commitAt > rec.dispatchAt ? rec.commitAt - rec.dispatchAt
                                          : 1;
        std::size_t lane = 0;
        while (lane < lane_end[g].size() &&
               lane_end[g][lane] > rec.dispatchAt)
            ++lane;
        if (lane == lane_end[g].size())
            lane_end[g].push_back(0);
        lane_end[g][lane] = rec.dispatchAt + dur;
        if (lane + 1 > used_lanes[g])
            used_lanes[g] = static_cast<std::uint32_t>(lane + 1);
        const std::uint32_t tid =
            kGroupBase[g] + static_cast<std::uint32_t>(lane);

        char label[16];
        std::snprintf(label, sizeof(label), "0x%08x", rec.pc);

        TraceEvent parent;
        parent.ph = 'X';
        parent.ts = rec.dispatchAt;
        parent.dur = dur;
        parent.tid = tid;
        parent.name = label;
        parent.seq = rec.seq;
        parent.hasSeq = true;
        parent.steer = rec.steer;
        events.push_back(std::move(parent));

        if (rec.issueAt != kUnset && rec.writebackAt != kUnset &&
            rec.writebackAt >= rec.issueAt) {
            TraceEvent exec;
            exec.ph = 'X';
            exec.ts = rec.issueAt;
            exec.dur = rec.writebackAt > rec.issueAt
                           ? rec.writebackAt - rec.issueAt
                           : 1;
            exec.tid = tid;
            exec.name = "exec";
            events.push_back(std::move(exec));
        }
        if (rec.memAt != kUnset && rec.writebackAt != kUnset &&
            rec.writebackAt >= rec.memAt) {
            TraceEvent mem;
            mem.ph = 'X';
            mem.ts = rec.memAt;
            mem.dur = rec.writebackAt > rec.memAt
                          ? rec.writebackAt - rec.memAt
                          : 1;
            mem.tid = tid;
            mem.name = "mem";
            events.push_back(std::move(mem));
        }
        for (const auto &[cycle, name] : rec.instants) {
            TraceEvent inst;
            inst.ph = 'i';
            inst.ts = cycle;
            inst.tid = tid;
            inst.name = name;
            events.push_back(std::move(inst));
        }
    }
    done.clear();

    for (unsigned g = 0; g < 3; ++g) {
        for (std::uint32_t lane = 0; lane < used_lanes[g]; ++lane) {
            TraceEvent meta;
            meta.ph = 'M';
            meta.ts = 0;
            meta.tid = kGroupBase[g] + lane;
            meta.name = "thread_name";
            char tname[32];
            std::snprintf(tname, sizeof(tname), "%s lane %u",
                          kGroupName[g], lane);
            meta.threadName = tname;
            events.push_back(std::move(meta));
        }
    }
    TraceEvent proc;
    proc.ph = 'M';
    proc.ts = 0;
    proc.tid = 0;
    proc.name = "process_name";
    events.push_back(std::move(proc));
}

void
ChromeTracer::writeEvent(JsonWriter &w, const TraceEvent &ev) const
{
    const char ph[2] = { ev.ph, '\0' };
    w.beginObject();
    w.field("ph", ph);
    w.field("pid", 1);
    w.field("tid", ev.tid);
    w.field("ts", ev.ts);
    if (ev.ph == 'X')
        w.field("dur", ev.dur);
    w.field("name", ev.name);
    if (ev.ph == 'i')
        w.field("s", "t");
    if (ev.hasSeq || ev.hasValue || !ev.threadName.empty() ||
        !ev.steer.empty()) {
        w.key("args").beginObject();
        if (ev.hasSeq)
            w.field("seq", ev.seq);
        if (!ev.steer.empty())
            w.field("steer", ev.steer);
        if (ev.hasValue)
            w.field("value", ev.value);
        if (!ev.threadName.empty())
            w.field("name", ev.threadName);
        w.endObject();
    }
    w.endObject();
}

void
ChromeTracer::finish(const std::string &process_name)
{
    ARL_ASSERT(!finished, "ChromeTracer::finish called twice");
    finished = true;
    finalizeRecords();

    // Fill in the process-name metadata appended by finalizeRecords().
    for (TraceEvent &ev : events)
        if (ev.ph == 'M' && ev.name == "process_name")
            ev.threadName = process_name;

    // Viewers and the in-tree validator expect timestamps
    // non-decreasing; longer slices first at equal ts keeps parents
    // ahead of their contained children.
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         if (a.ts != b.ts)
                             return a.ts < b.ts;
                         return a.dur > b.dur;
                     });

    JsonWriter w(os);
    w.beginObject();
    w.key("traceEvents").beginArray();
    for (const TraceEvent &ev : events)
        writeEvent(w, ev);
    w.endArray();
    w.endObject();
    os << "\n";
    events.clear();
}

} // namespace arl::obs
