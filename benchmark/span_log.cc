#include "span_log.hh"

#include <fstream>

#include "obs/json.hh"

namespace arl::benchmark
{

double
SpanLog::now() const
{
    return std::chrono::duration<double>(Clock::now() - origin).count();
}

SpanLog::Scope::Scope(SpanLog &log_, std::string name, std::string workload,
                      std::string config)
    : log(log_), index(log_.spans.size())
{
    const double entered = log.now();
    Span span;
    span.name = std::move(name);
    span.workload = std::move(workload);
    span.config = std::move(config);
    span.parent = log.openStack.empty()
                      ? -1
                      : static_cast<int>(log.openStack.back());
    log.spans.push_back(std::move(span));
    log.openStack.push_back(index);
    const double started = log.now();
    log.spans[index].start = started;
    log.bookkeeping += started - entered;
}

double
SpanLog::Scope::end()
{
    Span &span = log.spans[index];
    if (!open)
        return span.dur;
    const double ended = log.now();
    open = false;
    span.dur = ended - span.start;
    log.openStack.pop_back();
    log.bookkeeping += log.now() - ended;
    return span.dur;
}

double
SpanLog::selfSeconds(std::size_t index) const
{
    double self = spans[index].dur;
    for (std::size_t i = index + 1; i < spans.size(); ++i)
        if (spans[i].parent == static_cast<int>(index))
            self -= spans[i].dur;
    return self;
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    obs::JsonWriter w(out, 1);
    w.beginObject();
    w.field("displayTimeUnit", "ms");
    w.key("traceEvents").beginArray();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        const std::size_t dot = span.name.find('.');
        w.beginObject();
        w.field("name", span.name);
        w.field("cat", span.name.substr(0, dot));
        w.field("ph", "X");
        w.field("pid", 1);
        w.field("tid", 1);
        w.field("ts", span.start * 1e6);
        w.field("dur", span.dur * 1e6);
        w.key("args").beginObject();
        w.field("id", static_cast<std::uint64_t>(i));
        w.field("parent", span.parent);
        w.field("workload", span.workload);
        w.field("config", span.config);
        w.field("insts", span.insts);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    out << '\n';
    return static_cast<bool>(out);
}

} // namespace arl::benchmark
