#include "obs/profiler.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "obs/json.hh"
#include "obs/stats_registry.hh"

namespace arl::obs
{

namespace
{

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct Accum
{
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;
    std::uint64_t guestInsts = 0;
    std::uint64_t guestCycles = 0;
};

} // namespace

/** One thread's private accumulation state; never shared hot. */
struct Profiler::ThreadLog
{
    std::unordered_map<std::string, Accum> byPath;
    /** Active scope paths, innermost last. */
    std::vector<std::string> stack;
};

struct Profiler::Impl
{
    std::mutex mu;
    /** Keeps logs alive past thread exit so report() can merge. */
    std::vector<std::shared_ptr<ThreadLog>> logs;
};

std::atomic<bool> Profiler::enabledFlag{false};

Profiler::Profiler() : impl(new Impl) {}

Profiler &
Profiler::instance()
{
    static Profiler profiler;
    return profiler;
}

Profiler::ThreadLog &
Profiler::threadLog()
{
    thread_local std::shared_ptr<ThreadLog> tls;
    if (!tls) {
        tls = std::make_shared<ThreadLog>();
        std::lock_guard<std::mutex> lock(impl->mu);
        impl->logs.push_back(tls);
    }
    return *tls;
}

void
Profiler::enable()
{
    std::lock_guard<std::mutex> lock(impl->mu);
    for (auto &log : impl->logs) {
        log->byPath.clear();
        log->stack.clear();
    }
    enableNs = nowNs();
    enabledFlag.store(true, std::memory_order_relaxed);
}

void
Profiler::disable()
{
    enabledFlag.store(false, std::memory_order_relaxed);
}

// ---- ProfScope ----------------------------------------------------

void
ProfScope::begin(const char *name, Mode mode)
{
    Profiler::ThreadLog &log = Profiler::instance().threadLog();
    std::string path;
    if (mode == Mode::Absolute || log.stack.empty())
        path = name;
    else
        path = log.stack.back() + "/" + name;
    log.stack.push_back(std::move(path));
    started = true;
    startNs = nowNs();
}

void
ProfScope::end()
{
    Profiler::ThreadLog &log = Profiler::instance().threadLog();
    if (log.stack.empty())
        return;  // enable() raced a live scope; drop the sample
    Accum &accum = log.byPath[log.stack.back()];
    accum.ns += nowNs() - startNs;
    accum.calls += 1;
    log.stack.pop_back();
}

void
ProfScope::addCount(std::uint64_t insts, std::uint64_t cycles)
{
    Profiler::ThreadLog &log = Profiler::instance().threadLog();
    if (log.stack.empty())
        return;
    Accum &accum = log.byPath[log.stack.back()];
    accum.guestInsts += insts;
    accum.guestCycles += cycles;
}

// ---- report -------------------------------------------------------

namespace
{

Profiler::Node &
childNamed(std::vector<Profiler::Node> &nodes, const std::string &seg)
{
    for (Profiler::Node &node : nodes)
        if (node.name == seg)
            return node;
    nodes.push_back({});
    nodes.back().name = seg;
    return nodes.back();
}

void
sortTree(std::vector<Profiler::Node> &nodes)
{
    std::sort(nodes.begin(), nodes.end(),
              [](const Profiler::Node &a, const Profiler::Node &b) {
                  return a.name < b.name;
              });
    for (Profiler::Node &node : nodes)
        sortTree(node.children);
}

} // namespace

Profiler::Report
Profiler::report() const
{
    // Merge per-thread logs path-by-path into a deterministic map.
    std::map<std::string, Accum> merged;
    {
        std::lock_guard<std::mutex> lock(impl->mu);
        for (const auto &log : impl->logs)
            for (const auto &[path, accum] : log->byPath) {
                Accum &into = merged[path];
                into.ns += accum.ns;
                into.calls += accum.calls;
                into.guestInsts += accum.guestInsts;
                into.guestCycles += accum.guestCycles;
            }
    }

    Report out;
    out.totalSeconds =
        enableNs ? (nowNs() - enableNs) / 1e9 : 0.0;
    out.peakRssKb = obs::peakRssKb();
    out.meta = hostMeta();
    for (const auto &[path, accum] : merged) {
        out.guestInsts += accum.guestInsts;
        out.guestCycles += accum.guestCycles;
        std::vector<Node> *level = &out.phases;
        Node *node = nullptr;
        std::size_t begin = 0;
        while (begin <= path.size()) {
            std::size_t slash = path.find('/', begin);
            std::string seg =
                path.substr(begin, slash == std::string::npos
                                       ? std::string::npos
                                       : slash - begin);
            node = &childNamed(*level, seg);
            level = &node->children;
            if (slash == std::string::npos)
                break;
            begin = slash + 1;
        }
        node->ns = accum.ns;
        node->calls = accum.calls;
        node->guestInsts = accum.guestInsts;
        node->guestCycles = accum.guestCycles;
    }
    sortTree(out.phases);
    return out;
}

std::uint64_t
Profiler::Node::inclusiveGuestInsts() const
{
    std::uint64_t total = guestInsts;
    for (const Node &child : children)
        total += child.inclusiveGuestInsts();
    return total;
}

double
Profiler::Node::mips() const
{
    const double secs = seconds();
    return secs > 0.0 ? inclusiveGuestInsts() / 1e6 / secs : 0.0;
}

double
Profiler::Report::phaseSeconds() const
{
    double total = 0.0;
    for (const Node &node : phases)
        total += node.seconds();
    return total;
}

namespace
{

void
renderNode(std::ostringstream &os, const Profiler::Node &node,
           unsigned depth, double total_seconds)
{
    char line[192];
    std::string label(depth * 2, ' ');
    label += node.name;
    const double pct = total_seconds > 0.0
                           ? 100.0 * node.seconds() / total_seconds
                           : 0.0;
    const std::uint64_t insts = node.inclusiveGuestInsts();
    if (insts)
        std::snprintf(line, sizeof(line),
                      "  %-34s %9.3fs %5.1f%% %7llu %11llu %7.2f\n",
                      label.c_str(), node.seconds(), pct,
                      (unsigned long long)node.calls,
                      (unsigned long long)insts, node.mips());
    else
        std::snprintf(line, sizeof(line),
                      "  %-34s %9.3fs %5.1f%% %7llu %11s %7s\n",
                      label.c_str(), node.seconds(), pct,
                      (unsigned long long)node.calls, "-", "-");
    os << line;
    for (const Profiler::Node &child : node.children)
        renderNode(os, child, depth + 1, total_seconds);
}

} // namespace

std::string
Profiler::Report::render() const
{
    std::ostringstream os;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "host profile: wall %.3fs, phases %.3fs (%.1f%% "
                  "coverage), guest %llu insts (%.2f MIPS aggregate), "
                  "peak RSS %llu KB\n",
                  totalSeconds, phaseSeconds(),
                  totalSeconds > 0.0
                      ? 100.0 * phaseSeconds() / totalSeconds
                      : 0.0,
                  (unsigned long long)guestInsts, aggregateMips(),
                  (unsigned long long)peakRssKb);
    os << line;
    std::snprintf(line, sizeof(line),
                  "build: v%s git %s %s, %s, %u CPUs\n",
                  meta.version.c_str(), meta.gitSha.c_str(),
                  meta.buildType.c_str(), meta.compiler.c_str(),
                  meta.cpus);
    os << line;
    std::snprintf(line, sizeof(line),
                  "  %-34s %10s %6s %7s %11s %7s\n", "phase", "wall",
                  "%", "calls", "g-insts", "MIPS");
    os << line;
    for (const Node &node : phases)
        renderNode(os, node, 0, totalSeconds);
    return os.str();
}

namespace
{

void
writeNodeJson(JsonWriter &w, const Profiler::Node &node)
{
    w.beginObject();
    w.field("name", node.name);
    w.field("seconds", node.seconds());
    w.field("calls", node.calls);
    w.field("guest_insts", node.guestInsts);
    w.field("guest_cycles", node.guestCycles);
    w.field("mips", node.mips());
    w.key("children").beginArray();
    for (const Profiler::Node &child : node.children)
        writeNodeJson(w, child);
    w.endArray();
    w.endObject();
}

} // namespace

void
Profiler::Report::writeJson(std::ostream &os,
                            const std::string &tool) const
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema_version", 1);
    w.field("tool", tool);
    w.field("kind", "profile");
    w.key("meta");
    writeHostMetaJson(w, meta);
    w.field("peak_rss_kb", peakRssKb);
    w.field("total_seconds", totalSeconds);
    w.field("phase_seconds", phaseSeconds());
    w.field("guest_insts", guestInsts);
    w.field("guest_cycles", guestCycles);
    w.field("guest_mips", aggregateMips());
    w.key("phases").beginArray();
    for (const Node &node : phases)
        writeNodeJson(w, node);
    w.endArray();
    w.endObject();
    os << '\n';
}

namespace
{

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

bool
validatePhases(const JsonValue &phases, std::string *error,
               unsigned depth)
{
    if (depth > 32)
        return fail(error, "phase tree deeper than 32 levels");
    if (!phases.isArray())
        return fail(error, "\"phases\"/\"children\" is not an array");
    for (std::size_t i = 0; i < phases.array.size(); ++i) {
        const JsonValue &phase = phases.array[i];
        const std::string at = "phase " + std::to_string(i);
        if (!phase.isObject())
            return fail(error, at + " is not an object");
        const JsonValue *name = phase.find("name");
        if (!name || !name->isString())
            return fail(error, at + ": bad or missing \"name\"");
        for (const char *key : {"seconds", "calls"}) {
            const JsonValue *field = phase.find(key);
            if (!field || !field->isNumber())
                return fail(error, at + " (" + name->string +
                                       "): bad or missing \"" + key +
                                       "\"");
        }
        const JsonValue *children = phase.find("children");
        if (!children)
            return fail(error, at + " (" + name->string +
                                   "): missing \"children\"");
        if (!validatePhases(*children, error, depth + 1))
            return false;
    }
    return true;
}

} // namespace

bool
validateProfileDoc(const JsonValue &doc, std::string *error)
{
    if (!doc.isObject())
        return fail(error, "top-level value is not an object");
    const JsonValue *kind = doc.find("kind");
    if (!kind || !kind->isString() || kind->string != "profile")
        return fail(error, "\"kind\" is not \"profile\"");
    const JsonValue *meta = doc.find("meta");
    if (!meta || !meta->isObject())
        return fail(error, "\"meta\" is not an object");
    const JsonValue *total = doc.find("total_seconds");
    if (!total || !total->isNumber())
        return fail(error, "bad or missing \"total_seconds\"");
    const JsonValue *phases = doc.find("phases");
    if (!phases)
        return fail(error, "missing \"phases\"");
    return validatePhases(*phases, error, 0);
}

namespace
{

void
addNodeStats(StatsRegistry &reg, const Profiler::Node &node,
             const std::string &prefix)
{
    std::string base = prefix + "." + node.name;
    reg.gauge(base + ".seconds") = node.seconds();
    reg.counter(base + ".calls") = node.calls;
    reg.counter(base + ".guest_insts") = node.guestInsts;
    reg.gauge(base + ".mips") = node.mips();
    for (const Profiler::Node &child : node.children)
        addNodeStats(reg, child, base);
}

} // namespace

void
Profiler::Report::addStats(StatsRegistry &reg,
                           const std::string &prefix) const
{
    reg.gauge(prefix + ".total_seconds") = totalSeconds;
    reg.gauge(prefix + ".phase_seconds") = phaseSeconds();
    reg.counter(prefix + ".guest_insts") = guestInsts;
    reg.gauge(prefix + ".guest_mips") = aggregateMips();
    reg.counter(prefix + ".peak_rss_kb") = peakRssKb;
    for (const Node &node : phases)
        addNodeStats(reg, node, prefix);
}

} // namespace arl::obs
