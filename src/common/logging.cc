#include "common/logging.hh"

#include <cstdio>
#include <vector>

namespace arl
{

namespace
{

LogLevel currentLevel = LogLevel::Warn;

} // namespace

void
setLogLevel(LogLevel level)
{
    currentLevel = level;
}

LogLevel
logLevel()
{
    return currentLevel;
}

namespace log_detail
{

std::string
vformat(const char *fmt, std::va_list ap)
{
    std::va_list ap_copy;
    va_copy(ap_copy, ap);
    int needed = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (needed < 0)
        return std::string("<format error>");
    std::vector<char> buf(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<std::size_t>(needed));
}

void
emit(LogLevel severity, const char *tag, const std::string &message)
{
    if (severity < currentLevel)
        return;
    std::fprintf(stderr, "%s: %s\n", tag, message.c_str());
    std::fflush(stderr);
}

} // namespace log_detail

void
warn(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    log_detail::emit(LogLevel::Warn, "warn", log_detail::vformat(fmt, ap));
    va_end(ap);
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    // Error is the highest filterable level, so fatal/panic always
    // clear the threshold regardless of --quiet.
    log_detail::emit(LogLevel::Error, "fatal",
                     log_detail::vformat(fmt, ap));
    va_end(ap);
    std::exit(1);
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    log_detail::emit(LogLevel::Error, "panic",
                     log_detail::vformat(fmt, ap));
    va_end(ap);
    std::abort();
}

void
assertFail(const char *condition, const char *file, int line,
           const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string detail = log_detail::vformat(fmt, ap);
    va_end(ap);
    std::string message = "assertion failed: " + std::string(condition) +
                          " (" + file + ":" + std::to_string(line) + ")";
    if (!detail.empty())
        message += " " + detail;
    log_detail::emit(LogLevel::Error, "panic", message);
    std::abort();
}

} // namespace arl
