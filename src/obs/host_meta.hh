/**
 * @file
 * Host metadata for self-describing reports: what built this binary
 * (git SHA, compiler, build type, arl version), what it ran on (CPU
 * count), and when (a wall timestamp through an injectable clock so
 * determinism tests and reproducible pipelines can pin it).
 *
 * The timestamp clock resolves in order: an injected test clock
 * (setMetaClock), the SOURCE_DATE_EPOCH environment variable (the
 * reproducible-builds convention), then the real system clock.
 */

#ifndef ARL_OBS_HOST_META_HH
#define ARL_OBS_HOST_META_HH

#include <cstdint>
#include <string>

namespace arl::obs
{

class JsonWriter;

/** Build + host identity stamped into reports. */
struct HostMeta
{
    std::string version;     ///< ARL_VERSION
    std::string gitSha;      ///< configure-time git SHA ("unknown")
    std::string buildType;   ///< CMAKE_BUILD_TYPE
    std::string compiler;    ///< compiler identity (__VERSION__)
    unsigned cpus = 0;       ///< std::thread::hardware_concurrency
    std::uint64_t timestamp = 0;  ///< seconds since epoch (metaNow)
};

/** Injected wall-clock source: seconds since the Unix epoch. */
using MetaClock = std::uint64_t (*)();

/**
 * Install @p clock as the timestamp source (nullptr restores the
 * default SOURCE_DATE_EPOCH / system-clock chain).  Tests use this
 * to pin meta blocks byte-for-byte.
 */
void setMetaClock(MetaClock clock);

/** Wall seconds since epoch through the injectable chain above. */
std::uint64_t metaNow();

/** Capture the full host/build identity (timestamp via metaNow). */
HostMeta hostMeta();

/** Peak resident set size of this process in KiB (getrusage). */
std::uint64_t peakRssKb();

/** Emit @p meta as one JSON object value (caller wrote the key). */
void writeHostMetaJson(JsonWriter &w, const HostMeta &meta);

} // namespace arl::obs

#endif // ARL_OBS_HOST_META_HH
