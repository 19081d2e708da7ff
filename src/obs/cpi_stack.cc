#include "obs/cpi_stack.hh"

#include "obs/stats_registry.hh"

namespace arl::obs
{

const char *
stallCauseName(StallCause cause)
{
    switch (cause) {
      case StallCause::Commit: return "commit";
      case StallCause::FrontendEmpty: return "frontend_empty";
      case StallCause::RobFull: return "rob_full";
      case StallCause::LsqFull: return "lsq_full";
      case StallCause::LvaqFull: return "lvaq_full";
      case StallCause::LoadPort: return "load_port";
      case StallCause::StoreCommit: return "store_commit";
      case StallCause::BankConflict: return "bank_conflict";
      case StallCause::MshrFull: return "mshr_full";
      case StallCause::WritebackFull: return "writeback_full";
      case StallCause::BusBusy: return "bus_busy";
      case StallCause::TlbWalk: return "tlb_walk";
      case StallCause::RegionMispredict: return "region_mispredict";
      case StallCause::MemLatency: return "mem_latency";
      case StallCause::ExecLatency: return "exec_latency";
      case StallCause::Other: return "other";
      case StallCause::NumCauses: break;
    }
    return "unknown";
}

std::uint64_t
CpiStack::total() const
{
    std::uint64_t sum = 0;
    for (unsigned c = 0; c < static_cast<unsigned>(StallCause::NumCauses);
         ++c)
        sum += cycles_[c][0] + cycles_[c][1];
    return sum;
}

void
CpiStack::registerStats(StatsRegistry &registry,
                        const std::string &prefix) const
{
    auto per_pipe = [&](StallCause cause, const std::string &name,
                        const char *what) {
        const unsigned c = static_cast<unsigned>(cause);
        registry.addCounter(prefix + "." + name + ".dcache",
                            &cycles_[c][0],
                            std::string(what) + " (D-cache pipe)");
        registry.addCounter(prefix + "." + name + ".lvc",
                            &cycles_[c][1],
                            std::string(what) + " (LVC pipe)");
    };
    auto summed = [&](StallCause cause, const char *what) {
        registry.addFormula(
            prefix + "." + stallCauseName(cause),
            [this, cause] { return static_cast<double>(of(cause)); },
            what);
    };

    summed(StallCause::Commit, "cycles with at least one commit");
    summed(StallCause::FrontendEmpty,
           "zero-commit cycles with an empty ROB");
    summed(StallCause::RobFull,
           "zero-commit cycles while dispatch hit a full ROB");
    summed(StallCause::LsqFull,
           "zero-commit cycles while dispatch hit a full LSQ");
    summed(StallCause::LvaqFull,
           "zero-commit cycles while dispatch hit a full LVAQ");

    // The port cause uses the paper's per-structure names directly.
    const unsigned load_port =
        static_cast<unsigned>(StallCause::LoadPort);
    registry.addCounter(prefix + ".dcache_port",
                        &cycles_[load_port][0],
                        "cycles the head load found no D-cache port");
    registry.addCounter(prefix + ".lvc_port", &cycles_[load_port][1],
                        "cycles the head load found no LVC port");

    per_pipe(StallCause::StoreCommit, "store_commit",
             "cycles commit waited for a store port");
    per_pipe(StallCause::BankConflict, "bank_conflict",
             "cycles the head load serialized behind a busy bank");
    per_pipe(StallCause::MshrFull, "mshr_full",
             "cycles the head miss waited for a free MSHR");

    summed(StallCause::WritebackFull,
           "cycles the head miss waited on the writeback buffer");
    summed(StallCause::BusBusy,
           "cycles the head fill queued behind the shared bus");
    summed(StallCause::TlbWalk,
           "cycles the head access walked the page table");
    summed(StallCause::RegionMispredict,
           "cycles the head recovered from a steering mispredict");
    summed(StallCause::MemLatency,
           "cycles the head load waited on hierarchy latency");
    summed(StallCause::ExecLatency,
           "cycles the head executed in a functional unit");
    summed(StallCause::Other,
           "residual zero-commit cycles (store-data, issue ramp)");

    registry.addFormula(
        prefix + ".total",
        [this] { return static_cast<double>(total()); },
        "sum over every cause; equals ooo.cycles");
}

} // namespace arl::obs
