/**
 * @file
 * Trace-driven out-of-order timing model of the paper's §4 machine.
 *
 * The model reproduces SimpleScalar's RUU-style core as configured
 * in Table 4: a 16-wide machine with a 256-entry ROB whose front end
 * is perfect (perfect I-cache and branch prediction — realised here
 * by dispatching the committed instruction stream produced by the
 * embedded functional simulator), a stride value predictor, and a
 * data memory system that is either
 *
 *  - conventional: one 128-entry LSQ in front of an N-port L1
 *    D-cache, or
 *  - data-decoupled: a 96-entry LSQ + 96-entry LVAQ pair, steered at
 *    dispatch by addressing-mode rules + the ARPT, in front of an
 *    N-port L1 and an M-port 4 KB LVC.
 *
 * Modelled effects: register dataflow (consumers woken when their
 * producers complete), FU pools, cache-port arbitration (loads at
 * access, stores at commit), lockup-free hierarchy latencies,
 * store→load forwarding inside each queue (1 cycle), LVAQ fast
 * forwarding (loads need not wait for older stores' address
 * generation; offsets identify dependences early), ARPT steering
 * mispredictions verified at TLB translation with selective 1-cycle
 * re-issue (plus a configurable TLB-miss penalty), and
 * value-prediction squash/re-issue on misverification.
 *
 * Cache-port arbitration order: the per-cycle port counters are
 * shared between loads and committing stores, and the stage order
 * within a cycle is completeStage → storeAddrGenStage → memoryStage
 * → issueStage → dispatchStage → commitStage.  memoryStage walks the
 * ROB oldest-first, so *loads claim ports before committing stores*
 * every cycle; a store at the ROB head only writes the cache with
 * whatever ports the cycle's loads left over, and blocks commit (in
 * program order) until it gets one.  Both loss sides are counted:
 * OooStats::portStallsLoad and OooStats::portStallsStoreCommit,
 * reported as ooo.port_stalls.{load,store_commit}.{dcache,lvc} when
 * the configuration models contention.
 *
 * Representation: the ROB is a structure-of-arrays ring — per-field
 * arrays indexed by slot, all carved from a per-core Arena — and each
 * per-cycle stage visits only the instructions whose state can change
 * this cycle, through candidate *bitmaps* (one bit per slot) and
 * state fixed at dispatch:
 *
 *  - Wakeup counts.  Each slot counts its in-flight producers that
 *    block its issue: not completed, and no usable value prediction
 *    standing in for the result.  Dispatch sets the count; a
 *    producer's completion decrements its consumers (robConsumers),
 *    and a squash that un-completes a producer which then blocks
 *    increments them again.  The "blocked" mask is set while the
 *    count is non-zero, so issue selects from "waiting to issue" and
 *    not "blocked" instead of polling every waiting entry's operands.
 *  - Forwarding store fixed at dispatch.  Addresses come from the
 *    trace, and older stores leave a queue only from its front, at
 *    commit.  So a load's youngest older overlapping same-queue store
 *    is known when it dispatches, and stays the answer until that
 *    store commits, after which there is none.
 *  - Address-generation masks.  Each store queue keeps a mask of its
 *    stores still waiting for their AGU pass.
 *  - Completion and the access stage walk the "in execution" and
 *    "waiting for a port" masks.
 *
 * Slots are gathered from the masks in ring order starting at the
 * head, which is exactly the old oldest-first [headSeq, tailSeq) scan
 * order (and, within one store queue, its program order).  A slot a
 * mask leaves out is one the old scan rejected without side effects:
 * a blocked slot failed the operand poll before touching any state.
 * So issue order and port arbitration — and therefore every report
 * byte — are unchanged (tests/test_differential.cc,
 * tests/test_golden.cc).  Debug builds recheck the counts, the masks
 * and every pending load's forwarding store each cycle against the
 * old polling predicates (checkSchedulerInvariants).
 *
 * Pausing: the core can be fed from a step source that holds only a
 * window of the stream (sim::StepSource::ready()), as the sweep's
 * lock-step groups do.  There is one cycle loop; it starts a cycle
 * only while the source has issueWidth instructions ready (dispatch
 * pulls at most that many per cycle), and warmup pulls only what is
 * ready.  Otherwise it returns to the caller, which refills the
 * window and calls resume().  A pause falls between cycles, so a run
 * paused any number of times ends in exactly the state of an unpaused
 * one (tests/test_ooo.cc, OooPause).
 */

#ifndef ARL_OOO_CORE_HH
#define ARL_OOO_CORE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/hierarchy.hh"
#include "cache/tlb.hh"
#include "common/arena.hh"
#include "common/types.hh"
#include "obs/cpi_stack.hh"
#include "obs/histogram.hh"
#include "ooo/branch_predictor.hh"
#include "ooo/config.hh"
#include "ooo/value_predictor.hh"
#include "predict/arpt.hh"
#include "sim/simulator.hh"
#include "sim/step_source.hh"

namespace arl::obs
{
struct Hooks;
class TelemetryScope;
enum class PipeEvent : std::uint8_t;
}

namespace arl::ooo
{

/** End-of-run statistics. */
struct OooStats
{
    std::string configName;
    Cycle cycles = 0;
    InstCount instructions = 0;

    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    /** Committed references by actual region (Data/Heap/Stack). */
    std::uint64_t regionRefs[vm::NumDataRegions] = {0, 0, 0};
    std::uint64_t lvaqSteered = 0;         ///< mem ops sent to the LVAQ
    std::uint64_t regionMispredictions = 0;
    std::uint64_t forwardedLoads = 0;
    std::uint64_t fastForwardedLoads = 0;  ///< forwarded without waiting

    std::uint64_t vpOffered = 0;
    std::uint64_t vpWrong = 0;
    std::uint64_t vpSquashes = 0;

    std::uint64_t branches = 0;
    std::uint64_t branchMispredicts = 0;  ///< realistic front end only

    std::uint64_t l1Hits = 0, l1Misses = 0;
    std::uint64_t lvcHits = 0, lvcMisses = 0;
    std::uint64_t l2Hits = 0, l2Misses = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t tlbMissCycles = 0;  ///< penalty cycles charged

    std::uint64_t robFullStalls = 0;
    std::uint64_t queueFullStalls = 0;
    /**
     * Per-cycle stall attribution (every cause sums to `cycles`).
     * Accumulated only when the configuration is contended or
     * MachineConfig::cpiStack is set; empty otherwise.
     */
    obs::CpiStack cpiStack;
    /** Load latency from port grant to data ready (forwarded = 1);
     *  accumulated under the same gate as the CPI stack. */
    obs::Log2Histogram loadToUse;
    /** Ready loads that found every port of their pipe claimed this
     *  cycle, per pipe [DCache, Lvc]. */
    std::uint64_t portStallsLoad[2] = {0, 0};
    /** Commits blocked because the store at the ROB head found no
     *  free port, per pipe [DCache, Lvc]. */
    std::uint64_t portStallsStoreCommit[2] = {0, 0};

    double ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /** sim-outorder-style end-of-run statistics report. */
    std::string dump() const;
};

/** The out-of-order core. */
class OooCore
{
  public:
    /**
     * @param program the program under study (loads the address
     *        space; the TLB's region map comes from here).
     * @param step_source where the committed instruction stream comes
     *        from.  Null (the default) embeds a live functional
     *        simulator of @p program — the co-simulation the paper's
     *        methodology used.  Passing a replay of a recorded trace,
     *        or a window onto a stream shared with other cores (which
     *        may make the core pause; see resume()), feeds the core
     *        from there instead; timing is bit-identical either way
     *        (tests/test_differential.cc, tests/test_ooo.cc).
     */
    OooCore(const MachineConfig &config,
            std::shared_ptr<const vm::Program> program,
            std::shared_ptr<sim::StepSource> step_source = nullptr);

    /**
     * Fast-forward @p insts instructions functionally before timed
     * simulation (the SimpleScalar methodology for skipping
     * initialisation).  Caches, TLB, ARPT, and the value predictor
     * are warmed from the skipped stream so the timed window starts
     * in steady state.
     *
     * @param warm_last warm microarchitectural state only from the
     *        last @p warm_last of the skipped instructions (0 = all
     *        of them).  A bounded warming window makes the warmed
     *        record set independent of how the prefix was skipped,
     *        which is what lets checkpointed fast-forward (seeking a
     *        trace to a block boundary instead of streaming from
     *        record 0) reproduce functional fast-forward timing
     *        bit-identically: both paths warm the identical final
     *        window.
     */
    void warmup(InstCount insts, InstCount warm_last = 0);

    /**
     * Simulate until the program halts or @p max_insts instructions
     * have been dispatched (0 = unlimited), then drain the pipeline.
     */
    OooStats run(InstCount max_insts = 0);

    /**
     * Phase-sampled measurement window: simulate until @p insts
     * instructions have *committed*, with dispatch free to run past
     * the window edge, and stop the clock at that commit instead of
     * draining.  A window boundary must not charge the pipeline
     * drain that a continuous run overlaps with successor
     * instructions — with run(), that drain biases every sampled
     * interval's CPI upward by ROB-depth cycles.  Near the end of
     * the trace the pipeline can empty before the target; the cycles
     * then include the genuine final drain, exactly like a full run.
     * The returned stats may overshoot @p insts by at most the
     * commit width; extrapolation scales by measured instructions.
     *
     * @param detail_warmup commits to run through the detailed
     *        pipeline *before* the measured window, then discard
     *        from the statistics.  Functional warmup leaves the ROB
     *        empty and the contention backend cold, so each window
     *        pays a fill transient a continuous run pays once; a
     *        short detailed warmup absorbs it (SMARTS-style).  The
     *        microarchitectural state survives the fence — only the
     *        counters restart.
     */
    OooStats runSample(InstCount insts, InstCount detail_warmup = 0);

    /**
     * Pausable forms of warmup(), run() and runSample(): each of
     * those is its begin call followed by one resume() over a source
     * that never runs short.  Begin the phase, then call resume()
     * until it returns true, refilling the source between calls.
     * The deadlock guard, the commit target, the telemetry schedule
     * and the interval sampler's ticks carry across a pause.
     */
    void beginWarmup(InstCount insts, InstCount warm_last = 0);
    void beginRun(InstCount max_insts = 0);
    void beginSample(InstCount insts, InstCount detail_warmup = 0);

    /**
     * Advance the phase begun last until it finishes (true) or its
     * source has too few instructions ready to go on (false).  True
     * at once when no phase is in progress.
     */
    bool resume();

    /** Statistics as of the last finished run or sample phase. */
    const OooStats &result() const { return stats; }

    /**
     * Attach an observability context: registers every stat of this
     * core (and its caches, TLB, and ARPT) into @p hooks->registry
     * under the ooo. / cache. / predict. hierarchies, and enables
     * interval sampling ticks plus pipeline-trace events when the
     * hooks carry a sampler/tracer.  Call before run(); @p hooks must
     * outlive the core.  Pass nullptr to detach.
     */
    void attachObs(obs::Hooks *hooks);

    /**
     * The data-memory hierarchy (tests and instrumentation only —
     * e.g. installing a cache::Hierarchy::AccessObserver to audit
     * per-cycle bank grants).  Timing state belongs to the core; do
     * not issue accesses through this reference.
     */
    cache::Hierarchy &memHierarchy() { return hierarchy; }

    /** Instructions pulled from the step source so far, warmup
     *  included: what a recording of this run's stream would hold. */
    InstCount delivered() const { return stepSrc->delivered(); }

    /**
     * Whether in-flight instruction @p seq (0 = the first dispatched)
     * was selected for issue on a predicted input value since it
     * dispatched or was last squashed — including selections that
     * the queue-order check then rejected.  False when @p seq is not
     * in flight.  Tests only.
     */
    bool usedSpecValue(InstCount seq) const;

  private:
    /** Which memory queue an entry sits in. */
    enum class Queue : std::uint8_t { None, Lsq, Lvaq };

    /** Why the access stage skipped a pending load last try
     *  (CPI-stack attribution state; observation only). */
    enum class MemBlock : std::uint8_t
    {
        None,
        PortDenied,     ///< every port of its pipe was claimed
        StoreNotReady   ///< matched forwarding store not ready
    };

    /** Per-slot state bits (OooCore::robFlags). */
    enum : std::uint16_t
    {
        FlagValid = 1u << 0,
        FlagIssued = 1u << 1,
        FlagCompleted = 1u << 2,
        FlagPendingMem = 1u << 3,     ///< load waiting for a port
        FlagUsedSpecValue = 1u << 4,  ///< issued on a predicted input
        FlagVpConfident = 1u << 5,
        FlagVpWrongKnown = 1u << 6,   ///< verification failed
        FlagAddrGenDone = 1u << 7,    ///< store AGU pass scheduled
        FlagStoreWritten = 1u << 8,   ///< store performed at commit
        FlagRegionChecked = 1u << 9,
        FlagMemStarted = 1u << 10     ///< granted a port; in hierarchy
    };

    /**
     * One bit per ROB slot, arena-backed.  The candidate masks
     * (unissued / exec / pendingMem / blocked / address generation)
     * mirror predicates over per-slot state and are what the
     * per-cycle stages iterate, so stage cost scales with the
     * candidate count instead of the window size.
     */
    struct SlotMask
    {
        std::uint64_t *words = nullptr;
        std::size_t nwords = 0;

        void init(Arena &arena, std::size_t slots)
        {
            nwords = (slots + 63) / 64;
            words = arena.alloc<std::uint64_t>(nwords);
        }
        void set(std::size_t i)
        {
            words[i >> 6] |= std::uint64_t{1} << (i & 63);
        }
        void clear(std::size_t i)
        {
            words[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
        }
        bool test(std::size_t i) const
        {
            return (words[i >> 6] >> (i & 63)) & 1;
        }
        std::size_t count() const;
    };

    /** Per-access contention-delay breakdown (CPI-stack replay). */
    struct MemDelays
    {
        std::uint32_t bank = 0;
        std::uint32_t wb = 0;
        std::uint32_t mshr = 0;
        std::uint32_t bus = 0;
    };

    /** Register-dataflow producers of one entry. */
    struct Deps
    {
        std::int32_t slot[3] = {-1, -1, -1};
        InstCount seq[3] = {0, 0, 0};
        std::uint8_t count = 0;
    };

    // --- pipeline stages (called once per cycle) ---
    void completeStage();
    void memoryStage();
    void issueStage();
    void dispatchStage();
    void commitStage();

    // --- helpers ---
    std::int32_t slotOf(InstCount seq) const
    {
        return static_cast<std::int32_t>(seq & robMask);
    }

    /**
     * Append the slots of @p mask, minus those of @p exclude when
     * given, to @p out in ring order starting at the head slot.
     * Because seq → slot is a ring mapping, visiting `out`
     * front-to-back visits the window oldest-first — identical
     * priority order to the old full-window scans.
     */
    void gatherRing(const SlotMask &mask, std::vector<std::int32_t> &out,
                    const SlotMask *exclude = nullptr) const;

    /**
     * True while in-flight @p slot holds back the issue of its
     * consumers: it has not completed and no usable value prediction
     * stands in for its result.
     */
    bool blocksIssue(std::int32_t slot) const
    {
        const std::uint16_t f = robFlags[slot];
        if (f & FlagCompleted)
            return false;
        return !(config.valuePrediction && (f & FlagVpConfident) &&
                 !(f & FlagVpWrongKnown));
    }

    /** Producer @p slot stopped blocking: wake its consumers. */
    void wakeConsumers(std::int32_t slot);

    /** Producer @p slot blocks again after a squash. */
    void blockConsumers(std::int32_t slot);

    /**
     * Issue selection of unblocked @p slot: mark it as having read a
     * predicted value when any of its producers is still in flight
     * (and so, being non-blocking, value-predicted).
     */
    void noteSpecInputs(std::int32_t slot);

    /** True when queue-order constraints allow load @p slot to issue. */
    bool loadMayIssue(std::int32_t slot) const;

    /**
     * Load @p slot's forwarding store — its youngest older
     * overlapping same-queue store, fixed at dispatch — or -1 once
     * that store has committed (or when there was none).
     */
    std::int32_t forwardingStore(std::int32_t load_slot) const
    {
        return robFwdSlot[load_slot] >= 0 && robFwdSeq[load_slot] >= headSeq
                   ? robFwdSlot[load_slot]
                   : -1;
    }

    /** Verify steering at translation; applies penalty on mispredict. */
    void translateAndVerify(std::int32_t slot);

    /** Recursively squash dependents after a value misprediction. */
    void squashConsumers(std::int32_t producer_slot);

    /** Reset one issued/completed consumer back to waiting. */
    void squashReset(std::int32_t slot, const char *why);

    /** Issue one instruction (shared bookkeeping). */
    void doIssue(std::int32_t slot);

    /** True when two accesses overlap in memory. */
    static bool overlaps(const sim::StepInfo &a, const sim::StepInfo &b);

    /** Emit one pipeline-trace event when tracing is enabled.  The
     *  guard is a single cached-bool test so disabled tracing costs
     *  nothing — in particular no std::string detail temporaries. */
    void trace(obs::PipeEvent ev, std::int32_t slot,
               const char *detail = "")
    {
        if (tracingActive) [[unlikely]]
            traceSlow(ev, slot, detail);
    }
    void traceSlow(obs::PipeEvent ev, std::int32_t slot,
                   const char *detail);

    /** Telemetry interval check (cold path; see cycleLoop()'s
     *  cached telemetryActive/telemetryNext guard). */
    void telemetryBeat();

    /** The phase begun last (see resume()). */
    enum class Phase : std::uint8_t
    {
        Idle,
        Warmup,
        DetailWarmup,  ///< runSample()'s untimed detailed warmup
        Timed
    };

    /** Pull and warm from ready records; true once warmup is done. */
    bool warmSteps();
    /** Arm a cycle phase: cache the obs guards, reset the deadlock
     *  guard. */
    void startCycles();
    /** The cycle loop: true when the phase ends, false on a pause. */
    bool cycleLoop();
    /** Close a cycle phase: final cycle count and cache counters. */
    void finishCycles();
    /** resume() for the blocking calls, whose sources never pause. */
    void resumeUnpaused();

    /**
     * Attribute one zero-commit cycle to a StallCause, driven by the
     * ROB head (top-down accounting); falls back to the cycle's
     * dispatch-block cause when the head's cause is weak.  Called
     * once per zero-commit cycle while accounting is enabled.
     */
    void classifyStallCycle();

    MachineConfig config;
    sim::Simulator funcSim;
    /** Front-end stream; wraps funcSim unless a source was injected. */
    std::shared_ptr<sim::StepSource> stepSrc;
    cache::Hierarchy hierarchy;
    cache::Tlb tlb;
    predict::Arpt arpt;
    ValuePredictor valuePred;
    GsharePredictor branchPred;

    // Realistic-front-end state: dispatch stalls behind an
    // unresolved mispredicted branch, then pays the redirect penalty.
    InstCount blockingBranchSeq = ~InstCount{0};
    Cycle dispatchResumeAt = 0;

    /**
     * ROB ring, structure of arrays: slots [head, tail) by sequence
     * number, one arena-backed array per field.  Hot scheduling
     * fields (flags, cycle stamps, dependences) are densely packed
     * and separate from the cold StepInfo payload, and the candidate
     * masks below replace per-entry eligibility scans.
     */
    Arena arena;
    std::size_t robLimit = 0;        ///< architectural window capacity
    std::size_t robSize = 0;         ///< ring slots (robLimit, pow2-rounded)
    std::size_t robMask = 0;         ///< robSize - 1
    sim::StepInfo *robStep = nullptr;
    InstCount *robSeq = nullptr;
    std::uint16_t *robFlags = nullptr;   ///< Flag* bits
    Cycle *robCompleteAt = nullptr;
    Cycle *robEarliestIssueAt = nullptr;
    Cycle *robMemReqAt = nullptr;
    Cycle *robAddrKnownAt = nullptr;
    Cycle *robTlbStallUntil = nullptr;   ///< page-table walk ends here
    Cycle *robMispredStallUntil = nullptr; ///< re-route penalty end
    Cycle *robMemStartAt = nullptr;      ///< cycle the access began
    MemDelays *robMemDelay = nullptr;    ///< per-access stall breakdown
    Word *robVpValue = nullptr;
    Deps *robDeps = nullptr;
    std::int32_t *robBaseProdSlot = nullptr;
    InstCount *robBaseProdSeq = nullptr;
    /** In-flight producers blocking issue (see blocksIssue()). */
    std::uint8_t *robBlockers = nullptr;
    /** Loads: forwarding store slot/seq fixed at dispatch (-1 = none). */
    std::int32_t *robFwdSlot = nullptr;
    InstCount *robFwdSeq = nullptr;
    std::uint8_t *robQueue = nullptr;    ///< Queue
    std::uint8_t *robPipe = nullptr;     ///< cache::MemPipe
    std::uint8_t *robMemBlock = nullptr; ///< MemBlock
    /** Consumer slot lists (capacity reused across occupants). */
    std::vector<std::vector<std::int32_t>> robConsumers;

    // Candidate masks: valid & !issued & !completed, valid & issued
    // & !completed & !pendingMem, valid & pendingMem, and valid &
    // robBlockers != 0.
    SlotMask unissuedMask;
    SlotMask execMask;
    SlotMask pendingMemMask;
    SlotMask blockedMask;
    /** Reusable gather buffer for the per-cycle stage iterations. */
    std::vector<std::int32_t> gatherBuf;

    InstCount headSeq = 0;   ///< oldest in-flight instruction
    InstCount tailSeq = 0;   ///< next sequence number to dispatch

    // Register producer map: flat reg -> (slot, seq).
    std::int32_t regProducer[isa::NumFlatRegs];
    InstCount regProducerSeq[isa::NumFlatRegs];

    /**
     * Per-queue in-flight store tracking: a fixed-capacity ring
     * (arena-backed parallel seq/slot arrays) holding one queue's
     * stores in program order; `knownPrefix` counts the leading
     * stores whose addresses have been generated, and `addrGen`
     * marks the stores still waiting for their AGU pass.  Together
     * they answer "have all stores older than seq generated their
     * addresses?" in O(log n), bound the forwarding search to the
     * queue's stores instead of the whole window, and let address
     * generation skip the stores that are done.
     */
    struct StoreQueue
    {
        InstCount *seq = nullptr;
        std::int32_t *slot = nullptr;
        std::size_t cap = 0;     ///< power of two, >= robSize
        std::size_t head = 0;
        std::size_t count = 0;
        std::size_t knownPrefix = 0;
        SlotMask addrGen;        ///< by ROB slot: AGU pass pending

        void init(Arena &arena, std::size_t capacity)
        {
            cap = capacity;
            seq = arena.alloc<InstCount>(cap);
            slot = arena.alloc<std::int32_t>(cap);
            addrGen.init(arena, capacity);
        }
        InstCount seqAt(std::size_t i) const
        {
            return seq[(head + i) & (cap - 1)];
        }
        std::int32_t slotAt(std::size_t i) const
        {
            return slot[(head + i) & (cap - 1)];
        }
        void push(InstCount s, std::int32_t sl)
        {
            std::size_t at = (head + count) & (cap - 1);
            seq[at] = s;
            slot[at] = sl;
            ++count;
        }
        void popFront()
        {
            head = (head + 1) & (cap - 1);
            --count;
        }

        /** Index of the first store with seq >= @p seq. */
        std::size_t olderCount(InstCount seq) const;
    };

    StoreQueue &storeQueueOf(Queue queue)
    {
        return queue == Queue::Lvaq ? lvaqStores : lsqStores;
    }
    const StoreQueue &storeQueueOf(Queue queue) const
    {
        return queue == Queue::Lvaq ? lvaqStores : lsqStores;
    }

    /**
     * Youngest of the @p older oldest stores of @p queue that
     * overlaps @p load, or -1.
     */
    std::int32_t youngestOverlappingStore(const StoreQueue &queue,
                                          std::size_t older,
                                          const sim::StepInfo &load) const;

#ifndef NDEBUG
    /**
     * Recheck the event-driven scheduler against the polling it
     * replaced: blocker counts, mask membership, occupancy, and each
     * pending load's forwarding store.  Panics on a mismatch.
     */
    void checkSchedulerInvariants() const;
#endif

    /** Advance each queue's address-known prefix. */
    void advanceStorePrefixes();

    /** Early store address generation (base-operand-only AGU pass). */
    void storeAddrGenStage();

    /** Roll back the known prefix when a store is squashed. */
    void onStoreSquashed(std::int32_t slot);

    StoreQueue lsqStores;
    StoreQueue lvaqStores;

    // Queue occupancy.
    unsigned lsqOccupancy = 0;
    unsigned lvaqOccupancy = 0;

    // Per-cycle resources.
    unsigned portsUsed[2] = {0, 0};   ///< [DCache, Lvc]
    unsigned fuUsed[5] = {0, 0, 0, 0, 0};
    unsigned issuedThisCycle = 0;
    /** Structure dispatch hit this cycle (RobFull / LsqFull /
     *  LvaqFull); NumCauses = dispatch was not blocked. */
    obs::StallCause dispatchBlocked = obs::StallCause::NumCauses;

    // Trace buffering.
    std::optional<sim::StepInfo> pendingStep;
    bool traceExhausted = false;
    InstCount dispatchBudget = 0;    ///< 0 = unlimited
    InstCount commitTarget = 0;      ///< runSample() stop; 0 = off

    // Progress of the phase in flight, kept across pauses.
    Phase phase = Phase::Idle;
    InstCount warmInsts = 0;     ///< records warmup pulls
    InstCount warmSkip = 0;      ///< leading ones it does not warm on
    InstCount warmPulled = 0;
    /** runSample()'s window, armed once its detailed warmup ends. */
    InstCount sampleInsts = 0;
    /** The telemetry scope muted through a detailed warmup. */
    obs::TelemetryScope *mutedTelemetry = nullptr;
    /** Forward-progress guard: cycles since the commit count last
     *  moved from lastCommitted. */
    Cycle stalledCycles = 0;
    InstCount lastCommitted = 0;
    /** Clock value at the last statsFence(); reported cycles are
     *  relative to it so a detailed warmup phase is untimed. */
    Cycle cycleBase = 0;

    /** Restart every statistic (core counters, CPI stack, cache and
     *  TLB hit counters) without touching microarchitectural state.
     *  The boundary between a detailed warmup and its measured
     *  window. */
    void statsFence();

    Cycle now = 0;
    OooStats stats;
    obs::Hooks *obsHooks = nullptr;
    /** Per-cycle stall attribution on? (contended or forced). */
    bool cpiEnabled = false;
    /** A pipeline/Chrome tracer is attached (cached; see trace()). */
    bool tracingActive = false;
    /** A telemetry scope is attached (cached when a cycle phase
     *  starts, same pattern as tracingActive: disabled telemetry is
     *  one short-circuited branch per cycle). */
    bool telemetryActive = false;
    /** Committed-instruction count of the next telemetry check. */
    InstCount telemetryNext = 0;
    /** ARL_OOO_TRACE set in the environment (cached at construction). */
    bool debugTraceEnv = false;
};

} // namespace arl::ooo

#endif // ARL_OOO_CORE_HH
