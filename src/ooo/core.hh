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
 *  - Producer distances.  Each StepInfo carries, per source register,
 *    how many records back the stream last wrote it (sim::LastWriters;
 *    a sweep group fills them once for all its cores, and the core
 *    fills any record that arrives without).  At dispatch a source's
 *    producer is tailSeq - d, in flight iff 0 < d <= tailSeq -
 *    headSeq, so the core keeps no register map.
 *  - Wakeup counts.  Each slot counts its in-flight producers that
 *    block its issue: not completed, and no usable value prediction
 *    standing in for the result.  Dispatch sets the count; a
 *    producer's completion decrements its consumers, and a squash
 *    that un-completes a producer which then blocks increments them
 *    again.  The "blocked" mask is set while the count is non-zero,
 *    so issue selects from "waiting to issue" and not "blocked"
 *    instead of polling every waiting entry's operands.
 *  - Unfinished counts.  Each slot also counts its dependences on
 *    producers that have not completed, value-predicted or not:
 *    dispatch sets it to the dependence count, every completion
 *    decrements the producer's consumers, and a squash that
 *    un-completes a producer increments them.  "Was this issue
 *    selected on a predicted input?" is then one test.
 *  - Consumers as edge lists.  Edge c*3+i is consumer slot c's i-th
 *    dependence; each producer links the edges that name it in
 *    dispatch order (head to tail), so a producer's consumers are
 *    walked without a per-slot container.
 *  - Load ordering in O(1).  Each store queue counts the stores
 *    pushed and popped, and dispatch records the push count in the
 *    slot: for a load, how many stores are older; for a store, its
 *    own index.  "Have all older same-queue stores generated their
 *    addresses?" is then one compare against the queue's known
 *    prefix.
 *  - Forwarding store fixed at dispatch.  Addresses come from the
 *    trace, and older stores leave a queue only from its front, at
 *    commit.  So a load's youngest older overlapping same-queue store
 *    is known when it dispatches, and stays the answer until that
 *    store commits, after which there is none.  The search scans the
 *    queue's own [start, end) address arrays.
 *  - Address-generation readiness.  A store's base producer, when
 *    one is unfinished at dispatch, is its dependence 0 (FlagBaseDep).
 *    Each store queue keeps a mask, and a count, of its stores whose
 *    AGU pass is pending and whose base has resolved: set at
 *    dispatch when the base has no unfinished producer, at that
 *    producer's completion (its edge 0), and when a squashed store's
 *    base has resolved; cleared by the AGU pass and when the base
 *    producer is squashed back to unfinished.  Address generation
 *    walks that mask instead of re-checking every pending store.
 *  - Completion and the access stage walk the "in execution" and
 *    "waiting for a port" masks.
 *
 * Each stage walks its mask in place (forEachRing) in ring order
 * starting at the head, which is exactly the old oldest-first
 * [headSeq, tailSeq) scan order (and, within one store queue, its
 * program order).  A word is read when the walk reaches it; no stage
 * sets a bit in the mask it walks, so that equals a snapshot taken
 * up front, less the bits the stage itself cleared.  A slot a mask
 * leaves out is one the old scan rejected without side effects: a
 * blocked slot failed the operand poll before touching any state.
 * So issue order and port arbitration — and therefore every report
 * byte — are unchanged (tests/test_differential.cc,
 * tests/test_golden.cc).  Debug builds recheck the counts, the masks,
 * every dependence and base producer (against a register map rebuilt
 * over the window), every pending load's forwarding store, every
 * memory op's store index, every queued store's address interval and
 * every consumer edge each cycle against the state they summarise
 * (checkSchedulerInvariants).
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

#include <bit>
#include <cstdint>
#include <memory>
#include <type_traits>

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
     *        of them); the earlier ones only advance the stream.
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
     * The deadlock guard, the commit target and the observability
     * threshold carry across a pause.
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
     * under the ooo. / cache. / predict. hierarchies.  Each cycle
     * phase then arms the hooks' schedule and calls their progress()
     * at its thresholds, and pipe events go to their sinks while one
     * writes them.  Call before run(); @p hooks must outlive the core.
     * Pass nullptr to detach.
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
        FlagMemStarted = 1u << 10,    ///< granted a port; in hierarchy
        FlagBaseDep = 1u << 11        ///< store: dependence 0 is the base
    };

    /**
     * One bit per ROB slot, arena-backed.  The candidate masks
     * (unissued / exec / pendingMem / blocked / address-ready)
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

    /** Most register producers one instruction reads. */
    static constexpr std::int32_t kMaxDeps = 3;

    /** Register-dataflow producers of one entry. */
    struct Deps
    {
        std::int32_t slot[kMaxDeps] = {-1, -1, -1};
        InstCount seq[kMaxDeps] = {0, 0, 0};
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
     * Call @p fn on each slot of @p mask, minus those of @p exclude
     * when given, in ring order starting at the head slot.  Because
     * seq → slot is a ring mapping, that visits the window
     * oldest-first — identical priority order to the old full-window
     * scans.  Each word is read when the walk reaches it, so @p fn
     * may clear bits (a cleared slot not yet reached is skipped) but
     * must set none in @p mask or @p exclude.  An @p fn that returns
     * bool ends the walk by returning false.
     */
    template <typename Fn>
    void forEachRing(const SlotMask &mask, Fn &&fn,
                     const SlotMask *exclude = nullptr) const
    {
        const auto head = static_cast<std::size_t>(slotOf(headSeq));
        const std::uint64_t from_head = ~std::uint64_t{0} << (head & 63);
        std::size_t w = head >> 6;
        // nwords + 1 reads: the head word's bits at or above the head
        // first, the words after it (wrapping), then its bits below.
        for (std::size_t step = 0; step <= mask.nwords; ++step) {
            std::uint64_t bits = mask.words[w];
            if (exclude)
                bits &= ~exclude->words[w];
            if (step == 0)
                bits &= from_head;
            else if (step == mask.nwords)
                bits &= ~from_head;
            while (bits) {
                const auto slot = static_cast<std::int32_t>(
                    (w << 6) + static_cast<unsigned>(std::countr_zero(bits)));
                bits &= bits - 1;
                if constexpr (std::is_same_v<
                                  std::invoke_result_t<Fn &, std::int32_t>,
                                  bool>) {
                    if (!fn(slot))
                        return;
                } else {
                    fn(slot);
                }
            }
            if (++w == mask.nwords)
                w = 0;
        }
    }

    /** Call @p fn on each consumer slot of producer @p slot, once per
     *  dependence edge, in dispatch order. */
    template <typename Fn>
    void forEachConsumer(std::int32_t slot, Fn &&fn) const
    {
        for (std::int32_t e = robConsHead[slot]; e >= 0; e = edgeNext[e])
            fn(e / kMaxDeps);
    }

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

    /**
     * Producer @p slot is completing: its consumers lose an
     * unfinished producer, those it blocked wake, and a store whose
     * base it is may generate its address.  Call before setting
     * FlagCompleted.
     */
    void wakeConsumers(std::int32_t slot);

    /** Producer @p slot was squashed back to unfinished: the reverse
     *  of wakeConsumers().  Call after clearing FlagCompleted. */
    void blockConsumers(std::int32_t slot);

    /** True when store @p slot's base has no unfinished producer. */
    bool baseResolved(std::int32_t slot) const
    {
        return !(robFlags[slot] & FlagBaseDep) ||
               robDeps[slot].seq[0] < headSeq ||
               (robFlags[robDeps[slot].slot[0]] & FlagCompleted);
    }

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

    /** The committed count reached obsNext: hand obsHooks this
     *  cycle's TelemetryFrame and cache the next threshold. */
    void obsProgress();

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
    /** In-flight producers blocking issue (see blocksIssue()). */
    std::uint8_t *robBlockers = nullptr;
    /** In-flight producers not yet completed, among robDeps. */
    std::uint8_t *robUnfinished = nullptr;
    /** Loads: forwarding store slot/seq fixed at dispatch (-1 = none). */
    std::int32_t *robFwdSlot = nullptr;
    InstCount *robFwdSeq = nullptr;
    /** Memory ops: the queue's push count at dispatch (a load's older
     *  stores, a store's own index; see StoreQueue::pushed). */
    InstCount *robStoreIdx = nullptr;
    std::uint8_t *robQueue = nullptr;    ///< Queue
    std::uint8_t *robPipe = nullptr;     ///< cache::MemPipe
    std::uint8_t *robMemBlock = nullptr; ///< MemBlock
    /**
     * Consumer lists: first and last edge naming each producer slot
     * (-1 = none), and each edge's successor.  Edge c*kMaxDeps+i is
     * robDeps[c].slot[i]; dispatch appends at the tail, so a list is
     * in consumer dispatch order.  A list is reset when its slot is
     * reallocated: consumers retire after their producer, so a live
     * producer's edges all belong to live consumers.
     */
    std::int32_t *robConsHead = nullptr;
    std::int32_t *robConsTail = nullptr;
    std::int32_t *edgeNext = nullptr;

    // Candidate masks: valid & !issued & !completed, valid & issued
    // & !completed & !pendingMem, valid & pendingMem, and valid &
    // robBlockers != 0.
    SlotMask unissuedMask;
    SlotMask execMask;
    SlotMask pendingMemMask;
    SlotMask blockedMask;

    InstCount headSeq = 0;   ///< oldest in-flight instruction
    InstCount tailSeq = 0;   ///< next sequence number to dispatch

    /** Fills the producer distances of records that arrive without:
     *  every such record passes it, warmup's only as a writer. */
    sim::LastWriters lastWriters;

    /**
     * Per-queue in-flight store tracking: a fixed-capacity ring
     * (arena-backed parallel seq/slot/address arrays) holding one
     * queue's stores in program order.  Store number n (counting
     * from the first ever pushed) sits at ring index n mod cap, and
     * the queue holds numbers [popped, pushed).  `knownPrefix`
     * counts the leading stores whose addresses have been generated,
     * and `addrReady` marks the stores whose AGU pass is pending and
     * whose base has resolved.  Together they answer "have all stores
     * older than a dispatched op generated their addresses?" in O(1),
     * bound the forwarding search to the queue's stores instead of
     * the whole window, and let address generation visit only the
     * stores it can serve.
     */
    struct StoreQueue
    {
        InstCount *seq = nullptr;
        std::int32_t *slot = nullptr;
        Addr *addrStart = nullptr;  ///< [start, end) bytes each store writes
        Addr *addrEnd = nullptr;
        std::size_t cap = 0;     ///< power of two, >= robSize
        InstCount pushed = 0;
        InstCount popped = 0;
        std::size_t knownPrefix = 0;
        /** By ROB slot: AGU pass pending and base resolved. */
        SlotMask addrReady;
        std::size_t readyCount = 0;  ///< bits set in addrReady

        void init(Arena &arena, std::size_t capacity)
        {
            cap = capacity;
            seq = arena.alloc<InstCount>(cap);
            slot = arena.alloc<std::int32_t>(cap);
            addrStart = arena.alloc<Addr>(cap);
            addrEnd = arena.alloc<Addr>(cap);
            addrReady.init(arena, capacity);
        }
        void markReady(std::int32_t s)
        {
            if (!addrReady.test(s)) {
                addrReady.set(s);
                ++readyCount;
            }
        }
        void unmarkReady(std::int32_t s)
        {
            if (addrReady.test(s)) {
                addrReady.clear(s);
                --readyCount;
            }
        }
        std::size_t size() const { return pushed - popped; }
        /** Ring index of the @p i-th oldest queued store. */
        std::size_t at(std::size_t i) const
        {
            return (popped + i) & (cap - 1);
        }
        InstCount seqAt(std::size_t i) const { return seq[at(i)]; }
        std::int32_t slotAt(std::size_t i) const { return slot[at(i)]; }
        void push(InstCount s, std::int32_t sl, Addr start, Addr end)
        {
            const std::size_t i = pushed & (cap - 1);
            seq[i] = s;
            slot[i] = sl;
            addrStart[i] = start;
            addrEnd[i] = end;
            ++pushed;
        }
        void popFront() { ++popped; }

#ifndef NDEBUG
        /** Index of the first store with seq >= @p seq (the binary
         *  search robStoreIdx replaces; rechecked in Debug). */
        std::size_t olderCount(InstCount seq) const;
#endif
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
     * Slot of the youngest of the @p older oldest stores of @p queue
     * that overlaps the load bytes [@p start, @p end), or -1.
     */
    static std::int32_t youngestOverlappingStore(const StoreQueue &queue,
                                                 std::size_t older,
                                                 Addr start, Addr end);

#ifndef NDEBUG
    /**
     * Recheck the event-driven scheduler against the polling it
     * replaced: producer distances and dependences (against a
     * register map rebuilt over the window), blocker and unfinished
     * counts, mask membership, address readiness, occupancy, each
     * pending load's forwarding store, each memory op's store index
     * (against the binary search), each queued store's interval
     * (against its StepInfo) and each producer's consumer edges
     * (against its consumers' Deps).  Panics on a mismatch.
     */
    void checkSchedulerInvariants() const;

    /** Records before this one had their distances, dependences and
     *  base flag, all fixed at dispatch, checked once. */
    mutable InstCount dataflowChecked = 0;
#endif

    /** Advance each queue's address-known prefix. */
    void advanceStorePrefixes();

    /** Early store address generation (base-operand-only AGU pass). */
    void storeAddrGenStage();

    /** Roll back the known prefix when a store is squashed, and put
     *  it back up for address generation. */
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
    /** robStep[slotOf(tailSeq)] holds the next instruction, pulled
     *  but not yet dispatched (a full queue held it back). */
    bool pendingStep = false;
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

    /** Zero the L1, LVC and L2 hit, miss and writeback counters and
     *  the TLB's hits and misses (warmup's end and statsFence()). */
    void clearMemCounters();

    Cycle now = 0;
    OooStats stats;
    obs::Hooks *obsHooks = nullptr;
    /** Per-cycle stall attribution on? (contended or forced). */
    bool cpiEnabled = false;
    /** A sink writes pipe events (cached; see trace()). */
    bool tracingActive = false;
    /** Committed count at which obsHooks wants the next
     *  progress() call (set when a cycle phase starts): the cycle
     *  loop's one observability compare. */
    InstCount obsNext = ~InstCount{0};
};

} // namespace arl::ooo

#endif // ARL_OOO_CORE_HH
