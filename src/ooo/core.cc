#include "ooo/core.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "isa/addr_mode.hh"
#include "isa/operands.hh"
#include "obs/hooks.hh"

namespace arl::ooo
{

namespace
{

/** Byte interval [start, end) of a memory access. */
struct Interval
{
    Addr start;
    Addr end;
};

Interval
intervalOf(const sim::StepInfo &step)
{
    return {step.effAddr, step.effAddr + step.memSize};
}

} // namespace

std::size_t
OooCore::SlotMask::count() const
{
    std::size_t n = 0;
    for (std::size_t w = 0; w < nwords; ++w)
        n += static_cast<std::size_t>(std::popcount(words[w]));
    return n;
}

OooCore::OooCore(const MachineConfig &config_in,
                 std::shared_ptr<const vm::Program> program,
                 std::shared_ptr<sim::StepSource> step_source)
    : config(config_in),
      funcSim(std::move(program)),
      stepSrc(std::move(step_source)),
      hierarchy(config.hierarchy),
      tlb(config.tlbEntries, funcSim.process().regions),
      arpt(config.arpt),
      valuePred(config.vpEntries),
      branchPred(config.bpEntries)
{
    if (!stepSrc)
        stepSrc = std::make_shared<sim::SimulatorSource>(funcSim);
    // A producer further back than a record's distance reaches must
    // never be in flight.
    if (config.robSize > sim::LastWriters::MaxDist)
        fatal("OooCore: a %u-entry ROB exceeds the %llu-record reach "
              "of a producer distance",
              config.robSize,
              (unsigned long long)sim::LastWriters::MaxDist);
    stats.configName = config.name;
    cpiEnabled = config.contended() || config.cpiStack;

    // Carve the structure-of-arrays ROB out of the per-core arena:
    // one contiguous allocation instead of per-entry objects, and no
    // global-allocator traffic from sweep workers after this point.
    robLimit = config.robSize;
    robSize = std::bit_ceil<std::size_t>(config.robSize);
    robMask = robSize - 1;
    robStep = arena.alloc<sim::StepInfo>(robSize);
    robSeq = arena.alloc<InstCount>(robSize);
    robFlags = arena.alloc<std::uint16_t>(robSize);
    robCompleteAt = arena.alloc<Cycle>(robSize);
    robEarliestIssueAt = arena.alloc<Cycle>(robSize);
    robMemReqAt = arena.alloc<Cycle>(robSize);
    robAddrKnownAt = arena.alloc<Cycle>(robSize);
    robTlbStallUntil = arena.alloc<Cycle>(robSize);
    robMispredStallUntil = arena.alloc<Cycle>(robSize);
    robMemStartAt = arena.alloc<Cycle>(robSize);
    robMemDelay = arena.alloc<MemDelays>(robSize);
    robVpValue = arena.alloc<Word>(robSize);
    robDeps = arena.alloc<Deps>(robSize);
    robBlockers = arena.alloc<std::uint8_t>(robSize);
    robUnfinished = arena.alloc<std::uint8_t>(robSize);
    robFwdSlot = arena.alloc<std::int32_t>(robSize);
    robFwdSeq = arena.alloc<InstCount>(robSize);
    robStoreIdx = arena.alloc<InstCount>(robSize);
    robQueue = arena.alloc<std::uint8_t>(robSize);
    robPipe = arena.alloc<std::uint8_t>(robSize);
    robMemBlock = arena.alloc<std::uint8_t>(robSize);
    robConsHead = arena.alloc<std::int32_t>(robSize);
    robConsTail = arena.alloc<std::int32_t>(robSize);
    edgeNext = arena.alloc<std::int32_t>(robSize * kMaxDeps);
    unissuedMask.init(arena, robSize);
    execMask.init(arena, robSize);
    pendingMemMask.init(arena, robSize);
    blockedMask.init(arena, robSize);
    lsqStores.init(arena, robSize);
    lvaqStores.init(arena, robSize);
}

void
OooCore::traceSlow(obs::PipeEvent ev, std::int32_t slot,
                   const char *detail)
{
    obsHooks->event(now, robSeq[slot], robStep[slot].pc, ev, detail);
}

void
OooCore::obsProgress()
{
    obs::TelemetryFrame frame;
    frame.insts = stats.instructions;
    frame.cycles = now - cycleBase;
    frame.loads = stats.loads;
    frame.stores = stats.stores;
    frame.refsData = stats.regionRefs[0];
    frame.refsHeap = stats.regionRefs[1];
    frame.refsStack = stats.regionRefs[2];
    frame.lvaqSteered = stats.lvaqSteered;
    frame.contentionStalls =
        stats.portStallsLoad[0] + stats.portStallsLoad[1] +
        stats.portStallsStoreCommit[0] + stats.portStallsStoreCommit[1] +
        stats.tlbMissCycles;
    obsNext = obsHooks->progress(frame);
}

void
OooCore::attachObs(obs::Hooks *hooks)
{
    obsHooks = hooks;
    tracingActive = hooks && hooks->tracing();
    if (!hooks)
        return;
    obs::StatsRegistry &reg = hooks->registry;

    reg.addFormula(
        "ooo.cycles",
        [this] { return static_cast<double>(now - cycleBase); },
        "simulated cycles");
    reg.addCounter("ooo.instructions", &stats.instructions,
                   "committed instructions");
    reg.addFormula(
        "ooo.ipc",
        [this] {
            const Cycle cycles = now - cycleBase;
            return cycles ? static_cast<double>(stats.instructions) /
                                static_cast<double>(cycles)
                          : 0.0;
        },
        "committed instructions per cycle");

    reg.addCounter("ooo.loads", &stats.loads, "dispatched loads");
    reg.addCounter("ooo.stores", &stats.stores, "dispatched stores");
    reg.addCounter("ooo.refs.data", &stats.regionRefs[0],
                   "committed refs to the data region");
    reg.addCounter("ooo.refs.heap", &stats.regionRefs[1],
                   "committed refs to the heap region");
    reg.addCounter("ooo.refs.stack", &stats.regionRefs[2],
                   "committed refs to the stack region");

    reg.addCounter("ooo.lsq.forwarded_loads", &stats.forwardedLoads,
                   "loads satisfied by in-queue stores");
    reg.addCounter("ooo.lvaq.steered", &stats.lvaqSteered,
                   "memory ops steered to the LVAQ");
    reg.addCounter("ooo.lvaq.fast_forwarded_loads",
                   &stats.fastForwardedLoads,
                   "forwarded without waiting on older addresses");

    reg.addCounter("predict.region_mispredictions",
                   &stats.regionMispredictions,
                   "steering decisions the TLB verify rejected");
    reg.addFormula(
        "predict.region_mispredict_rate_pct",
        [this] {
            std::uint64_t refs = stats.loads + stats.stores;
            return refs ? 100.0 *
                              static_cast<double>(
                                  stats.regionMispredictions) /
                              static_cast<double>(refs)
                        : 0.0;
        },
        "mispredicted share of dispatched refs");

    reg.addCounter("ooo.vp.offered", &stats.vpOffered,
                   "confident value predictions");
    reg.addCounter("ooo.vp.wrong", &stats.vpWrong,
                   "misverified value predictions");
    reg.addCounter("ooo.vp.squashes", &stats.vpSquashes,
                   "re-issues after value misprediction");
    reg.addCounter("ooo.bp.branches", &stats.branches,
                   "conditional branches dispatched");
    reg.addCounter("ooo.bp.mispredicts", &stats.branchMispredicts,
                   "branch mispredictions (realistic front end)");
    reg.addCounter("ooo.stall.rob_full", &stats.robFullStalls,
                   "dispatch stalls on a full ROB");
    reg.addCounter("ooo.stall.queue_full", &stats.queueFullStalls,
                   "dispatch stalls on a full LSQ/LVAQ");

    // Contention-era stats are gated on the configuration so that
    // ideal runs keep their historical report key set byte-identical
    // (tests/golden/); see the arbitration-order note in core.hh.
    if (config.contended()) {
        reg.addCounter("ooo.port_stalls.load.dcache",
                       &stats.portStallsLoad[0],
                       "ready loads denied a D-cache port");
        reg.addCounter("ooo.port_stalls.load.lvc",
                       &stats.portStallsLoad[1],
                       "ready loads denied an LVC port");
        reg.addCounter("ooo.port_stalls.store_commit.dcache",
                       &stats.portStallsStoreCommit[0],
                       "commits blocked on a D-cache store port");
        reg.addCounter("ooo.port_stalls.store_commit.lvc",
                       &stats.portStallsStoreCommit[1],
                       "commits blocked on an LVC store port");
        reg.addCounter("cache.tlb.miss_cycles", &stats.tlbMissCycles,
                       "penalty cycles charged for TLB misses");
    }

    // The CPI stack and the load-to-use histogram follow the same
    // key-set discipline: present for contended configurations (or
    // when explicitly forced), absent from ideal reports.
    if (cpiEnabled) {
        stats.cpiStack.registerStats(reg, "ooo.cpi_stack");
        reg.addLog2Histogram("ooo.mem.load_to_use", &stats.loadToUse,
                             "load latency, port grant to data ready");
    }

    hierarchy.registerStats(reg, "cache");
    tlb.registerStats(reg, "cache.tlb");
    if (config.decoupled)
        arpt.registerStats(reg, "predict.arpt");
}

void
OooCore::wakeConsumers(std::int32_t slot)
{
    // One edge per dependence, so a consumer that reads this producer
    // twice counts it twice.  A value-predicted producer never
    // blocked its consumers.
    const bool wake = blocksIssue(slot);
    for (std::int32_t e = robConsHead[slot]; e >= 0; e = edgeNext[e]) {
        const std::int32_t c = e / kMaxDeps;
        --robUnfinished[c];
        if (wake && --robBlockers[c] == 0)
            blockedMask.clear(c);
        if (e == c * kMaxDeps && (robFlags[c] & FlagBaseDep) &&
            !(robFlags[c] & FlagAddrGenDone))
            storeQueueOf(static_cast<Queue>(robQueue[c])).markReady(c);
    }
}

void
OooCore::blockConsumers(std::int32_t slot)
{
    const bool block = blocksIssue(slot);
    for (std::int32_t e = robConsHead[slot]; e >= 0; e = edgeNext[e]) {
        const std::int32_t c = e / kMaxDeps;
        ++robUnfinished[c];
        if (block && robBlockers[c]++ == 0)
            blockedMask.set(c);
        if (e == c * kMaxDeps && (robFlags[c] & FlagBaseDep))
            storeQueueOf(static_cast<Queue>(robQueue[c])).unmarkReady(c);
    }
}

bool
OooCore::usedSpecValue(InstCount seq) const
{
    return seq >= headSeq && seq < tailSeq &&
           (robFlags[slotOf(seq)] & FlagUsedSpecValue);
}

#ifndef NDEBUG
std::size_t
OooCore::StoreQueue::olderCount(InstCount target) const
{
    // The ring is sorted by seq; binary search for the partition.
    std::size_t lo = 0;
    std::size_t hi = size();
    while (lo < hi) {
        std::size_t mid = (lo + hi) / 2;
        if (seqAt(mid) < target)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}
#endif

void
OooCore::storeAddrGenStage()
{
    // A store's address needs only its base register: once that
    // producer resolves, the AGU computes the address next cycle and
    // (in the decoupled design) the region prediction is verified —
    // the store data may arrive much later without blocking younger
    // loads' ordering checks.
    //
    // Each queue's ready stores in ring order from the head are its
    // program order, so the TLB and ARPT see the same call sequence
    // as a walk of the whole queue that skipped unresolved bases.
    for (StoreQueue *queue : {&lsqStores, &lvaqStores}) {
        if (queue->readyCount == 0)
            continue;
        forEachRing(queue->addrReady, [&](std::int32_t slot) {
            if (robEarliestIssueAt[slot] > now)
                return;
            robFlags[slot] |= FlagAddrGenDone;
            queue->unmarkReady(slot);
            robAddrKnownAt[slot] = now + 1;
            trace(obs::PipeEvent::AddrGen, slot);
            translateAndVerify(slot);
        });
    }
}

void
OooCore::advanceStorePrefixes()
{
    for (StoreQueue *queue : {&lsqStores, &lvaqStores}) {
        while (queue->knownPrefix < queue->size()) {
            const std::int32_t slot = queue->slotAt(queue->knownPrefix);
            if (!(robFlags[slot] & FlagValid) ||
                robSeq[slot] != queue->seqAt(queue->knownPrefix))
                panic("store queue out of sync with ROB");
            if (!(robFlags[slot] & FlagAddrGenDone) ||
                robAddrKnownAt[slot] > now)
                break;
            ++queue->knownPrefix;
        }
    }
}

void
OooCore::onStoreSquashed(std::int32_t slot)
{
    if (!robStep[slot].inst.info().isStore ||
        robQueue[slot] == static_cast<std::uint8_t>(Queue::None))
        return;
    StoreQueue &queue =
        storeQueueOf(static_cast<Queue>(robQueue[slot]));
    const auto index =
        static_cast<std::size_t>(robStoreIdx[slot] - queue.popped);
    queue.knownPrefix = std::min(queue.knownPrefix, index);
    // squashReset cleared FlagAddrGenDone.
    if (baseResolved(slot))
        queue.markReady(slot);
}

bool
OooCore::loadMayIssue(std::int32_t slot) const
{
    // LVAQ fast forwarding: frame offsets identify dependences at
    // dispatch, so loads need not wait for older stores' address
    // generation (the forwarding search at the access stage handles
    // true dependences).
    const auto queue = static_cast<Queue>(robQueue[slot]);
    if (queue == Queue::Lvaq && config.fastForwarding)
        return true;

    // Conservative rule: all older same-queue stores must have
    // generated their addresses.  Every store that left the queue was
    // older than the load, so robStoreIdx - popped of them remain.
    const StoreQueue &store_queue = storeQueueOf(queue);
    return store_queue.knownPrefix >=
           robStoreIdx[slot] - store_queue.popped;
}

std::int32_t
OooCore::youngestOverlappingStore(const StoreQueue &queue,
                                  std::size_t older, Addr start,
                                  Addr end)
{
    for (std::size_t i = older; i-- > 0;) {
        const std::size_t at = queue.at(i);
        if (queue.addrStart[at] < end && start < queue.addrEnd[at])
            return queue.slot[at];
    }
    return -1;
}

void
OooCore::translateAndVerify(std::int32_t slot)
{
    if (robFlags[slot] & FlagRegionChecked)
        return;
    robFlags[slot] |= FlagRegionChecked;
    cache::TlbResult translation =
        tlb.translate(robStep[slot].effAddr);

    // §4.3: a missed translation walks the page table before the
    // access (and, in decoupled mode, its steering verification) can
    // proceed.  Charged for loads and stores alike.
    if (!translation.hit && config.tlbMissLatency) {
        stats.tlbMissCycles += config.tlbMissLatency;
        robMemReqAt[slot] += config.tlbMissLatency;
        robAddrKnownAt[slot] += config.tlbMissLatency;
        robTlbStallUntil[slot] = robMemReqAt[slot];
    }

    if (!config.decoupled)
        return;

    bool predicted_stack =
        static_cast<Queue>(robQueue[slot]) == Queue::Lvaq;
    bool actual_stack = translation.stackPage;
    if (tracingActive) [[unlikely]] {
        const std::string detail =
            std::string(translation.hit ? "hit" : "miss") +
            (actual_stack ? " stack" : " nonstack");
        traceSlow(obs::PipeEvent::TlbVerify, slot, detail.c_str());
    }
    if (predicted_stack != actual_stack) {
        ++stats.regionMispredictions;
        trace(obs::PipeEvent::RegionMispredict, slot,
              predicted_stack ? "lvaq->lsq" : "lsq->lvaq");
        // Redirect to the correct memory pipeline and charge the
        // selective re-issue penalty.
        robPipe[slot] = static_cast<std::uint8_t>(
            actual_stack ? cache::MemPipe::Lvc
                         : cache::MemPipe::DCache);
        robMemReqAt[slot] += config.regionMispredictPenalty + 1;
        robAddrKnownAt[slot] += config.regionMispredictPenalty + 1;
        robMispredStallUntil[slot] = robMemReqAt[slot];
    }
    // Train the ARPT; conclusively-resolved addressing modes are
    // never recorded (§3.4.1).
    if (!isa::isConclusive(isa::classifyAddrMode(robStep[slot].inst)))
        arpt.update(robStep[slot].pc, robStep[slot].gbh,
                    robStep[slot].cid, actual_stack);
}

void
OooCore::squashReset(std::int32_t slot, const char *why)
{
    const bool was_completed = robFlags[slot] & FlagCompleted;
    robFlags[slot] &=
        static_cast<std::uint16_t>(~(FlagIssued | FlagCompleted |
                                     FlagPendingMem |
                                     FlagRegionChecked |
                                     FlagAddrGenDone |
                                     FlagUsedSpecValue |
                                     FlagMemStarted));
    robMemBlock[slot] = static_cast<std::uint8_t>(MemBlock::None);
    robEarliestIssueAt[slot] = now + 1;
    unissuedMask.set(slot);
    execMask.clear(slot);
    pendingMemMask.clear(slot);
    if (was_completed)
        blockConsumers(slot);
    ++stats.vpSquashes;
    trace(obs::PipeEvent::Squash, slot, why);
    onStoreSquashed(slot);
}

/**
 * Selective re-issue after a value misverification: every issued
 * consumer of @p producer_slot consumed a wrong value (either the
 * mispredicted one, or — in the recursive case — a result computed
 * from one) and must execute again, 1 cycle after detection.
 */
void
OooCore::squashConsumers(std::int32_t producer_slot)
{
    const InstCount producer_seq = robSeq[producer_slot];
    forEachConsumer(producer_slot, [&](std::int32_t slot) {
        const std::uint16_t f = robFlags[slot];
        if (!(f & FlagValid) || robSeq[slot] <= producer_seq)
            return;  // stale reference
        if (!(f & FlagIssued) && !(f & FlagCompleted))
            return;
        const bool was_completed = f & FlagCompleted;
        squashReset(slot, "dependent of wrong value");
        if (was_completed)
            squashConsumers(slot);
    });
}

void
OooCore::completeStage()
{
    forEachRing(execMask, [&](std::int32_t slot) {
        // The walk holds the current word: a squash earlier this stage
        // may have cleared this bit since it was read.
        if (!execMask.test(slot))
            return;
        if (robCompleteAt[slot] > now)
            return;
        wakeConsumers(slot);
        robFlags[slot] |= FlagCompleted;
        execMask.clear(slot);
        trace(obs::PipeEvent::Writeback, slot);
        // Realistic front end: a resolved mispredicted branch
        // redirects fetch after the refill penalty.
        if (robSeq[slot] == blockingBranchSeq) {
            blockingBranchSeq = ~InstCount{0};
            dispatchResumeAt =
                now + 1 + config.branchMispredictPenalty;
        }
        // Value-prediction verification: only consumers that issued
        // on the *predicted* value are affected (consumers that
        // waited saw the correct result).
        if ((robFlags[slot] & FlagVpConfident) &&
            robVpValue[slot] != robStep[slot].result) {
            robFlags[slot] |= FlagVpWrongKnown;
            ++stats.vpWrong;
            const InstCount seq = robSeq[slot];
            forEachConsumer(slot, [&](std::int32_t c) {
                const std::uint16_t f = robFlags[c];
                if (!(f & FlagValid) || robSeq[c] <= seq)
                    return;
                if (!(f & FlagUsedSpecValue))
                    return;
                if (!(f & FlagIssued) && !(f & FlagCompleted))
                    return;
                const bool was_completed = f & FlagCompleted;
                squashReset(c, "issued on mispredicted value");
                if (was_completed)
                    squashConsumers(c);
            });
        }
    });
}

void
OooCore::memoryStage()
{
    forEachRing(pendingMemMask, [&](std::int32_t slot) {
        if (robMemReqAt[slot] > now)
            return;

        // Try store->load forwarding within the queue first: a
        // forwarded load reads the queue entry, not a cache port.
        const std::int32_t fwd = forwardingStore(slot);
        if (fwd >= 0) {
            if ((robFlags[fwd] & FlagIssued) &&
                robAddrKnownAt[fwd] <= now) {
                robFlags[slot] = static_cast<std::uint16_t>(
                    (robFlags[slot] & ~FlagPendingMem) |
                    FlagMemStarted);
                pendingMemMask.clear(slot);
                execMask.set(slot);
                robMemBlock[slot] =
                    static_cast<std::uint8_t>(MemBlock::None);
                robMemStartAt[slot] = now;
                robCompleteAt[slot] = now + 1;  // 1-cycle forwarding
                ++stats.forwardedLoads;
                if (cpiEnabled)
                    stats.loadToUse.add(1);
                trace(obs::PipeEvent::Forward, slot);
                if (static_cast<Queue>(robQueue[slot]) ==
                        Queue::Lvaq &&
                    config.fastForwarding)
                    ++stats.fastForwardedLoads;
            } else {
                robMemBlock[slot] = static_cast<std::uint8_t>(
                    MemBlock::StoreNotReady);
            }
            return;  // matched store not ready yet: retry
        }

        const unsigned pipe_index = robPipe[slot];
        const auto pipe = static_cast<cache::MemPipe>(pipe_index);
        unsigned limit = (pipe == cache::MemPipe::Lvc)
                             ? config.lvcPorts
                             : config.dcachePorts;
        if (portsUsed[pipe_index] >= limit) {
            ++stats.portStallsLoad[pipe_index];
            robMemBlock[slot] =
                static_cast<std::uint8_t>(MemBlock::PortDenied);
            return;  // no port this cycle
        }
        ++portsUsed[pipe_index];
        cache::HierarchyResult result = hierarchy.timedAccess(
            pipe, robStep[slot].effAddr, false, now);
        robFlags[slot] = static_cast<std::uint16_t>(
            (robFlags[slot] & ~FlagPendingMem) | FlagMemStarted);
        pendingMemMask.clear(slot);
        execMask.set(slot);
        robMemBlock[slot] =
            static_cast<std::uint8_t>(MemBlock::None);
        robMemStartAt[slot] = now;
        robMemDelay[slot] = {result.bankDelay, result.wbDelay,
                             result.mshrDelay, result.busDelay};
        robCompleteAt[slot] = now + result.latency;
        if (cpiEnabled)
            stats.loadToUse.add(result.latency);
        trace(obs::PipeEvent::MemAccess, slot,
              result.l1Hit ? "hit" : "miss");
    });
}

void
OooCore::doIssue(std::int32_t slot)
{
    const isa::OpInfo &info = robStep[slot].inst.info();
    robFlags[slot] |= FlagIssued;
    unissuedMask.clear(slot);
    ++issuedThisCycle;
    trace(obs::PipeEvent::Issue, slot);
    if (info.fu != isa::FuClass::None &&
        info.fu != isa::FuClass::Mem)
        ++fuUsed[static_cast<unsigned>(info.fu)];

    if (info.isLoad) {
        robFlags[slot] |= FlagPendingMem;
        pendingMemMask.set(slot);
        robMemReqAt[slot] = now + 1;
        robAddrKnownAt[slot] = now + 1;
        translateAndVerify(slot);
    } else if (info.isStore) {
        // Address generation already ran in storeAddrGenStage (it
        // only needs the base register); issue means the data is now
        // ready as well.
        robCompleteAt[slot] = now + 1;
        execMask.set(slot);
    } else {
        unsigned latency = std::max<unsigned>(1, info.latency);
        robCompleteAt[slot] = now + latency;
        execMask.set(slot);
    }
}

void
OooCore::issueStage()
{
    // A blocked entry would fail the operand check before touching
    // any state, so leaving it out keeps the oldest-first order.  The
    // walk ends once the cycle's issue width is used up.
    forEachRing(unissuedMask, [&](std::int32_t slot) {
        if (robEarliestIssueAt[slot] > now)
            return true;
        const isa::OpInfo &info = robStep[slot].inst.info();

        // Functional-unit availability (fully pipelined units).
        unsigned fu_index = static_cast<unsigned>(info.fu);
        unsigned fu_limit = 0;
        switch (info.fu) {
          case isa::FuClass::IntAlu:
            fu_limit = config.intAlus;
            break;
          case isa::FuClass::IntMult:
            fu_limit = config.intMuls;
            break;
          case isa::FuClass::FpAlu:
            fu_limit = config.fpAlus;
            break;
          case isa::FuClass::FpMult:
            fu_limit = config.fpMuls;
            break;
          case isa::FuClass::Mem:
          case isa::FuClass::None:
            fu_limit = 0;  // not FU-constrained in this model
            break;
        }
        if (fu_limit && fuUsed[fu_index] >= fu_limit)
            return true;

        // Selected on its operands: record a predicted input (a
        // producer still unfinished, so value-predicted) even if the
        // load-order check below defers the issue.
        if (robUnfinished[slot])
            robFlags[slot] |= FlagUsedSpecValue;
        if (info.isLoad && !loadMayIssue(slot))
            return true;

        doIssue(slot);
        return issuedThisCycle < config.issueWidth;
    }, &blockedMask);
}

void
OooCore::commitStage()
{
    unsigned committed = 0;
    while (committed < config.issueWidth && headSeq < tailSeq) {
        const std::int32_t slot = slotOf(headSeq);
        const std::uint16_t f = robFlags[slot];
        if (!(f & FlagValid) || !(f & FlagCompleted))
            break;
        const sim::StepInfo &step = robStep[slot];
        const isa::OpInfo &info = step.inst.info();
        if (info.isStore && !(f & FlagStoreWritten)) {
            const unsigned pipe_index = robPipe[slot];
            const auto pipe = static_cast<cache::MemPipe>(pipe_index);
            unsigned limit = (pipe == cache::MemPipe::Lvc)
                                 ? config.lvcPorts
                                 : config.dcachePorts;
            if (portsUsed[pipe_index] >= limit) {
                // Loads claimed the ports earlier this cycle (see
                // the arbitration-order note in core.hh); commit is
                // in-order, so the whole stage waits.
                ++stats.portStallsStoreCommit[pipe_index];
                break;  // stores write the cache at commit
            }
            ++portsUsed[pipe_index];
            hierarchy.timedAccess(pipe, step.effAddr, true, now);
            robFlags[slot] |= FlagStoreWritten;
        }
        // Train the value predictor on the committed stream.
        if (config.valuePrediction && step.dest != isa::NoReg &&
            step.dest < isa::FprBase)
            valuePred.train(step.pc, step.result);

        const auto queue = static_cast<Queue>(robQueue[slot]);
        if (queue == Queue::Lsq)
            --lsqOccupancy;
        else if (queue == Queue::Lvaq)
            --lvaqOccupancy;
        if (info.isStore && queue != Queue::None) {
            StoreQueue &store_queue = storeQueueOf(queue);
            ARL_ASSERT(store_queue.size() != 0 &&
                       store_queue.seqAt(0) == robSeq[slot],
                       "store retires out of queue order");
            store_queue.popFront();
            if (store_queue.knownPrefix > 0)
                --store_queue.knownPrefix;
        }
        if (step.isMem) {
            auto region = static_cast<unsigned>(step.region);
            if (region < vm::NumDataRegions)
                ++stats.regionRefs[region];
        }
        trace(obs::PipeEvent::Commit, slot);
        robFlags[slot] &= static_cast<std::uint16_t>(~FlagValid);
        ++stats.instructions;
        ++headSeq;
        ++committed;
    }
}

void
OooCore::dispatchStage()
{
    // Realistic front end: fetch is stalled behind an unresolved
    // mispredicted branch or still refilling after the redirect.
    if (blockingBranchSeq != ~InstCount{0} || now < dispatchResumeAt)
        return;

    unsigned dispatched = 0;
    while (dispatched < config.issueWidth) {
        // ROB space?
        if (tailSeq - headSeq >= robLimit) {
            ++stats.robFullStalls;
            dispatchBlocked = obs::StallCause::RobFull;
            return;
        }
        // Next instruction from the (perfect) front end, read
        // straight into the free tail slot.
        const std::int32_t slot = slotOf(tailSeq);
        if (!pendingStep) {
            if (traceExhausted)
                return;
            if (dispatchBudget && stepSrc->delivered() >= dispatchBudget) {
                traceExhausted = true;
                return;
            }
            if (!stepSrc->next(robStep[slot])) {
                traceExhausted = true;
                return;
            }
            if (!robStep[slot].srcDistFilled)
                lastWriters.fill(robStep[slot]);
            pendingStep = true;
        }
        const sim::StepInfo &step = robStep[slot];
        const isa::OpInfo &info = step.inst.info();

        // Steering and queue admission.
        Queue queue = Queue::None;
        cache::MemPipe pipe = cache::MemPipe::DCache;
        const char *steer_source = "unified";
        if (info.isLoad || info.isStore) {
            bool steer_stack = false;
            if (config.decoupled) {
                isa::AddrModeHint hint =
                    isa::classifyAddrMode(step.inst);
                if (isa::isConclusive(hint)) {
                    steer_stack = isa::hintSaysStack(hint);
                    steer_source = "addr_mode";
                } else {
                    steer_stack =
                        arpt.predictStack(step.pc, step.gbh, step.cid);
                    steer_source = "arpt";
                }
            }
            if (steer_stack) {
                if (lvaqOccupancy >= config.lvaqSize) {
                    ++stats.queueFullStalls;
                    dispatchBlocked = obs::StallCause::LvaqFull;
                    return;
                }
                queue = Queue::Lvaq;
                pipe = cache::MemPipe::Lvc;
                ++lvaqOccupancy;
                ++stats.lvaqSteered;
            } else {
                unsigned lsq_limit = config.decoupled
                                         ? config.lsqSizeDecoupled
                                         : config.lsqSize;
                if (lsqOccupancy >= lsq_limit) {
                    ++stats.queueFullStalls;
                    dispatchBlocked = obs::StallCause::LsqFull;
                    return;
                }
                queue = Queue::Lsq;
                pipe = cache::MemPipe::DCache;
                ++lsqOccupancy;
            }
            if (info.isLoad)
                ++stats.loads;
            else
                ++stats.stores;
        }

        // Allocate the ROB entry: reset every per-slot field the old
        // per-entry struct reset on `e = Entry{}`, but in place.
        ARL_ASSERT(!(robFlags[slot] & FlagValid),
                   "ROB slot reuse while occupied");
        robSeq[slot] = tailSeq;
        robFlags[slot] = FlagValid;
        robCompleteAt[slot] = 0;
        robEarliestIssueAt[slot] = now + 1;
        robMemReqAt[slot] = 0;
        robAddrKnownAt[slot] = 0;
        robTlbStallUntil[slot] = 0;
        robMispredStallUntil[slot] = 0;
        robMemStartAt[slot] = 0;
        robMemDelay[slot] = MemDelays{};
        robVpValue[slot] = 0;
        robDeps[slot] = Deps{};
        robBlockers[slot] = 0;
        robFwdSlot[slot] = -1;
        robFwdSeq[slot] = 0;
        robStoreIdx[slot] =
            queue == Queue::None ? 0 : storeQueueOf(queue).pushed;
        robQueue[slot] = static_cast<std::uint8_t>(queue);
        robPipe[slot] = static_cast<std::uint8_t>(pipe);
        robMemBlock[slot] = static_cast<std::uint8_t>(MemBlock::None);
        robConsHead[slot] = robConsTail[slot] = -1;
        unissuedMask.set(slot);
        execMask.clear(slot);
        pendingMemMask.clear(slot);
        trace(obs::PipeEvent::Dispatch, slot);
        if (queue == Queue::Lvaq)
            trace(obs::PipeEvent::SteerLvaq, slot, steer_source);
        else if (queue == Queue::Lsq)
            trace(obs::PipeEvent::SteerLsq, slot, steer_source);

        // Register dependences: each source's producer, found by its
        // distance back along the stream.
        Deps &deps = robDeps[slot];
        const InstCount window = tailSeq - headSeq;
        for (unsigned i = 0; i < kMaxDeps; ++i) {
            const InstCount d = step.srcDist[i];
            if (d == 0 || d > window)
                continue;  // no producer, or it retired
            const std::int32_t pslot = slotOf(tailSeq - d);
            if (robFlags[pslot] & FlagCompleted)
                continue;  // value final and correct; no tracking
            // A store's base is its source 0 unless the base is $zero.
            if (i == 0 && info.isStore &&
                step.inst.baseReg() != isa::reg::Zero)
                robFlags[slot] |= FlagBaseDep;
            // Append edge slot*kMaxDeps+count to the producer's list.
            const std::int32_t edge = slot * kMaxDeps + deps.count;
            edgeNext[edge] = -1;
            if (robConsTail[pslot] >= 0)
                edgeNext[robConsTail[pslot]] = edge;
            else
                robConsHead[pslot] = edge;
            robConsTail[pslot] = edge;
            deps.slot[deps.count] = pslot;
            deps.seq[deps.count] = robSeq[pslot];
            ++deps.count;
            if (blocksIssue(pslot))
                ++robBlockers[slot];
        }
        robUnfinished[slot] = deps.count;
        if (robBlockers[slot])
            blockedMask.set(slot);

        // A load's forwarding store: every store in its queue is
        // older, and only commit removes them (oldest first).
        const Interval bytes = intervalOf(step);
        if (info.isLoad) {
            const StoreQueue &store_queue = storeQueueOf(queue);
            const std::int32_t fwd = youngestOverlappingStore(
                store_queue, store_queue.size(), bytes.start, bytes.end);
            if (fwd >= 0) {
                robFwdSlot[slot] = fwd;
                robFwdSeq[slot] = robSeq[fwd];
            }
        }

        // Track in-flight stores for ordering and forwarding; one
        // whose base has no unfinished producer may generate its
        // address from the next cycle.
        if (info.isStore) {
            StoreQueue &store_queue = storeQueueOf(queue);
            store_queue.push(tailSeq, slot, bytes.start, bytes.end);
            if (!(robFlags[slot] & FlagBaseDep))
                store_queue.markReady(slot);
        }

        // Value prediction offer.  FP results are excluded: stride
        // prediction over IEEE bit patterns has near-zero accuracy
        // and the squash traffic would swamp the gains (the paper's
        // stride predictor targets the integer register dataflow).
        if (config.valuePrediction && step.dest != isa::NoReg &&
            step.dest < isa::FprBase) {
            ValuePredictor::Offer offer = valuePred.predict(step.pc);
            if (offer.confident) {
                robFlags[slot] |= FlagVpConfident;
                ++stats.vpOffered;
            }
            robVpValue[slot] = offer.value;
        }

        // Realistic front end: predict conditional branches; a
        // misprediction stops fetch at this instruction until the
        // branch resolves (completeStage schedules the redirect).
        bool fetch_break = false;
        if (info.isBranch) {
            ++stats.branches;
            if (!config.perfectBranchPrediction) {
                bool predicted =
                    branchPred.predictTaken(step.pc, step.gbh);
                branchPred.train(step.pc, step.gbh, step.branchTaken);
                if (predicted != step.branchTaken) {
                    ++stats.branchMispredicts;
                    blockingBranchSeq = tailSeq;
                    fetch_break = true;
                }
            }
        }

        ++tailSeq;
        ++dispatched;
        pendingStep = false;
        if (fetch_break)
            return;
    }
}

void
OooCore::classifyStallCycle()
{
    using obs::StallCause;
    if (headSeq == tailSeq) {
        stats.cpiStack.add(StallCause::FrontendEmpty);
        return;
    }

    const std::int32_t slot = slotOf(headSeq);
    const std::uint16_t f = robFlags[slot];
    const unsigned pipe = robPipe[slot];
    StallCause cause = StallCause::Other;

    if (f & FlagCompleted) {
        // A completed head that did not retire on a zero-commit cycle
        // can only mean commitStage broke on the store-port check.
        cause = StallCause::StoreCommit;
    } else if (f & FlagPendingMem) {
        // Load between issue and port grant.
        if (now < robTlbStallUntil[slot])
            cause = StallCause::TlbWalk;
        else if (now < robMispredStallUntil[slot])
            cause = StallCause::RegionMispredict;
        else if (robMemBlock[slot] ==
                 static_cast<std::uint8_t>(MemBlock::PortDenied))
            cause = StallCause::LoadPort;
        else
            cause = StallCause::Other;  // store-data wait / 1-cycle gap
    } else if ((f & FlagIssued) && (f & FlagMemStarted)) {
        // Load inside the hierarchy: replay its recorded stall
        // breakdown in the order the delays occurred.
        const Cycle elapsed = now - robMemStartAt[slot];
        const MemDelays &delays = robMemDelay[slot];
        const std::uint64_t bank = delays.bank;
        const std::uint64_t wb = bank + delays.wb;
        const std::uint64_t mshr = wb + delays.mshr;
        if (elapsed < bank)
            cause = StallCause::BankConflict;
        else if (elapsed < wb)
            cause = StallCause::WritebackFull;
        else if (elapsed < mshr)
            cause = StallCause::MshrFull;
        else if (robCompleteAt[slot] > now &&
                 robCompleteAt[slot] - now <= delays.bus)
            cause = StallCause::BusBusy;
        else
            cause = StallCause::MemLatency;
    } else if (f & FlagIssued) {
        cause = StallCause::ExecLatency;
    } else {
        // Not yet issued: operand wait, issue ramp, or a stalled
        // store address generation.
        if (now < robTlbStallUntil[slot])
            cause = StallCause::TlbWalk;
        else if (now < robMispredStallUntil[slot])
            cause = StallCause::RegionMispredict;
        else
            cause = StallCause::Other;
    }

    // Secondary attribution: when the head's cause is weak but
    // dispatch hit a full structure this cycle, the structure is the
    // better explanation of the lost slot.
    if ((cause == StallCause::Other ||
         cause == StallCause::ExecLatency) &&
        dispatchBlocked != StallCause::NumCauses)
        cause = dispatchBlocked;

    stats.cpiStack.add(cause, pipe);
}

#ifndef NDEBUG
void
OooCore::checkSchedulerInvariants() const
{
    std::size_t valid = 0;
    std::size_t listed = 0;  // consumer edges on producers' lists
    std::size_t named = 0;   // dependences on in-flight producers
    for (std::size_t s = 0; s < robSize; ++s) {
        const auto slot = static_cast<std::int32_t>(s);
        const std::uint16_t f = robFlags[slot];
        const bool unissued = unissuedMask.test(slot);
        const bool exec = execMask.test(slot);
        const bool pending = pendingMemMask.test(slot);
        ARL_ASSERT(unissued + exec + pending <= 1,
                   "slot %d in more than one candidate mask", slot);
        if (!(f & FlagValid)) {
            ARL_ASSERT(!unissued && !exec && !pending &&
                           !blockedMask.test(slot) &&
                           !lsqStores.addrReady.test(slot) &&
                           !lvaqStores.addrReady.test(slot),
                       "free slot %d left in a mask", slot);
            continue;
        }
        ++valid;

        // The base poll the address-readiness masks replace.
        const bool agu_ready = robStep[slot].inst.info().isStore &&
                               !(f & FlagAddrGenDone) && baseResolved(slot);
        const auto queue = static_cast<Queue>(robQueue[slot]);
        ARL_ASSERT(lsqStores.addrReady.test(slot) ==
                           (agu_ready && queue == Queue::Lsq) &&
                       lvaqStores.addrReady.test(slot) ==
                           (agu_ready && queue == Queue::Lvaq),
                   "seq %llu: address-ready mask out of sync",
                   (unsigned long long)robSeq[slot]);

        // The operand poll the wakeup and unfinished counts replace.
        const Deps &deps = robDeps[slot];
        unsigned blockers = 0;
        unsigned unfinished = 0;
        for (unsigned i = 0; i < deps.count; ++i) {
            const std::int32_t pslot = deps.slot[i];
            if (!(robFlags[pslot] & FlagValid) ||
                robSeq[pslot] != deps.seq[i])
                continue;  // producer retired: value architected
            if (!(robFlags[pslot] & FlagCompleted))
                ++unfinished;
            if (blocksIssue(pslot))
                ++blockers;
        }
        ARL_ASSERT(robBlockers[slot] == blockers,
                   "seq %llu: %u blockers counted, %u in flight",
                   (unsigned long long)robSeq[slot], robBlockers[slot],
                   blockers);
        ARL_ASSERT(robUnfinished[slot] == unfinished,
                   "seq %llu: %u unfinished producers counted, %u in "
                   "flight",
                   (unsigned long long)robSeq[slot], robUnfinished[slot],
                   unfinished);
        ARL_ASSERT(blockedMask.test(slot) == (blockers != 0),
                   "seq %llu: blocked mask out of sync",
                   (unsigned long long)robSeq[slot]);

        // The binary search the dispatch-time store index replaces.
        if (queue != Queue::None) {
            const StoreQueue &stores = storeQueueOf(queue);
            const std::size_t older = stores.olderCount(robSeq[slot]);
            ARL_ASSERT(robStoreIdx[slot] - stores.popped == older,
                       "seq %llu: store index %llu with %llu popped, "
                       "but %zu older stores queued",
                       (unsigned long long)robSeq[slot],
                       (unsigned long long)robStoreIdx[slot],
                       (unsigned long long)stores.popped, older);

            // The store-queue walk the forwarding slot replaces.
            if (pending) {
                const Interval bytes = intervalOf(robStep[slot]);
                ARL_ASSERT(forwardingStore(slot) ==
                               youngestOverlappingStore(stores, older,
                                                        bytes.start,
                                                        bytes.end),
                           "seq %llu: stale forwarding store",
                           (unsigned long long)robSeq[slot]);
            }
        }

        // The consumers the edge list must name: every dependence
        // whose producer is still in flight, once each, in dispatch
        // order.
        std::size_t edges = 0;
        InstCount last_seq = 0;
        std::int32_t last = -1;
        for (std::int32_t e = robConsHead[slot]; e >= 0;
             e = edgeNext[e]) {
            ARL_ASSERT(++edges <= robSize * kMaxDeps,
                       "seq %llu: consumer list does not end",
                       (unsigned long long)robSeq[slot]);
            const std::int32_t c = e / kMaxDeps;
            const auto i = static_cast<unsigned>(e % kMaxDeps);
            const Deps &cdeps = robDeps[c];
            const bool in_order = last < 0 || robSeq[c] > last_seq ||
                                  (robSeq[c] == last_seq && e > last);
            ARL_ASSERT((robFlags[c] & FlagValid) && i < cdeps.count &&
                           cdeps.slot[i] == slot &&
                           cdeps.seq[i] == robSeq[slot] && in_order,
                       "seq %llu: consumer edge %d out of sync",
                       (unsigned long long)robSeq[slot], e);
            last = e;
            last_seq = robSeq[c];
        }
        ARL_ASSERT(robConsTail[slot] == last,
                   "seq %llu: consumer list tail %d, last edge %d",
                   (unsigned long long)robSeq[slot], robConsTail[slot],
                   last);
        listed += edges;
        for (unsigned i = 0; i < deps.count; ++i) {
            const std::int32_t pslot = deps.slot[i];
            if ((robFlags[pslot] & FlagValid) &&
                robSeq[pslot] == deps.seq[i])
                ++named;
        }
    }
    ARL_ASSERT(tailSeq - headSeq == valid,
               "window holds %zu valid slots, expected %llu", valid,
               (unsigned long long)(tailSeq - headSeq));
    ARL_ASSERT(listed == named,
               "%zu consumer edges listed, %zu in-flight dependences",
               listed, named);
    for (const StoreQueue *stores : {&lsqStores, &lvaqStores})
        ARL_ASSERT(stores->readyCount == stores->addrReady.count(),
                   "%zu address-ready stores counted, %zu marked",
                   stores->readyCount, stores->addrReady.count());

    // A register map (dispatch keeps none), rebuilt over the window
    // oldest-first, against which each record dispatched this cycle
    // is checked.  A source's in-flight writer sits exactly its
    // distance back; without one, the distance names none or a
    // writer older than the window.  The dependences are the
    // producers the distances name, in source order, less those that
    // had completed at dispatch; a store's base producer is its
    // dependence 0 exactly when FlagBaseDep says so.
    constexpr InstCount kNone = ~InstCount{0};
    InstCount writer[isa::NumFlatRegs];
    std::fill(std::begin(writer), std::end(writer), kNone);
    for (InstCount seq = headSeq; seq < tailSeq; ++seq) {
        const std::int32_t slot = slotOf(seq);
        const sim::StepInfo &step = robStep[slot];
        if (seq < dataflowChecked) {
            if (step.dest != isa::NoReg)
                writer[step.dest] = seq;
            continue;
        }
        ARL_ASSERT(step.srcDistFilled &&
                       step.dest == isa::instDest(step.inst),
                   "seq %llu: record without distances or its dest",
                   (unsigned long long)seq);
        const isa::SourceList sources = isa::instSources(step.inst);
        const Deps &deps = robDeps[slot];
        unsigned matched = 0;
        for (unsigned i = 0; i < kMaxDeps; ++i) {
            const InstCount d = step.srcDist[i];
            const InstCount w =
                i < sources.count ? writer[sources.regs[i]] : kNone;
            ARL_ASSERT(i < sources.count || d == 0,
                       "seq %llu: distance %llu past its %u sources",
                       (unsigned long long)seq, (unsigned long long)d,
                       sources.count);
            ARL_ASSERT(w != kNone ? d == seq - w
                                  : d == 0 || d > seq - headSeq,
                       "seq %llu: source %u %llu back, in-flight "
                       "writer %lld",
                       (unsigned long long)seq, i, (unsigned long long)d,
                       w == kNone ? -1LL : (long long)w);
            if (d && matched < deps.count &&
                deps.seq[matched] == seq - d &&
                deps.slot[matched] == slotOf(seq - d))
                ++matched;
        }
        ARL_ASSERT(matched == deps.count,
                   "seq %llu: dependence %u names no source's producer",
                   (unsigned long long)seq, matched);
        const bool base_dep = step.inst.info().isStore &&
                              step.inst.baseReg() != isa::reg::Zero &&
                              deps.count && step.srcDist[0] &&
                              deps.seq[0] == seq - step.srcDist[0];
        ARL_ASSERT(((robFlags[slot] & FlagBaseDep) != 0) == base_dep,
                   "seq %llu: base dependence flag out of sync",
                   (unsigned long long)seq);
        if (step.dest != isa::NoReg)
            writer[step.dest] = seq;
    }
    dataflowChecked = tailSeq;

    // Each queued store's interval is its own StepInfo's.
    for (const StoreQueue *stores : {&lsqStores, &lvaqStores}) {
        for (std::size_t i = 0; i < stores->size(); ++i) {
            const std::size_t at = stores->at(i);
            const Interval bytes = intervalOf(robStep[stores->slot[at]]);
            ARL_ASSERT(stores->addrStart[at] == bytes.start &&
                           stores->addrEnd[at] == bytes.end,
                       "seq %llu: queued store interval out of sync",
                       (unsigned long long)stores->seq[at]);
        }
    }
}
#endif

void
OooCore::warmup(InstCount insts, InstCount warm_last)
{
    beginWarmup(insts, warm_last);
    resumeUnpaused();
}

void
OooCore::beginWarmup(InstCount insts, InstCount warm_last)
{
    if (warm_last == 0 || warm_last > insts)
        warm_last = insts;
    warmInsts = insts;
    warmSkip = insts - warm_last;
    warmPulled = 0;
    phase = Phase::Warmup;
}

bool
OooCore::warmSteps()
{
    sim::StepInfo step;
    for (; warmPulled < warmInsts; ++warmPulled) {
        if (stepSrc->ready() == 0)
            return false;
        if (!stepSrc->next(step))
            break;
        // Warming reads no distances; it only moves the writers on.
        if (!step.srcDistFilled)
            lastWriters.skip(step);
        if (warmPulled < warmSkip)
            continue;
        if (step.isMem) {
            bool is_stack = (step.region == vm::Region::Stack);
            cache::MemPipe pipe =
                (config.decoupled && is_stack) ? cache::MemPipe::Lvc
                                               : cache::MemPipe::DCache;
            hierarchy.access(pipe, step.effAddr, !step.isLoad);
            tlb.translate(step.effAddr);
            if (config.decoupled &&
                !isa::isConclusive(isa::classifyAddrMode(step.inst)))
                arpt.update(step.pc, step.gbh, step.cid, is_stack);
        }
        if (config.valuePrediction && step.dest != isa::NoReg &&
            step.dest < isa::FprBase)
            valuePred.train(step.pc, step.result);
        if (!config.perfectBranchPrediction && step.isBranch)
            branchPred.train(step.pc, step.gbh, step.branchTaken);
    }
    // Timed statistics start clean.
    clearMemCounters();
    // Warmup is functional (untimed, via the ideal access path); any
    // contention state would carry bogus cycle-0 timestamps into the
    // timed window, so the backend starts it from scratch.
    hierarchy.resetContention();
    phase = Phase::Idle;
    return true;
}

void
OooCore::clearMemCounters()
{
    hierarchy.l1().hits = hierarchy.l1().misses = 0;
    hierarchy.l1().writebacks = 0;
    if (hierarchy.hasLvc()) {
        hierarchy.lvcCache().hits = hierarchy.lvcCache().misses = 0;
        hierarchy.lvcCache().writebacks = 0;
    }
    hierarchy.l2().hits = hierarchy.l2().misses = 0;
    hierarchy.l2().writebacks = 0;
    tlb.hits = tlb.misses = 0;
}

void
OooCore::statsFence()
{
    std::string name = std::move(stats.configName);
    stats = OooStats{};
    stats.configName = std::move(name);
    cycleBase = now;
    // Hit counters restart like warmup()'s epilogue, but contention
    // state (bank/MSHR/bus timestamps, in-flight ROB entries) is
    // deliberately left alone: carrying it into the measured window
    // is the whole point of a detailed warmup.
    clearMemCounters();
}

OooStats
OooCore::runSample(InstCount insts, InstCount detail_warmup)
{
    beginSample(insts, detail_warmup);
    resumeUnpaused();
    return stats;
}

void
OooCore::beginSample(InstCount insts, InstCount detail_warmup)
{
    dispatchBudget = 0;
    sampleInsts = insts;
    if (detail_warmup) {
        commitTarget = stats.instructions + detail_warmup;
        phase = Phase::DetailWarmup;
    } else {
        commitTarget = insts ? stats.instructions + insts : 0;
        phase = Phase::Timed;
    }
    startCycles();
}

OooStats
OooCore::run(InstCount max_insts)
{
    beginRun(max_insts);
    resumeUnpaused();
    return stats;
}

void
OooCore::beginRun(InstCount max_insts)
{
    dispatchBudget =
        max_insts ? max_insts + stepSrc->delivered() : 0;
    phase = Phase::Timed;
    startCycles();
}

bool
OooCore::resume()
{
    if (phase == Phase::Warmup)
        return warmSteps();
    while (phase != Phase::Idle) {
        if (!cycleLoop())
            return false;
        finishCycles();
        if (phase == Phase::Timed) {
            phase = Phase::Idle;
            break;
        }
        // The detailed warmup ended: fence its statistics off and
        // time the window from the next cycle.
        statsFence();
        commitTarget = sampleInsts ? stats.instructions + sampleInsts : 0;
        phase = Phase::Timed;
        startCycles();
    }
    return true;
}

void
OooCore::resumeUnpaused()
{
    if (!resume())
        panic("OooCore: step source ran short outside resume()");
}

void
OooCore::startCycles()
{
    tracingActive = obsHooks && obsHooks->tracing();
    // Telemetry stays quiet through a detailed warmup: the stats
    // fence that ends it resets the instruction counter, and a
    // heartbeat straddling it would report a non-monotone cumulative
    // count for the job.
    obsNext = obsHooks ? obsHooks->arm(stats.instructions,
                                       phase == Phase::Timed)
                       : obs::Hooks::kNever;
    stalledCycles = 0;
    lastCommitted = 0;
}

bool
OooCore::cycleLoop()
{
    while (true) {
        // A cycle may dispatch up to issueWidth instructions, so it
        // starts only when that many are ready; otherwise pause here,
        // between cycles, until the source holds more.
        if (!traceExhausted && stepSrc->ready() < config.issueWidth)
            return false;

        portsUsed[0] = portsUsed[1] = 0;
        std::fill(std::begin(fuUsed), std::end(fuUsed), 0u);
        issuedThisCycle = 0;
        dispatchBlocked = obs::StallCause::NumCauses;
        const InstCount committed_before = stats.instructions;

        advanceStorePrefixes();
        completeStage();
        storeAddrGenStage();
        memoryStage();
        issueStage();
        dispatchStage();
        commitStage();
#ifndef NDEBUG
        checkSchedulerInvariants();
#endif
        if (stats.instructions >= obsNext) [[unlikely]]
            obsProgress();

        // Per-cycle stall attribution: exactly one cause per cycle,
        // so the stack sums to total cycles by construction.
        if (cpiEnabled) {
            if (stats.instructions > committed_before)
                stats.cpiStack.add(obs::StallCause::Commit);
            else
                classifyStallCycle();
        }
        ++now;

        // Phase-sampled window edge: clock stops at the target
        // commit, in-flight successors are simply abandoned.
        if (commitTarget && stats.instructions >= commitTarget)
            return true;

        // Forward-progress guard (an arl bug, not a guest bug).
        if (stats.instructions == lastCommitted) {
            if (++stalledCycles > 200000)
                panic("OooCore deadlock at cycle %llu (head=%llu "
                      "tail=%llu)",
                      (unsigned long long)now,
                      (unsigned long long)headSeq,
                      (unsigned long long)tailSeq);
        } else {
            stalledCycles = 0;
            lastCommitted = stats.instructions;
        }

        if (headSeq == tailSeq && !pendingStep &&
            (traceExhausted || stepSrc->exhausted()))
            return true;
    }
}

void
OooCore::finishCycles()
{
    stats.cycles = now - cycleBase;
    ARL_ASSERT(!cpiEnabled || stats.cpiStack.total() == stats.cycles,
               "CPI stack lost cycles: attributed %llu of %llu",
               (unsigned long long)stats.cpiStack.total(),
               (unsigned long long)stats.cycles);
    stats.l1Hits = hierarchy.l1().hits;
    stats.l1Misses = hierarchy.l1().misses;
    if (hierarchy.hasLvc()) {
        stats.lvcHits = hierarchy.lvcCache().hits;
        stats.lvcMisses = hierarchy.lvcCache().misses;
    }
    stats.l2Hits = hierarchy.l2().hits;
    stats.l2Misses = hierarchy.l2().misses;
    stats.tlbMisses = tlb.misses;
}

} // namespace arl::ooo
