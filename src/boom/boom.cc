#include "boom/boom.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/model_impl.hh"

namespace icicle
{

// --------------------------------------------------------- configs

BoomConfig
BoomConfig::small()
{
    BoomConfig c;
    c.name = "SmallBoomV3";
    c.fetchWidth = 4;
    c.coreWidth = 1;
    c.fetchBufferEntries = 12;
    c.robEntries = 32;
    c.iqEntries = {8, 8, 8};
    c.issueWidth = {1, 1, 1};
    c.ldqEntries = 8;
    c.stqEntries = 8;
    c.numMshrs = 2;
    c.mem.icachePrefetch = true;
    return c;
}

BoomConfig
BoomConfig::medium()
{
    BoomConfig c;
    c.name = "MediumBoomV3";
    c.fetchWidth = 4;
    c.coreWidth = 2;
    c.fetchBufferEntries = 12;
    c.robEntries = 64;
    c.iqEntries = {12, 20, 16};
    c.issueWidth = {2, 1, 1};
    c.ldqEntries = 16;
    c.stqEntries = 16;
    c.numMshrs = 2;
    c.mem.icachePrefetch = true;
    return c;
}

BoomConfig
BoomConfig::large()
{
    BoomConfig c; // defaults in the header are LargeBoomV3
    c.mem.icachePrefetch = true;
    return c;
}

BoomConfig
BoomConfig::mega()
{
    BoomConfig c;
    c.name = "MegaBoomV3";
    c.fetchWidth = 8;
    c.coreWidth = 4;
    c.fetchBufferEntries = 24;
    c.robEntries = 128;
    c.iqEntries = {24, 40, 32};
    c.issueWidth = {4, 2, 2};
    c.ldqEntries = 32;
    c.stqEntries = 32;
    c.numMshrs = 8;
    c.mem.icachePrefetch = true;
    return c;
}

BoomConfig
BoomConfig::giga()
{
    BoomConfig c;
    c.name = "GigaBoomV3";
    c.fetchWidth = 8;
    c.coreWidth = 5;
    c.fetchBufferEntries = 24;
    c.robEntries = 130;
    c.iqEntries = {24, 40, 32};
    c.issueWidth = {4, 3, 2};
    c.ldqEntries = 32;
    c.stqEntries = 32;
    c.numMshrs = 8;
    c.mem.icachePrefetch = true;
    return c;
}

std::vector<BoomConfig>
BoomConfig::allSizes()
{
    return {small(), medium(), large(), mega(), giga()};
}

// ------------------------------------------------------------- core

BoomCore::BoomCore(const BoomConfig &config, const Program &program)
    : CoreModel(CoreKind::Boom, config.counterArch), cfg(config),
      exec(program), mem(config.mem), mshrs(config.numMshrs),
      // BOOM pairs TAGE with a large BTB (Table IV: 14..28 KiB of
      // predictor storage), unlike Rocket's 28-entry BTB.
      btb(1024), fetchBuffer(config.fetchBufferEntries),
      rob(config.robEntries)
{
    if (cfg.robEntries > 1u << 16) // a Completion packs a 16-bit slot
        fatal("BOOM ROB size must be at most 65536 entries");
    exec.setCsrBackend(&csrs);
    renameMap.fill(SeqSlot{});
    events.setNumSources(EventId::UopsIssued, cfg.totalIssueWidth());
    events.setNumSources(EventId::FetchBubbles, cfg.coreWidth);
    events.setNumSources(EventId::UopsRetired, cfg.coreWidth);
    events.setNumSources(EventId::DCacheBlocked, cfg.coreWidth);
    events.setNumSources(EventId::DCacheBlockedDram, cfg.coreWidth);
    events.setNumSources(EventId::InstRetired, cfg.coreWidth);
}

BoomCore::RobEntry *
BoomCore::findBySeq(const SeqSlot &handle)
{
    if (handle.seq == 0)
        return nullptr;
    RobEntry &entry = rob[handle.slot];
    // A recycled slot holds a younger seq, so a stale handle can
    // never alias: it simply fails the check, like a hash miss did.
    if (!entry.valid || entry.seq != handle.seq)
        return nullptr;
    return &entry;
}

bool
BoomCore::sourcesReady(const RobEntry &entry) const
{
    for (const SeqSlot &src : entry.src) {
        if (src.seq == 0)
            continue;
        // Producers are older; if they left the ROB they committed.
        const RobEntry *producer =
            const_cast<BoomCore *>(this)->findBySeq(src);
        if (producer && producer->state != RobState::Done)
            return false;
    }
    return true;
}

IqType
BoomCore::routeToIq(Op op) const
{
    switch (classOf(op)) {
      case InstClass::Load:
      case InstClass::Store:
        return IqType::Mem;
      default:
        return IqType::Int;
    }
}

void
BoomCore::redirectFrontend()
{
    wrongPathMode = false;
    recovering = true;
    redirectWait = cfg.frontendRestartCycles;
    lastFetchBlock = ~0ull;
}

void
BoomCore::flushFrom(u64 first_bad, bool replay)
{
    if (replay) {
        // The replay queue is rebuilt in place instead of through a
        // temporary deque per machine clear: prepend the correct-path
        // uops still sitting in the fetch buffer, then (during the
        // ROB walk below) the squashed correct-path uops in front of
        // them. Steady state allocates nothing.
        for (u64 i = fetchBuffer.size(); i-- > 0;) {
            if (!(fetchBuffer.flagsAt(i) & uopflag::wrongPath))
                replayQueue.pushFront(fetchBuffer.at(i));
        }
        // Replayed fences will re-block fetch on re-delivery.
        fenceBlocking = false;
    }
    fetchBuffer.clear();

    // Walk the ROB from the youngest end, squashing entries. The walk
    // is youngest-to-oldest, so pushFront lands the replayed uops in
    // program order ahead of everything queued above.
    while (robCount > 0) {
        const u32 idx = (robTail == 0 ? cfg.robEntries : robTail) - 1;
        RobEntry &entry = rob[idx];
        if (!entry.valid || entry.seq < first_bad)
            break;
        if (replay && !entry.uop.wrongPath())
            replayQueue.pushFront(entry.uop);
        if (entry.isMem && !entry.isStore && ldqUsed > 0)
            ldqUsed--;
        entry.valid = false;
        robTail = idx;
        robCount--;
    }

    for (auto &iq : iqs) {
        iq.erase(std::remove_if(iq.begin(), iq.end(),
                                [&](const SeqSlot &s) {
                                    return s.seq >= first_bad;
                                }),
                 iq.end());
    }
    // The STQ is seq-sorted (dispatch order), so the squashed entries
    // are exactly the tail block.
    while (!stq.empty() && stq.back().seq >= first_bad)
        stq.pop_back();
    // issuedLoads is scanned with order-independent predicates only
    // (min-seq search, per-entry overlap checks), so swap-remove.
    for (u64 i = issuedLoads.size(); i-- > 0;) {
        if (issuedLoads[i].seq >= first_bad) {
            issuedLoads[i] = issuedLoads.back();
            issuedLoads.pop_back();
        }
    }
    for (SeqSlot &mapping : renameMap) {
        if (mapping.seq >= first_bad)
            mapping = SeqSlot{};
    }
}

// ------------------------------------------------------------ commit

void
BoomCore::stageCommit()
{
    for (u32 lane = 0; lane < cfg.coreWidth && !halted; lane++) {
        if (robCount == 0)
            break;
        RobEntry &head = rob[robHead];
        if (!head.valid || head.state != RobState::Done)
            break;
        ICICLE_ASSERT(!head.uop.wrongPath(),
                      "wrong-path uop reached commit");

        active = true;
        events.raise(EventId::UopsRetired, lane);
        events.raise(EventId::InstRetired, lane);

        const PipeUop &uop = head.uop;
        const InstClass cls = classOf(uop.ret.inst.op);
        if (head.isFence) {
            events.raise(EventId::FenceRetired);
            fenceBlocking = false;
            redirectFrontend();
        }
        if (cls == InstClass::System) {
            events.raise(EventId::Exception);
            halted = true;
        }
        if (head.isStore) {
            // Stores commit in seq order and the STQ is seq-sorted,
            // so the committing store is always the STQ head.
            ICICLE_ASSERT(!stq.empty() && stq.front().seq == head.seq,
                          "STQ head out of sync at commit");
            stq.erase(stq.begin());
        }
        if (head.isMem && !head.isStore) {
            if (ldqUsed > 0)
                ldqUsed--;
            for (u64 i = 0; i < issuedLoads.size(); i++) {
                if (issuedLoads[i].seq == head.seq) {
                    issuedLoads[i] = issuedLoads.back();
                    issuedLoads.pop_back();
                    break;
                }
            }
        }
        if (renameMap[uop.ret.inst.rd].seq == head.seq &&
            writesRd(uop.ret.inst.op))
            renameMap[uop.ret.inst.rd] = SeqSlot{};

        head.valid = false;
        robHead = robHead + 1 == cfg.robEntries ? 0 : robHead + 1;
        robCount--;

        // Fences and exceptions end the commit group.
        if (head.isFence || cls == InstClass::System)
            break;
    }
}

// ---------------------------------------------------------- complete

void
BoomCore::stageComplete()
{
    if (mshrs.drain(now))
        active = true;
    while (!completions.empty() && completions.top().at <= now) {
        const u64 seq = completions.top().seqSlot >> 16;
        const u32 slot = completions.top().seqSlot & 0xffff;
        completions.pop();
        active = true;
        RobEntry *entry = findBySeq({seq, slot});
        if (!entry || entry->state != RobState::Issued) {
            continue; // squashed
        }
        entry->state = RobState::Done;
        entry->doneAt = now;

        const PipeUop &uop = entry->uop;
        const InstClass cls = classOf(uop.ret.inst.op);
        if (cls == InstClass::Branch || cls == InstClass::JumpReg)
            events.raise(EventId::BranchResolved);
        if (uop.mispredicted()) {
            events.raise(EventId::BranchMispredict);
            if (uop.targetMispredict())
                events.raise(EventId::CtrlFlowTargetMispredict);
            // Squash everything younger (all wrong-path synthetics)
            // and restart the frontend on the correct path.
            flushFrom(seq + 1, false);
            redirectFrontend();
        }
    }
}

// ------------------------------------------------------------- issue

void
BoomCore::stageIssue()
{
    issuedThisCycle = 0;
    u64 machine_clear_from = 0;

    u32 lane_base = 0;
    for (u32 q = 0; q < kNumIqs; q++) {
        auto &iq = iqs[q];
        u32 issued_here = 0;
        // Single in-place pass: issue eligible entries and compact
        // the survivors forward, rather than a separate remove_if
        // sweep paying a second ROB lookup per entry per cycle.
        u64 keep = 0;
        for (u64 pos = 0; pos < iq.size(); pos++) {
            const SeqSlot handle = iq[pos];
            RobEntry *entry = findBySeq(handle);
            if (!entry || entry->state != RobState::InQueue) {
                active = true;
                continue; // squashed: drop
            }
            if (issued_here >= cfg.issueWidth[q] ||
                !sourcesReady(*entry)) {
                iq[keep++] = handle;
                continue;
            }

            const PipeUop &uop = entry->uop;
            const InstClass cls = classOf(uop.ret.inst.op);
            Cycle done_at = now + 1;
            bool can_issue = true;

            switch (cls) {
              case InstClass::Mul:
                done_at = now + cfg.mulLatency;
                break;
              case InstClass::Div:
                if (divBusyUntil > now) {
                    can_issue = false;
                } else {
                    divBusyUntil = now + cfg.divLatency;
                    done_at = now + cfg.divLatency;
                }
                break;
              case InstClass::Load: {
                const Addr addr = uop.ret.memAddr;
                // Address translation happens before the cache access
                // on either path below.
                const u32 xlat = translateData(addr).latency;
                // Memory dependence: loads the store-set predictor has
                // flagged wait until all older stores have issued.
                bool older_store_conflict = false;
                bool forward = false;
                const bool flagged =
                    stlDependents.count(uop.ret.pc) != 0;
                for (const StqEntry &s : stq) {
                    if (s.seq >= entry->seq)
                        continue;
                    if (!s.issued) {
                        if (flagged) {
                            older_store_conflict = true;
                            break;
                        }
                        continue; // speculate past it
                    }
                    if (s.addr < addr + uop.ret.memSize &&
                        addr < s.addr + s.size)
                        forward = true;
                }
                if (older_store_conflict) {
                    can_issue = false;
                    break;
                }
                if (forward) {
                    done_at = now + 2 + xlat; // store-to-load forward
                    break;
                }
                const u64 block = mem.l1d().blockAddr(addr);
                if (mshrs.pending(block)) {
                    // Secondary miss: merge into the in-flight refill.
                    done_at = std::max(mshrs.readyCycle(block),
                                       now + 1 + xlat);
                } else if (mem.l1d().probe(addr)) {
                    mem.l1d().access(addr, false);
                    done_at = now + 1 + cfg.mem.l1d.hitLatency + xlat;
                } else if (mshrs.full()) {
                    can_issue = false; // structural: no MSHR free
                } else {
                    const MemResult result = mem.data(addr, false);
                    if (result.writeback)
                        events.raise(EventId::DCacheRelease);
                    events.raise(EventId::DCacheMiss);
                    done_at = now + result.latency + xlat;
                    mshrs.allocate(block, done_at, !result.l2Hit);
                }
                if (can_issue) {
                    issuedLoads.push_back(
                        {entry->seq, addr, uop.ret.memSize,
                         uop.ret.pc});
                }
                break;
              }
              case InstClass::Store: {
                const Addr addr = uop.ret.memAddr;
                const TlbResult translation = translateData(addr);
                const u64 block = mem.l1d().blockAddr(addr);
                if (!mshrs.pending(block) && !mem.l1d().probe(addr)) {
                    if (mshrs.full()) {
                        can_issue = false;
                        break;
                    }
                    const MemResult result = mem.data(addr, true);
                    if (result.writeback)
                        events.raise(EventId::DCacheRelease);
                    events.raise(EventId::DCacheMiss);
                    mshrs.allocate(block, now + result.latency,
                                   !result.l2Hit);
                } else {
                    mem.l1d().access(addr, true);
                }
                done_at = now + 1 + translation.latency;
                // Memory ordering check: a younger load to the same
                // bytes already issued speculatively -> machine clear.
                for (const IssuedLoad &load : issuedLoads) {
                    if (load.seq > entry->seq &&
                        load.addr < addr + uop.ret.memSize &&
                        addr < load.addr + load.size) {
                        stlDependents.insert(load.pc);
                        if (machine_clear_from == 0 ||
                            load.seq < machine_clear_from)
                            machine_clear_from = load.seq;
                    }
                }
                for (StqEntry &s : stq) {
                    if (s.seq == entry->seq) {
                        s.issued = true;
                        break;
                    }
                }
                break;
              }
              default:
                done_at = now + 1;
                break;
            }

            if (!can_issue) {
                iq[keep++] = handle;
                continue;
            }

            active = true;
            entry->state = RobState::Issued;
            completions.push(
                Completion{done_at, handle.seq << 16 | handle.slot});
            events.raise(EventId::UopsIssued, lane_base + issued_here);
            issued_here++;
            issuedThisCycle++;
        }
        iq.resize(keep);
        lane_base += cfg.issueWidth[q];
    }

    if (machine_clear_from != 0) {
        events.raise(EventId::Flush);
        numMachineClears++;
        flushFrom(machine_clear_from, true);
        redirectFrontend();
    }

    // D$-blocked per commit-width lane w: high if at most w uops
    // issued this cycle while at least one issue queue holds waiting
    // uops and an MSHR is handling a miss (§IV-A heuristic).
    bool any_waiting = false;
    for (const auto &iq : iqs) {
        if (!iq.empty())
            any_waiting = true;
    }
    if (any_waiting && mshrs.anyBusy()) {
        const bool dram = mshrs.anyDramBusy();
        for (u32 w = issuedThisCycle; w < cfg.coreWidth; w++) {
            events.raise(EventId::DCacheBlocked, w);
            // Third-level attribution: the stall window overlaps a
            // DRAM-level refill.
            if (dram)
                events.raise(EventId::DCacheBlockedDram, w);
        }
    }
}

// ---------------------------------------------------------- dispatch

void
BoomCore::stageDispatch()
{
    if (!fetchBuffer.empty())
        events.raise(EventId::IBufValid);

    u32 accepted = 0;
    bool backpressured = false;
    while (accepted < cfg.coreWidth) {
        if (fetchBuffer.empty())
            break;
        // The ring head stays in place until the popFront() at the
        // bottom of the loop (nothing is pushed in between), so the
        // uop is copied once, ring slot to ROB entry.
        const PipeUop &head = fetchBuffer.peekFront();
        const Retired &ret = head.ret;
        const InstClass cls = classOf(ret.inst.op);
        const IqType q = routeToIq(ret.inst.op);

        if (robCount >= cfg.robEntries ||
            iqs[static_cast<u32>(q)].size() >=
                cfg.iqEntries[static_cast<u32>(q)]) {
            backpressured = true;
            break;
        }
        if (cls == InstClass::Load && ldqUsed >= cfg.ldqEntries) {
            backpressured = true;
            break;
        }
        if (cls == InstClass::Store && stq.size() >= cfg.stqEntries) {
            backpressured = true;
            break;
        }
        // Fences dispatch alone, once the machine has drained.
        if (cls == InstClass::Fence &&
            (robCount != 0 || !stq.empty())) {
            backpressured = true;
            break;
        }

        RobEntry &entry = rob[robTail];
        // Field-wise reset (not entry = RobEntry{}): the aggregate
        // assignment re-zeroes the embedded PipeUop only to overwrite
        // it on the next line, which shows up at 8-wide dispatch.
        entry.valid = true;
        entry.seq = nextSeq++;
        entry.uop = head;
        entry.iq = q;
        entry.src[0] = SeqSlot{};
        entry.src[1] = SeqSlot{};
        entry.doneAt = 0;
        entry.isMem = cls == InstClass::Load || cls == InstClass::Store;
        entry.isStore = cls == InstClass::Store;
        entry.isFence = cls == InstClass::Fence;
        if (!head.wrongPath()) {
            if (readsRs1(ret.inst.op) && ret.inst.rs1)
                entry.src[0] = renameMap[ret.inst.rs1];
            if (readsRs2(ret.inst.op) && ret.inst.rs2)
                entry.src[1] = renameMap[ret.inst.rs2];
            if (writesRd(ret.inst.op) && ret.inst.rd)
                renameMap[ret.inst.rd] = SeqSlot{entry.seq, robTail};
        }
        entry.state = RobState::InQueue;
        iqs[static_cast<u32>(q)].push_back(SeqSlot{entry.seq, robTail});
        if (entry.isStore) {
            stq.push_back(
                {entry.seq, ret.memAddr, ret.memSize, false});
        }
        if (entry.isMem && !entry.isStore)
            ldqUsed++;

        robTail = robTail + 1 == cfg.robEntries ? 0 : robTail + 1;
        robCount++;
        fetchBuffer.popFront();
        accepted++;
    }

    if (accepted > 0)
        active = true;
    if (accepted > 0 || !backpressured)
        events.raise(EventId::IBufReady);

    // Fetch-bubble per decode lane i: the backend had room for lane i
    // but the frontend supplied nothing, outside recovery (§IV-A).
    const bool stream_exhausted = streamDone && fetchBuffer.empty() &&
                                  replayQueue.empty() && !wrongPathMode;
    if (!recovering && !backpressured && !halted && !stream_exhausted &&
        !fenceBlocking) {
        for (u32 lane = accepted; lane < cfg.coreWidth; lane++) {
            if (robCount + (lane - accepted) < cfg.robEntries)
                events.raise(EventId::FetchBubbles, lane);
        }
    }
}

// ------------------------------------------------------------- fetch

void
BoomCore::predictControlFlow(PipeUop &uop)
{
    const Retired &ret = uop.ret;
    const Addr pc = ret.pc;
    const Addr fallthrough = pc + 4;
    const InstClass cls = classOf(ret.inst.op);

    Addr predicted_next = fallthrough;

    if (cls == InstClass::Branch) {
        const bool pred_taken = tage.predictTaken(pc);
        tage.recordOutcome(pred_taken, ret.taken);
        if (pred_taken) {
            const std::optional<Addr> target = btb.lookup(pc);
            if (target) {
                predicted_next = *target;
            } else {
                // Conditional-branch targets are PC-relative: decode
                // recomputes them and resteers the frontend (a short
                // bubble), not a full mispredict.
                predicted_next =
                    pc + static_cast<u64>(ret.inst.imm);
                redirectWait = std::max(redirectWait, 2u);
            }
        }
        tage.update(pc, ret.taken);
        if (ret.taken)
            btb.update(pc, ret.nextPc);
    } else if (cls == InstClass::Jump) {
        const std::optional<Addr> target = btb.lookup(pc);
        predicted_next = target.value_or(ret.nextPc);
        if (!target)
            redirectWait = std::max(redirectWait, 1u);
        btb.update(pc, ret.nextPc);
        if (ret.inst.rd == reg::ra)
            ras.push(fallthrough);
    } else { // JumpReg
        const bool is_return =
            ret.inst.rs1 == reg::ra && ret.inst.rd == reg::zero;
        std::optional<Addr> target;
        if (is_return)
            target = ras.pop();
        if (!target)
            target = btb.lookup(pc);
        predicted_next = target.value_or(fallthrough);
        btb.update(pc, ret.nextPc);
        if (ret.inst.rd == reg::ra)
            ras.push(fallthrough);
    }

    uop.predictedNext = predicted_next;
    if (cls != InstClass::Jump && predicted_next != ret.nextPc) {
        uop.flags |= uopflag::mispredicted;
        if (cls == InstClass::JumpReg)
            uop.flags |= uopflag::targetMispredict;
        wrongPathMode = true;
        wrongPathPc = predicted_next;
    }
}

void
BoomCore::stageFetch()
{
    if (redirectWait > 0) {
        // The tick that ends the countdown ends any idle span: the
        // next one fetches.
        if (--redirectWait == 0)
            active = true;
        if (recovering)
            events.raise(EventId::Recovering);
        return;
    }

    if (icacheReadyAt > now) {
        // New BOOM I$-blocked heuristic: refill in progress while the
        // fetch buffer is empty.
        if (fetchBuffer.empty())
            events.raise(EventId::ICacheBlocked);
        if (recovering)
            events.raise(EventId::Recovering);
        return;
    }

    if (halted || fenceBlocking) {
        if (recovering)
            events.raise(EventId::Recovering);
        return;
    }

    for (u32 slot = 0; slot < cfg.fetchWidth; slot++) {
        if (fetchBuffer.size() >= cfg.fetchBufferEntries ||
            (!wrongPathMode && replayQueue.empty() && streamDone))
            break;
        // Every fetch step from here changes state: it steps the
        // executor, accesses the I$ or fills a buffer slot.
        active = true;

        Addr fetch_pc;
        bool from_replay = false;
        if (wrongPathMode) {
            fetch_pc = wrongPathPc;
        } else if (!replayQueue.empty()) {
            fetch_pc = replayQueue.peekFront().ret.pc;
            from_replay = true;
        } else {
            if (!streamValid) {
                if (exec.halted()) {
                    streamDone = true;
                    break;
                }
                streamHead = exec.step();
                streamValid = true;
            }
            fetch_pc = streamHead.pc;
        }

        const u64 block = mem.l1i().blockAddr(fetch_pc);
        if (block != lastFetchBlock) {
            const MemResult result = mem.fetch(fetch_pc);
            if (result.tlbMiss) {
                events.raise(EventId::ITlbMiss);
                if (result.l2TlbMiss)
                    events.raise(EventId::L2TlbMiss);
            }
            if (!result.l1Hit || result.tlbMiss) {
                if (!result.l1Hit)
                    events.raise(EventId::ICacheMiss);
                icacheReadyAt = now + result.latency;
                if (fetchBuffer.empty())
                    events.raise(EventId::ICacheBlocked);
                return;
            }
            lastFetchBlock = block;
        }

        // Written once, in its slot; dispatch copies it to the ROB.
        PipeUop &uop = fetchBuffer.pushBack();
        if (wrongPathMode) {
            uop = kWrongPathUop;
            uop.ret.pc = fetch_pc;
            uop.ret.nextPc = fetch_pc + 4;
            wrongPathPc += 4;
            recovering = false;
            continue;
        }

        if (from_replay) {
            uop = replayQueue.peekFront();
            replayQueue.popFront();
            // Clear stale speculation flags; re-predict below.
            uop.flags &= static_cast<u8>(
                ~(uopflag::mispredicted | uopflag::targetMispredict));
        } else {
            uop.ret = streamHead;
            uop.predictedNext = 0;
            uop.flags = 0;
            streamValid = false;
            if (streamHead.halted)
                streamDone = true;
        }

        const bool is_cf = uop.ret.isControlFlow();
        if (is_cf)
            predictControlFlow(uop);
        recovering = false;

        if (classOf(uop.ret.inst.op) == InstClass::Fence) {
            fenceBlocking = true;
            break;
        }
        if (is_cf) {
            const Addr next = uop.mispredicted() ? uop.predictedNext
                                                 : uop.ret.nextPc;
            if (next != uop.ret.pc + 4) {
                // Taken control flow ends the fetch packet and costs
                // one redirect cycle through the fetch pipeline.
                lastFetchBlock = ~0ull;
                redirectWait = std::max(redirectWait, 1u);
                break;
            }
        }
        if (uop.ret.halted)
            break;
    }
    // Still recovering: no valid fetch packet was produced this cycle.
    if (recovering)
        events.raise(EventId::Recovering);
}

// -------------------------------------------------------------- tick

TlbResult
BoomCore::translateData(Addr addr)
{
    // A lookup updates the TLBs' LRU state whenever they are on, so it
    // counts as activity even when the access then cannot issue.
    if (cfg.mem.tlb.enabled)
        active = true;
    const TlbResult translation = mem.tlbs().data(addr);
    if (!translation.l1Hit) {
        events.raise(EventId::DTlbMiss);
        if (!translation.l2Hit)
            events.raise(EventId::L2TlbMiss);
    }
    return translation;
}

void
BoomCore::stages()
{
    stageCommit();
    stageComplete();
    stageIssue();
    stageDispatch();
    stageFetch();
}

u64
BoomCore::idleCycles() const
{
    // A timer before the new `now` has already had its effect; one at
    // it changes the very next tick.
    Cycle wake = ~0ull;
    const auto consider = [this, &wake](Cycle at) {
        if (at >= now && at < wake)
            wake = at;
    };
    if (!completions.empty())
        consider(completions.top().at);
    consider(mshrs.nextReady());
    consider(icacheReadyAt);
    consider(divBusyUntil);
    if (redirectWait > 0)
        consider(now + redirectWait);
    return wake - now;
}

template class CoreModel<BoomCore>;

} // namespace icicle
