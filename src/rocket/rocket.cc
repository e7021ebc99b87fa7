#include "rocket/rocket.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/model_impl.hh"

namespace icicle
{

RocketCore::RocketCore(const RocketConfig &config, const Program &program)
    : CoreModel(CoreKind::Rocket, config.counterArch), cfg(config),
      exec(program), mem(config.mem), bht(config.bhtEntries),
      btb(config.btbEntries), ibuf(config.ibufEntries)
{
    exec.setCsrBackend(&csrs);
    regReady.fill(0);
    regProducer.fill(InstClass::IntAlu);
}

void
RocketCore::raiseRetireClassEvents(const Retired &ret)
{
    events.raise(EventId::InstRetired);
    switch (classOf(ret.inst.op)) {
      case InstClass::Load:
        events.raise(EventId::LoadRetired);
        break;
      case InstClass::Store:
        events.raise(EventId::StoreRetired);
        break;
      case InstClass::Branch:
      case InstClass::Jump:
      case InstClass::JumpReg:
        events.raise(EventId::BranchRetired);
        break;
      case InstClass::Csr:
      case InstClass::System:
        events.raise(EventId::SystemRetired);
        break;
      case InstClass::Fence:
        events.raise(EventId::FenceRetired);
        break;
      default:
        events.raise(EventId::ArithRetired);
        break;
    }
}

void
RocketCore::predictControlFlow(PipeUop &entry)
{
    const Retired &ret = entry.ret;
    const Addr pc = ret.pc;
    const Addr fallthrough = pc + 4;
    const InstClass cls = classOf(ret.inst.op);

    Addr predicted_next = fallthrough;
    bool target_miss = false;

    if (cls == InstClass::Branch) {
        const bool pred_taken = bht.predictTaken(pc);
        bht.recordOutcome(pred_taken, ret.taken);
        if (pred_taken) {
            const std::optional<Addr> target = btb.lookup(pc);
            // Without a BTB entry the frontend cannot redirect at
            // fetch; the effective prediction is not-taken.
            predicted_next = target.value_or(fallthrough);
        }
        // Train: direction immediately (fetch-time structures are
        // trained at resolution in RTL; the single-cycle difference is
        // invisible at event granularity), target on taken.
        bht.update(pc, ret.taken);
        if (ret.taken)
            btb.update(pc, ret.nextPc);
    } else if (cls == InstClass::Jump) {
        const std::optional<Addr> target = btb.lookup(pc);
        if (target) {
            predicted_next = *target;
        } else {
            // JAL target is computed in decode: one frontend bubble,
            // then the correct target -- not a mispredict.
            predicted_next = ret.nextPc;
            target_miss = true; // handled as a CF interlock below
        }
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

    entry.predictedNext = predicted_next;
    if (cls == InstClass::Jump) {
        if (target_miss) {
            // Decode-computed target: 1-cycle fetch stall.
            events.raise(EventId::CtrlFlowInterlock);
            redirectWait = std::max(redirectWait, 1u);
        }
        return;
    }

    if (predicted_next != ret.nextPc) {
        entry.flags |= uopflag::mispredicted;
        if (cls == InstClass::JumpReg)
            entry.flags |= uopflag::targetMispredict;
        wrongPathMode = true;
        wrongPathPc = predicted_next;
    }
}

void
RocketCore::tickFrontend()
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

    // Refill in progress: the frontend is blocked on the I-cache.
    if (icacheReadyAt > now) {
        events.raise(EventId::ICacheBlocked);
        if (recovering)
            events.raise(EventId::Recovering);
        return;
    }

    if (halted) {
        if (recovering)
            events.raise(EventId::Recovering);
        return;
    }

    for (u32 slot = 0; slot < cfg.fetchWidth; slot++) {
        if (ibuf.size() >= cfg.ibufEntries)
            break;
        if (!wrongPathMode && streamDone)
            break;
        // Every fetch step from here changes state: it steps the
        // executor, accesses the I$ or fills a buffer slot.
        active = true;

        Addr fetch_pc;
        if (wrongPathMode) {
            fetch_pc = wrongPathPc;
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

        // I-cache access when crossing into a new block.
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
                events.raise(EventId::ICacheBlocked);
                return;
            }
            lastFetchBlock = block;
        }

        // Deliver into the instruction buffer, written once in its slot.
        PipeUop &entry = ibuf.pushBack();
        if (wrongPathMode) {
            entry = kWrongPathUop;
            entry.ret.pc = fetch_pc;
            entry.ret.nextPc = fetch_pc + 4;
            wrongPathPc += 4;
            recovering = false;
            continue;
        }

        entry.ret = streamHead;
        entry.predictedNext = 0;
        entry.flags = 0;
        streamValid = false;
        if (streamHead.halted)
            streamDone = true;
        const bool is_cf = entry.ret.isControlFlow();
        if (is_cf)
            predictControlFlow(entry);
        recovering = false;

        if (is_cf) {
            // A (predicted-)taken control-flow instruction ends the
            // fetch packet and redirects from the F2 stage: the
            // target fetch loses one cycle even on a BTB hit.
            const Addr next =
                entry.mispredicted() ? entry.predictedNext
                                     : entry.ret.nextPc;
            if (next != entry.ret.pc + 4) {
                lastFetchBlock = ~0ull;
                redirectWait = std::max(redirectWait, 1u);
                break;
            }
        }
    }
    // Still recovering: no valid fetch packet was produced this cycle.
    if (recovering)
        events.raise(EventId::Recovering);
}

void
RocketCore::tickBackend()
{
    const bool ibuf_valid = !ibuf.empty();
    if (ibuf_valid)
        events.raise(EventId::IBufValid);

    bool issued = false;
    bool backend_stalled = false;

    if (!halted && serializeUntil > now) {
        backend_stalled = true;
        events.raise(EventId::CsrInterlock);
    } else if (!halted && ibuf_valid) {
        // Stall checks peek at the ring head in place (valid: nothing
        // pushes or pops during the checks); the PipeUop is copied
        // out only when the instruction issues.
        const PipeUop &peek_uop = ibuf.peekFront();
        const Retired &peek = peek_uop.ret;
        const InstClass cls = classOf(peek.inst.op);

        // --- stall checks ------------------------------------------
        bool stall = false;
        const bool dcache_busy = dcacheReadyAt > now;

        auto check_operand = [&](u8 r) {
            if (r == 0 || regReady[r] <= now)
                return;
            stall = true;
            switch (regProducer[r]) {
              case InstClass::Load:
                // A consumer waiting on a missing load is a D$ stall;
                // the load-use interlock event is the single-cycle
                // hit-latency bubble.
                if (dcache_busy) {
                    events.raise(EventId::DCacheBlocked);
                    if (dcacheRefillFromDram)
                        events.raise(EventId::DCacheBlockedDram);
                } else {
                    events.raise(EventId::LoadUseInterlock);
                }
                break;
              case InstClass::Mul:
              case InstClass::Div:
                events.raise(EventId::LongLatencyInterlock);
                events.raise(EventId::MulDivInterlock);
                break;
              default:
                events.raise(EventId::LongLatencyInterlock);
                break;
            }
        };
        if (!peek_uop.wrongPath()) {
            if (readsRs1(peek.inst.op))
                check_operand(peek.inst.rs1);
            if (readsRs2(peek.inst.op))
                check_operand(peek.inst.rs2);
            if (!stall && cls == InstClass::Div && divBusyUntil > now) {
                stall = true;
                events.raise(EventId::MulDivInterlock);
                events.raise(EventId::LongLatencyInterlock);
            }
            if (!stall &&
                (cls == InstClass::Load || cls == InstClass::Store) &&
                dcache_busy) {
                stall = true;
                events.raise(EventId::DCacheBlocked);
                if (dcacheRefillFromDram)
                    events.raise(EventId::DCacheBlockedDram);
            }
        }
        backend_stalled = stall;

        // --- issue --------------------------------------------------
        if (!stall) {
            issued = true;
            active = true;
            events.raise(EventId::InstIssued);
            // Copy by construction (see pipebuf.hh): the entry is
            // popped here and used below (the PR 1 ASan bug class is
            // structurally impossible on the ring).
            const PipeUop head = ibuf.front();
            const Retired &ret = head.ret;
            ibuf.popFront();

            if (!head.wrongPath()) {
                raiseRetireClassEvents(ret);
                switch (cls) {
                  case InstClass::IntAlu:
                    if (writesRd(ret.inst.op) && ret.inst.rd) {
                        regReady[ret.inst.rd] = now + 1;
                        regProducer[ret.inst.rd] = InstClass::IntAlu;
                    }
                    break;
                  case InstClass::Mul:
                    regReady[ret.inst.rd] = now + cfg.mulLatency;
                    regProducer[ret.inst.rd] = InstClass::Mul;
                    break;
                  case InstClass::Div:
                    divBusyUntil = now + cfg.divLatency;
                    regReady[ret.inst.rd] = now + cfg.divLatency;
                    regProducer[ret.inst.rd] = InstClass::Div;
                    break;
                  case InstClass::Load: {
                    const MemResult result = mem.data(ret.memAddr,
                                                      false);
                    if (result.writeback)
                        events.raise(EventId::DCacheRelease);
                    if (result.tlbMiss) {
                        events.raise(EventId::DTlbMiss);
                        if (result.l2TlbMiss)
                            events.raise(EventId::L2TlbMiss);
                    }
                    const Cycle ready = now + result.latency;
                    if (!result.l1Hit) {
                        events.raise(EventId::DCacheMiss);
                        dcacheReadyAt = ready;
                        dcacheRefillFromDram = !result.l2Hit;
                    } else if (result.tlbMiss) {
                        dcacheReadyAt = ready; // page walk blocks
                        dcacheRefillFromDram = false;
                    }
                    if (ret.inst.rd) {
                        regReady[ret.inst.rd] = ready;
                        regProducer[ret.inst.rd] = InstClass::Load;
                    }
                    break;
                  }
                  case InstClass::Store: {
                    const MemResult result = mem.data(ret.memAddr,
                                                      true);
                    if (result.writeback)
                        events.raise(EventId::DCacheRelease);
                    if (result.tlbMiss) {
                        events.raise(EventId::DTlbMiss);
                        if (result.l2TlbMiss)
                            events.raise(EventId::L2TlbMiss);
                    }
                    if (!result.l1Hit) {
                        events.raise(EventId::DCacheMiss);
                        dcacheReadyAt = now + result.latency;
                        dcacheRefillFromDram = !result.l2Hit;
                    } else if (result.tlbMiss) {
                        dcacheReadyAt = now + result.latency;
                        dcacheRefillFromDram = false;
                    }
                    break;
                  }
                  case InstClass::Branch:
                  case InstClass::JumpReg:
                    if (head.mispredicted()) {
                        resolvePending = true;
                        resolveAt = now + 1;
                        resolveTargetMispredict =
                            head.targetMispredict();
                    }
                    if (cls == InstClass::JumpReg && ret.inst.rd) {
                        regReady[ret.inst.rd] = now + 1;
                        regProducer[ret.inst.rd] = InstClass::IntAlu;
                    }
                    break;
                  case InstClass::Jump:
                    if (ret.inst.rd) {
                        regReady[ret.inst.rd] = now + 1;
                        regProducer[ret.inst.rd] = InstClass::IntAlu;
                    }
                    break;
                  case InstClass::Csr:
                    // CSR ops serialize the pipeline briefly.
                    serializeUntil = now + 3;
                    if (ret.inst.rd) {
                        regReady[ret.inst.rd] = now + 1;
                        regProducer[ret.inst.rd] = InstClass::IntAlu;
                    }
                    break;
                  case InstClass::Fence:
                    // Intended flush: counted via fence-retired, not
                    // the machine-clear Flush event.
                    serializeUntil =
                        std::max({dcacheReadyAt, divBusyUntil,
                                  now + 2});
                    if (ret.inst.op == Op::FenceI) {
                        mem.flushICache();
                        // Squash only wrong-path synthetics (always a
                        // contiguous tail). The buffered correct-path
                        // uops were already consumed from the replay
                        // stream, which cannot rewind: dropping them
                        // desynchronizes the core from the executor,
                        // and if one was a mispredicted branch the
                        // core wrong-path-fetches forever because its
                        // resolution dies with it. They are exactly
                        // what a refetch would deliver; the flush
                        // cost is modeled by the cold I-cache and the
                        // redirect penalty.
                        while (!ibuf.empty() &&
                               (ibuf.flagsAt(ibuf.size() - 1) &
                                uopflag::wrongPath))
                            ibuf.popBack();
                        recovering = true;
                        redirectWait = cfg.redirectLatency;
                        lastFetchBlock = ~0ull;
                    }
                    break;
                  case InstClass::System:
                    halted = true;
                    break;
                }
            }
        }
    }

    // Fetch-bubble event: decode ready, no valid instruction, and not
    // in a recovery shadow (the §III definition).
    if (!halted && !ibuf_valid && !backend_stalled && !recovering &&
        serializeUntil <= now) {
        events.raise(EventId::FetchBubbles);
    }
    if (!backend_stalled && !halted)
        events.raise(EventId::IBufReady);

    // --- mispredict resolution (end of execute stage) ---------------
    if (resolvePending && resolveAt <= now) {
        active = true;
        resolvePending = false;
        events.raise(EventId::BranchMispredict);
        if (resolveTargetMispredict)
            events.raise(EventId::CtrlFlowTargetMispredict);
        // Squash wrong-path work and redirect the frontend.
        ibuf.clear();
        wrongPathMode = false;
        recovering = true;
        redirectWait = cfg.redirectLatency;
        lastFetchBlock = ~0ull;
    }

    (void)issued;
}

void
RocketCore::stages()
{
    tickBackend();
    tickFrontend();
}

u64
RocketCore::idleCycles() const
{
    // A timer before the new `now` has already had its effect; one at
    // it changes the very next tick.
    Cycle wake = ~0ull;
    const auto consider = [this, &wake](Cycle at) {
        if (at >= now && at < wake)
            wake = at;
    };
    consider(icacheReadyAt);
    consider(serializeUntil);
    consider(dcacheReadyAt);
    consider(divBusyUntil);
    if (resolvePending)
        consider(resolveAt);
    if (redirectWait > 0)
        consider(now + redirectWait);
    if (!ibuf.empty() && !ibuf.peekFront().wrongPath()) {
        const DecodedInst &inst = ibuf.peekFront().ret.inst;
        if (readsRs1(inst.op) && inst.rs1)
            consider(regReady[inst.rs1]);
        if (readsRs2(inst.op) && inst.rs2)
            consider(regReady[inst.rs2]);
    }
    return wake - now;
}

template class CoreModel<RocketCore>;

} // namespace icicle
