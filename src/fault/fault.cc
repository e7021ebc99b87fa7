#include "fault/fault.hh"

#include <cstdlib>
#include <sstream>

#include "common/logging.hh"
#include "common/random.hh"

namespace icicle
{

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::StoreWrite: return "store";
      case FaultSite::JournalWrite: return "journal";
      case FaultSite::ReportWrite: return "report";
      case FaultSite::ConnAccept: return "accept";
      case FaultSite::ConnReply: return "reply";
      case FaultSite::ConnRead: return "read";
      case FaultSite::ConnWrite: return "write";
      case FaultSite::WorkerDispatch: return "worker";
      default: return "?";
    }
}

namespace
{

const char *
clauseKindName(FaultClause::Kind kind)
{
    switch (kind) {
      case FaultClause::Kind::ShortWrite: return "short-write";
      case FaultClause::Kind::Enospc: return "enospc";
      case FaultClause::Kind::Kill: return "kill";
      case FaultClause::Kind::TornFinal: return "torn-final";
      case FaultClause::Kind::BitFlip: return "bitflip";
      case FaultClause::Kind::JobFail: return "fail";
      case FaultClause::Kind::JobHang: return "hang";
      case FaultClause::Kind::ConnReset: return "conn-reset";
      case FaultClause::Kind::Stall: return "stall";
      case FaultClause::Kind::TornFrame: return "torn-frame";
      case FaultClause::Kind::WorkerKill: return "kill";
      default: return "?";
    }
}

FaultSite
parseSite(const std::string &name, const std::string &clause)
{
    if (name == "store")
        return FaultSite::StoreWrite;
    if (name == "journal")
        return FaultSite::JournalWrite;
    if (name == "report")
        return FaultSite::ReportWrite;
    fatal("fault spec clause '", clause, "': unknown site '", name,
          "' (store, journal, report)");
}

u64
parseNumber(const std::string &text, const std::string &clause)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        fatal("fault spec clause '", clause, "': expected a number, "
              "got '", text, "'");
    return std::stoull(text);
}

} // namespace

void
FaultPlan::reset(const std::string &spec)
{
    std::vector<FaultClause> parsed;
    u64 new_seed = 0x1c1c1e;

    std::istringstream is(spec);
    std::string raw;
    while (std::getline(is, raw, ',')) {
        // Trim whitespace; empty clauses are tolerated.
        const auto begin = raw.find_first_not_of(" \t");
        if (begin == std::string::npos)
            continue;
        const auto end = raw.find_last_not_of(" \t");
        const std::string clause = raw.substr(begin, end - begin + 1);

        if (clause.rfind("seed=", 0) == 0) {
            new_seed = parseNumber(clause.substr(5), clause);
            continue;
        }

        const auto at_pos = clause.find('@');
        if (at_pos == std::string::npos)
            fatal("fault spec clause '", clause,
                  "': expected KIND@SITE[#N][=TIMES] or seed=N");
        const std::string kind_name = clause.substr(0, at_pos);
        std::string rest = clause.substr(at_pos + 1);

        // Split off =TIMES (for stall clauses: =MS) then #N from the
        // tail.
        u64 times = 1;
        bool has_eq = false;
        const auto eq_pos = rest.find('=');
        if (eq_pos != std::string::npos) {
            times = parseNumber(rest.substr(eq_pos + 1), clause);
            rest = rest.substr(0, eq_pos);
            has_eq = true;
            if (times == 0)
                fatal("fault spec clause '", clause, "': zero ",
                      kind_name == "stall" ? "stall duration"
                                           : "repeat count");
        }
        u64 at = 0;
        bool has_at = false;
        const auto hash_pos = rest.find('#');
        if (hash_pos != std::string::npos) {
            at = parseNumber(rest.substr(hash_pos + 1), clause);
            has_at = true;
            rest = rest.substr(0, hash_pos);
        }

        FaultClause parsed_clause;
        parsed_clause.at = at;
        parsed_clause.times = times;
        if (kind_name == "fail" || kind_name == "hang") {
            if (rest != "job")
                fatal("fault spec clause '", clause, "': ", kind_name,
                      " targets jobs (", kind_name, "@job#J)");
            if (!has_at)
                fatal("fault spec clause '", clause,
                      "': missing #J job index");
            parsed_clause.kind = kind_name == "fail"
                                     ? FaultClause::Kind::JobFail
                                     : FaultClause::Kind::JobHang;
        } else if (kind_name == "torn-final") {
            if (rest != "store")
                fatal("fault spec clause '", clause,
                      "': torn-final targets the store site");
            parsed_clause.kind = FaultClause::Kind::TornFinal;
        } else if (kind_name == "bitflip") {
            if (rest != "store")
                fatal("fault spec clause '", clause,
                      "': bitflip targets the store site");
            if (!has_at)
                fatal("fault spec clause '", clause,
                      "': missing #B block ordinal");
            parsed_clause.kind = FaultClause::Kind::BitFlip;
        } else if (kind_name == "conn-reset") {
            if (rest == "accept") {
                parsed_clause.site = FaultSite::ConnAccept;
            } else if (rest == "reply") {
                parsed_clause.site = FaultSite::ConnReply;
            } else {
                fatal("fault spec clause '", clause,
                      "': conn-reset targets accept or reply");
            }
            if (!has_at)
                fatal("fault spec clause '", clause,
                      "': missing #K connection ordinal");
            parsed_clause.kind = FaultClause::Kind::ConnReset;
        } else if (kind_name == "stall") {
            if (rest == "read") {
                parsed_clause.site = FaultSite::ConnRead;
            } else if (rest == "write") {
                parsed_clause.site = FaultSite::ConnWrite;
            } else {
                fatal("fault spec clause '", clause,
                      "': stall targets read or write");
            }
            if (!has_at)
                fatal("fault spec clause '", clause,
                      "': missing #K op ordinal");
            if (!has_eq)
                fatal("fault spec clause '", clause,
                      "': stall needs =MS milliseconds");
            // For stall, the =N tail is a duration, not a repeat
            // count; the clause fires once.
            parsed_clause.stallMs = times;
            parsed_clause.times = 1;
            parsed_clause.kind = FaultClause::Kind::Stall;
        } else if (kind_name == "torn-frame") {
            if (rest != "reply")
                fatal("fault spec clause '", clause,
                      "': torn-frame targets the reply site");
            if (!has_at)
                fatal("fault spec clause '", clause,
                      "': missing #K reply ordinal");
            parsed_clause.site = FaultSite::ConnReply;
            parsed_clause.kind = FaultClause::Kind::TornFrame;
        } else if (kind_name == "kill" && rest == "worker") {
            if (!has_at)
                fatal("fault spec clause '", clause,
                      "': missing #K dispatch ordinal");
            parsed_clause.site = FaultSite::WorkerDispatch;
            parsed_clause.kind = FaultClause::Kind::WorkerKill;
        } else if (kind_name == "short-write" || kind_name == "enospc" ||
                   kind_name == "kill") {
            parsed_clause.site = parseSite(rest, clause);
            if (!has_at)
                fatal("fault spec clause '", clause,
                      "': missing #K write ordinal");
            parsed_clause.kind =
                kind_name == "short-write" ? FaultClause::Kind::ShortWrite
                : kind_name == "enospc"    ? FaultClause::Kind::Enospc
                                           : FaultClause::Kind::Kill;
        } else {
            fatal("fault spec clause '", clause, "': unknown kind '",
                  kind_name, "'");
        }
        parsed.push_back(parsed_clause);
    }

    LockGuard lock(mutex);
    clauses = std::move(parsed);
    seed = new_seed;
    writeOps.fill(0);
    enabled.store(!clauses.empty(), std::memory_order_relaxed);
}

std::string
FaultPlan::describe() const
{
    LockGuard lock(mutex);
    std::ostringstream os;
    os << "seed=" << seed;
    for (const FaultClause &clause : clauses) {
        os << ", " << clauseKindName(clause.kind);
        switch (clause.kind) {
          case FaultClause::Kind::JobFail:
          case FaultClause::Kind::JobHang:
            os << "@job#" << clause.at;
            break;
          case FaultClause::Kind::TornFinal:
            os << "@store";
            break;
          case FaultClause::Kind::BitFlip:
            os << "@store#" << clause.at;
            break;
          case FaultClause::Kind::Stall:
            os << "@" << faultSiteName(clause.site) << "#"
               << clause.at << "=" << clause.stallMs;
            break;
          default:
            os << "@" << faultSiteName(clause.site) << "#"
               << clause.at;
        }
        if (clause.times != 1 &&
            clause.kind != FaultClause::Kind::Stall)
            os << "=" << clause.times;
    }
    return os.str();
}

FaultPlan::WriteAction
FaultPlan::onWrite(FaultSite site)
{
    if (!active())
        return WriteAction::None;
    LockGuard lock(mutex);
    const u64 op = writeOps[static_cast<u32>(site)]++;
    for (FaultClause &clause : clauses) {
        const bool write_kind =
            clause.kind == FaultClause::Kind::ShortWrite ||
            clause.kind == FaultClause::Kind::Enospc ||
            clause.kind == FaultClause::Kind::Kill;
        if (!write_kind || clause.site != site || clause.at != op ||
            clause.fired >= clause.times)
            continue;
        clause.fired++;
        switch (clause.kind) {
          case FaultClause::Kind::ShortWrite:
            return WriteAction::Short;
          case FaultClause::Kind::Enospc:
            return WriteAction::Enospc;
          default:
            return WriteAction::Kill;
        }
    }
    return WriteAction::None;
}

bool
FaultPlan::tornFinalStore()
{
    if (!active())
        return false;
    LockGuard lock(mutex);
    for (FaultClause &clause : clauses) {
        if (clause.kind != FaultClause::Kind::TornFinal ||
            clause.fired >= clause.times)
            continue;
        clause.fired++;
        return true;
    }
    return false;
}

void
FaultPlan::corruptStoreBlock(u64 block_ordinal, std::string &record)
{
    if (!active() || record.empty())
        return;
    LockGuard lock(mutex);
    for (FaultClause &clause : clauses) {
        if (clause.kind != FaultClause::Kind::BitFlip ||
            clause.at != block_ordinal || clause.fired >= clause.times)
            continue;
        clause.fired++;
        // Seeded position: reproducible for a given (seed, block).
        Rng rng(seed ^ (block_ordinal + 1) * 0x9e3779b97f4a7c15ull);
        const u64 bit = rng.below(record.size() * 8);
        record[bit / 8] ^= static_cast<char>(1u << (bit % 8));
        warn("fault injection: flipped bit ", bit, " of store block ",
             block_ordinal);
    }
}

FaultPlan::JobDecision
FaultPlan::onJob(u64 index)
{
    JobDecision decision;
    if (!active())
        return decision;
    LockGuard lock(mutex);
    for (FaultClause &clause : clauses) {
        if (clause.at != index || clause.fired >= clause.times)
            continue;
        if (clause.kind == FaultClause::Kind::JobFail) {
            clause.fired++;
            decision.fail = true;
        } else if (clause.kind == FaultClause::Kind::JobHang) {
            clause.fired++;
            decision.hang = true;
        }
    }
    return decision;
}

bool
FaultPlan::onAccept()
{
    if (!active())
        return false;
    LockGuard lock(mutex);
    const u64 op =
        writeOps[static_cast<u32>(FaultSite::ConnAccept)]++;
    for (FaultClause &clause : clauses) {
        if (clause.kind != FaultClause::Kind::ConnReset ||
            clause.site != FaultSite::ConnAccept ||
            clause.at != op || clause.fired >= clause.times)
            continue;
        clause.fired++;
        return true;
    }
    return false;
}

FaultPlan::ReplyAction
FaultPlan::onReply()
{
    if (!active())
        return ReplyAction::None;
    LockGuard lock(mutex);
    // conn-reset@reply and torn-frame@reply consume the same reply
    // ordinal, so one schedule orders them deterministically.
    const u64 op = writeOps[static_cast<u32>(FaultSite::ConnReply)]++;
    for (FaultClause &clause : clauses) {
        const bool reply_kind =
            (clause.kind == FaultClause::Kind::ConnReset &&
             clause.site == FaultSite::ConnReply) ||
            clause.kind == FaultClause::Kind::TornFrame;
        if (!reply_kind || clause.at != op ||
            clause.fired >= clause.times)
            continue;
        clause.fired++;
        return clause.kind == FaultClause::Kind::TornFrame
                   ? ReplyAction::Torn
                   : ReplyAction::Reset;
    }
    return ReplyAction::None;
}

u64
FaultPlan::onConnRead()
{
    if (!active())
        return 0;
    LockGuard lock(mutex);
    const u64 op = writeOps[static_cast<u32>(FaultSite::ConnRead)]++;
    for (FaultClause &clause : clauses) {
        if (clause.kind != FaultClause::Kind::Stall ||
            clause.site != FaultSite::ConnRead || clause.at != op ||
            clause.fired >= clause.times)
            continue;
        clause.fired++;
        return clause.stallMs;
    }
    return 0;
}

u64
FaultPlan::onConnWrite()
{
    if (!active())
        return 0;
    LockGuard lock(mutex);
    const u64 op = writeOps[static_cast<u32>(FaultSite::ConnWrite)]++;
    for (FaultClause &clause : clauses) {
        if (clause.kind != FaultClause::Kind::Stall ||
            clause.site != FaultSite::ConnWrite || clause.at != op ||
            clause.fired >= clause.times)
            continue;
        clause.fired++;
        return clause.stallMs;
    }
    return 0;
}

bool
FaultPlan::onWorkerDispatch()
{
    if (!active())
        return false;
    LockGuard lock(mutex);
    const u64 op =
        writeOps[static_cast<u32>(FaultSite::WorkerDispatch)]++;
    for (FaultClause &clause : clauses) {
        if (clause.kind != FaultClause::Kind::WorkerKill ||
            clause.at != op || clause.fired >= clause.times)
            continue;
        clause.fired++;
        return true;
    }
    return false;
}

FaultPlan &
faultPlan()
{
    static FaultPlan plan;
    static std::once_flag armed;
    std::call_once(armed, [] {
        // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only, inside
        // call_once
        if (const char *spec = std::getenv("ICICLE_FAULT")) {
            plan.reset(spec);
            if (plan.active())
                warn("fault injection armed: ", plan.describe());
        }
    });
    return plan;
}

void
setFaultSpec(const std::string &spec)
{
    faultPlan().reset(spec);
}

} // namespace icicle
