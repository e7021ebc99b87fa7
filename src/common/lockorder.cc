#include "common/lockorder.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <tuple>
#include <unordered_map>

#include "analysis/diagnostics.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/sync.hh"

namespace icicle
{
namespace lockorder
{

namespace
{

struct ClassInfo
{
    std::string name;
    u32 rank = 0;
};

struct EdgeInfo
{
    u64 count = 0;
    std::vector<std::string> witness;
};

/**
 * The global registry. Leaky singleton: static-storage mutexes (the
 * fault plan, the mutant locks) release during program teardown, and
 * a destructed registry would turn that into a use-after-free.
 */
struct Registry
{
    Registry()
    {
        // Debug builds arm automatically; any build arms via env.
#ifndef NDEBUG
        enabled.store(true, std::memory_order_relaxed);
#endif
        // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only, and the
        // registry is constructed once under call-site serialization
        if (const char *env = std::getenv("ICICLE_LOCKORDER")) {
            const std::string value(env);
            enabled.store(value != "0" && value != "off" &&
                              value != "",
                          std::memory_order_relaxed);
        }
    }

    std::mutex mu;
    std::atomic<bool> enabled{false};
    std::atomic<u64> forkViolationCount{0};
    std::vector<ClassInfo> classes;
    std::unordered_map<std::string, u32> classByName;
    /** (held class, acquired class) -> first witness + count. */
    std::map<std::pair<u32, u32>, EdgeInfo> edges;
    std::vector<LockViolation> violations;
    /** Dedup key: kind + participating class ids. */
    std::set<std::string> seenViolations;
};

Registry &
registry()
{
    static Registry *reg = new Registry;
    return *reg;
}

/** Lock classes held by this thread, outermost first. Maintained
 *  even while the runtime is disarmed so fork-safety stays
 *  checkable and arming mid-run starts from a truthful stack. */
thread_local std::vector<u32> tHeld;

/** Current held stack as names, with `extra` appended (~0u = none).
 *  Caller holds reg.mu. */
std::vector<std::string>
stackNames(const Registry &reg, u32 extra)
{
    std::vector<std::string> names;
    names.reserve(tHeld.size() + 1);
    for (u32 id : tHeld)
        names.push_back(reg.classes[id].name);
    if (extra != ~0u)
        names.push_back(reg.classes[extra].name);
    return names;
}

void
addViolation(Registry &reg, LockViolation violation,
             const std::string &dedup_key)
{
    if (!reg.seenViolations.insert(dedup_key).second)
        return;
    reg.violations.push_back(std::move(violation));
}

} // namespace

u32
registerLockClass(const char *name, u32 rank)
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    auto it = reg.classByName.find(name);
    if (it != reg.classByName.end()) {
        if (reg.classes[it->second].rank != rank) {
            panic("lock class '", name, "' re-registered with rank ",
                  rank, " (was ", reg.classes[it->second].rank, ")");
        }
        return it->second;
    }
    const u32 id = static_cast<u32>(reg.classes.size());
    reg.classes.push_back(ClassInfo{name, rank});
    reg.classByName.emplace(name, id);
    return id;
}

void
setLockOrderEnabled(bool enabled)
{
    registry().enabled.store(enabled, std::memory_order_relaxed);
}

bool
lockOrderEnabled()
{
    return registry().enabled.load(std::memory_order_relaxed);
}

void
resetLockOrder()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.edges.clear();
    reg.violations.clear();
    reg.seenViolations.clear();
    reg.forkViolationCount.store(0, std::memory_order_relaxed);
}

void
onAcquire(u32 class_id)
{
    Registry &reg = registry();
    if (reg.enabled.load(std::memory_order_relaxed) &&
        !tHeld.empty()) {
        std::lock_guard<std::mutex> lock(reg.mu);
        const ClassInfo &acquired = reg.classes[class_id];
        for (u32 held_id : tHeld) {
            const ClassInfo &held = reg.classes[held_id];
            EdgeInfo &edge = reg.edges[{held_id, class_id}];
            if (edge.count++ == 0)
                edge.witness = stackNames(reg, class_id);
            if (acquired.rank > held.rank)
                continue;
            // Rank inversion. Pair the inverted acquisition's stack
            // with the witness that established the forward order,
            // when one was observed — both sides of the deadlock.
            LockViolation violation;
            violation.kind = "rank-inversion";
            violation.classes = {held.name, acquired.name};
            std::ostringstream msg;
            msg << "acquired '" << acquired.name << "' (rank "
                << acquired.rank << ") while holding '" << held.name
                << "' (rank " << held.rank
                << "); declared ranks require the opposite order";
            violation.message = msg.str();
            violation.witnesses.push_back(
                stackNames(reg, class_id));
            const auto forward =
                reg.edges.find({class_id, held_id});
            if (forward != reg.edges.end())
                violation.witnesses.push_back(
                    forward->second.witness);
            addViolation(reg, std::move(violation),
                         "rank:" + held.name + "->" +
                             acquired.name);
        }
    }
    tHeld.push_back(class_id);
}

void
onRelease(u32 class_id)
{
    // Locks are almost always released LIFO, but UniqueLock allows
    // out-of-order unlocks: pop the innermost matching entry.
    for (auto it = tHeld.rbegin(); it != tHeld.rend(); ++it) {
        if (*it == class_id) {
            tHeld.erase(std::next(it).base());
            return;
        }
    }
    // Release of a lock acquired before this translation unit's
    // state existed (or adopt-style interop): ignore quietly.
}

std::vector<std::string>
heldLockNames()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    return stackNames(reg, ~0u);
}

u32
heldLockCount()
{
    return static_cast<u32>(tHeld.size());
}

u32
checkForkSafety(const char *site,
                const std::vector<std::string> &allowed)
{
    if (tHeld.empty())
        return 0;
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    std::vector<std::string> disallowed;
    for (u32 id : tHeld) {
        const std::string &name = reg.classes[id].name;
        if (std::find(allowed.begin(), allowed.end(), name) ==
            allowed.end())
            disallowed.push_back(name);
    }
    if (disallowed.empty())
        return 0;
    reg.forkViolationCount.fetch_add(disallowed.size(),
                                     std::memory_order_relaxed);
    std::ostringstream msg;
    msg << "fork() at " << site << " while holding ";
    for (u64 i = 0; i < disallowed.size(); i++)
        msg << (i ? ", " : "") << "'" << disallowed[i] << "'";
    msg << "; a child forked from a lock-holding thread inherits "
           "locked mutexes no thread will ever release";
    warn("lockorder: ", msg.str());
    LockViolation violation;
    violation.kind = "fork-held-lock";
    violation.message = msg.str();
    violation.classes = disallowed;
    violation.witnesses.push_back(stackNames(reg, ~0u));
    std::string key = std::string("fork:") + site;
    for (const std::string &name : disallowed)
        key += ":" + name;
    addViolation(reg, std::move(violation), key);
    return static_cast<u32>(disallowed.size());
}

u64
forkViolations()
{
    return registry().forkViolationCount.load(
        std::memory_order_relaxed);
}

// ---- reporting -----------------------------------------------------

namespace
{

/**
 * Find observed-order cycles. DFS from every node in name order;
 * a path hit closes a cycle, canonicalized by rotating its smallest
 * name to the front and deduped, so the output is independent of
 * discovery order.
 */
std::vector<std::vector<std::string>>
findCycles(const std::vector<LockNode> &nodes,
           const std::vector<LockEdge> &edges)
{
    std::map<std::string, std::vector<std::string>> adjacency;
    for (const LockEdge &edge : edges)
        adjacency[edge.from].push_back(edge.to);
    for (auto &[from, next] : adjacency)
        std::sort(next.begin(), next.end());

    std::set<std::vector<std::string>> found;
    std::vector<std::string> path;
    std::set<std::string> onPath;
    std::set<std::string> done;

    std::function<void(const std::string &)> visit =
        [&](const std::string &node) {
            if (onPath.count(node)) {
                auto begin =
                    std::find(path.begin(), path.end(), node);
                std::vector<std::string> cycle(begin, path.end());
                auto smallest = std::min_element(cycle.begin(),
                                                 cycle.end());
                std::rotate(cycle.begin(), smallest, cycle.end());
                found.insert(std::move(cycle));
                return;
            }
            if (done.count(node))
                return;
            onPath.insert(node);
            path.push_back(node);
            const auto it = adjacency.find(node);
            if (it != adjacency.end()) {
                for (const std::string &next : it->second)
                    visit(next);
            }
            path.pop_back();
            onPath.erase(node);
            done.insert(node);
        };
    for (const LockNode &node : nodes)
        visit(node.name);
    return {found.begin(), found.end()};
}

void
appendJsonStrings(std::ostringstream &os,
                  const std::vector<std::string> &items)
{
    os << "[";
    for (u64 i = 0; i < items.size(); i++) {
        if (i)
            os << ",";
        os << jsonQuote(items[i]);
    }
    os << "]";
}

} // namespace

LockOrderReport
lockOrderReport()
{
    Registry &reg = registry();
    LockOrderReport report;
    {
        std::lock_guard<std::mutex> lock(reg.mu);
        for (const ClassInfo &info : reg.classes)
            report.nodes.push_back(LockNode{info.name, info.rank});
        for (const auto &[key, info] : reg.edges) {
            LockEdge edge;
            edge.from = reg.classes[key.first].name;
            edge.to = reg.classes[key.second].name;
            edge.count = info.count;
            edge.witness = info.witness;
            report.edges.push_back(std::move(edge));
        }
        report.violations = reg.violations;
    }
    std::sort(report.nodes.begin(), report.nodes.end(),
              [](const LockNode &a, const LockNode &b) {
                  return a.name < b.name;
              });
    std::sort(report.edges.begin(), report.edges.end(),
              [](const LockEdge &a, const LockEdge &b) {
                  return std::tie(a.from, a.to) <
                         std::tie(b.from, b.to);
              });

    for (const auto &cycle :
         findCycles(report.nodes, report.edges)) {
        report.cycleFree = false;
        LockViolation violation;
        violation.kind = "cycle";
        violation.classes = cycle;
        std::ostringstream msg;
        msg << "lock-order cycle: ";
        for (const std::string &name : cycle)
            msg << "'" << name << "' -> ";
        msg << "'" << cycle.front()
            << "' — two threads interleaving these orders deadlock";
        violation.message = msg.str();
        // One witness stack per edge of the cycle, closing edge
        // included.
        for (u64 i = 0; i < cycle.size(); i++) {
            const std::string &from = cycle[i];
            const std::string &to = cycle[(i + 1) % cycle.size()];
            for (const LockEdge &edge : report.edges) {
                if (edge.from == from && edge.to == to) {
                    violation.witnesses.push_back(edge.witness);
                    break;
                }
            }
        }
        report.violations.push_back(std::move(violation));
    }

    // Deterministic violation order: kind, then classes.
    std::sort(report.violations.begin(), report.violations.end(),
              [](const LockViolation &a, const LockViolation &b) {
                  return std::tie(a.kind, a.classes) <
                         std::tie(b.kind, b.classes);
              });
    return report;
}

std::string
LockOrderReport::toJson() const
{
    std::ostringstream os;
    os << "{\"cycle_free\":" << (cycleFree ? "true" : "false")
       << ",\"classes\":[";
    for (u64 i = 0; i < nodes.size(); i++) {
        if (i)
            os << ",";
        os << "{\"name\":";
        os << jsonQuote(nodes[i].name);
        os << ",\"rank\":" << nodes[i].rank << "}";
    }
    os << "],\"edges\":[";
    for (u64 i = 0; i < edges.size(); i++) {
        if (i)
            os << ",";
        os << "{\"from\":";
        os << jsonQuote(edges[i].from);
        os << ",\"to\":";
        os << jsonQuote(edges[i].to);
        os << ",\"count\":" << edges[i].count << ",\"witness\":";
        appendJsonStrings(os, edges[i].witness);
        os << "}";
    }
    os << "],\"violations\":[";
    for (u64 i = 0; i < violations.size(); i++) {
        if (i)
            os << ",";
        os << "{\"kind\":";
        os << jsonQuote(violations[i].kind);
        os << ",\"message\":";
        os << jsonQuote(violations[i].message);
        os << ",\"classes\":";
        appendJsonStrings(os, violations[i].classes);
        os << ",\"witnesses\":[";
        for (u64 w = 0; w < violations[i].witnesses.size(); w++) {
            if (w)
                os << ",";
            appendJsonStrings(os, violations[i].witnesses[w]);
        }
        os << "]}";
    }
    os << "]}";
    return os.str();
}

LintReport
LockOrderReport::toLintReport() const
{
    LintReport report;
    std::ostringstream summary;
    summary << "lock-order graph: " << nodes.size()
            << " lock classes, " << edges.size()
            << " observed orderings, "
            << (cycleFree ? "cycle-free" : "CYCLIC");
    report.add("SYNC-000", Severity::Info, summary.str());
    for (const LockViolation &violation : violations) {
        const char *rule = violation.kind == "rank-inversion"
                               ? "SYNC-001"
                           : violation.kind == "cycle"
                               ? "SYNC-002"
                               : "SYNC-003";
        std::ostringstream msg;
        msg << violation.message;
        for (u64 w = 0; w < violation.witnesses.size(); w++) {
            msg << "; witness " << (w + 1) << ": ";
            const auto &stack = violation.witnesses[w];
            for (u64 i = 0; i < stack.size(); i++)
                msg << (i ? " -> " : "") << stack[i];
        }
        report.add(rule, Severity::Error, msg.str(),
                   violation.classes.empty()
                       ? ""
                       : violation.classes.front());
    }
    return report;
}

std::string
LockOrderReport::format() const
{
    std::ostringstream os;
    os << "lock classes (" << nodes.size() << "):\n";
    for (const LockNode &node : nodes)
        os << "  " << node.name << " (rank " << node.rank << ")\n";
    os << "observed orderings (" << edges.size() << "):\n";
    for (const LockEdge &edge : edges) {
        os << "  " << edge.from << " -> " << edge.to << " (x"
           << edge.count << ")\n";
    }
    if (violations.empty()) {
        os << "no violations; graph is "
           << (cycleFree ? "cycle-free\n" : "CYCLIC\n");
    } else {
        os << "violations (" << violations.size() << "):\n";
        for (const LockViolation &violation : violations) {
            os << "  [" << violation.kind << "] "
               << violation.message << "\n";
            for (u64 w = 0; w < violation.witnesses.size(); w++) {
                os << "    witness " << (w + 1) << ": ";
                const auto &stack = violation.witnesses[w];
                for (u64 i = 0; i < stack.size(); i++)
                    os << (i ? " -> " : "") << stack[i];
                os << "\n";
            }
        }
    }
    return os.str();
}

// ---- self-test mutant ----------------------------------------------

const char *const kMutantLockA = "sync.mutant.a";
const char *const kMutantLockB = "sync.mutant.b";

#ifdef ICICLE_MUTANTS

void
runRankInversionMutant()
{
    // Both orders from one thread, sequentially: the order *graph*
    // gets the A->B->A cycle and the rank inversion without any real
    // deadlock risk. Leaky statics: teardown-order-proof.
    static Mutex *a = new Mutex(kMutantLockA, lockrank::kTestBase);
    static Mutex *b =
        new Mutex(kMutantLockB, lockrank::kTestBase + 1);
    {
        LockGuard hold_a(*a);
        LockGuard then_b(*b); // forward edge a -> b (legal)
    }
    {
        LockGuard hold_b(*b);
        LockGuard then_a(*a); // b -> a: inversion, closes the cycle
    }
}

#else

void
runRankInversionMutant()
{
    fatal("this build does not compile the seeded mutants; "
          "reconfigure with -DICICLE_MUTANTS=ON to run the "
          "lock-order self-test");
}

#endif

} // namespace lockorder
} // namespace icicle
