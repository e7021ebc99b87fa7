#include "sweep/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <optional>
#include <sstream>
#include <thread>

#include "boom/boom.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/sync.hh"
#include "core/dispatch.hh"
#include "core/session.hh"
#include "fault/atomic_file.hh"
#include "rocket/rocket.hh"
#include "store/store.hh"
#include "sweep/journal.hh"
#include "workloads/workloads.hh"

namespace icicle
{

const char *
sweepStatusName(SweepStatus status)
{
    switch (status) {
      case SweepStatus::Ok: return "ok";
      case SweepStatus::Failed: return "failed";
      case SweepStatus::Timeout: return "timeout";
      default: return "?";
    }
}

// ------------------------------------------------- named core configs

std::vector<std::string>
sweepCoreNames()
{
    return {"rocket",    "boom-small", "boom-medium",
            "boom-large", "boom-mega",  "boom-giga"};
}

void
checkGridNames(const GridSpec &grid, const char *coreHint)
{
    const std::vector<std::string> cores = sweepCoreNames();
    for (const std::string &core : grid.cores) {
        if (std::find(cores.begin(), cores.end(), core) == cores.end())
            fatal("unknown core config '", core, "'", coreHint);
    }
    const std::vector<WorkloadInfo> &registry = allWorkloads();
    for (const std::string &workload : grid.workloads) {
        if (std::none_of(registry.begin(), registry.end(),
                         [&](const WorkloadInfo &info) {
                             return info.name == workload;
                         }))
            fatal("unknown workload: ", workload);
    }
}

std::unique_ptr<Core>
makeSweepCore(const std::string &name, CounterArch arch,
              const Program &program)
{
    if (name == "rocket") {
        RocketConfig config;
        config.counterArch = arch;
        return std::make_unique<RocketCore>(config, program);
    }
    BoomConfig config;
    if (name == "boom-small")
        config = BoomConfig::small();
    else if (name == "boom-medium")
        config = BoomConfig::medium();
    else if (name == "boom-large")
        config = BoomConfig::large();
    else if (name == "boom-mega")
        config = BoomConfig::mega();
    else if (name == "boom-giga")
        config = BoomConfig::giga();
    else
        fatal("unknown core config '", name,
              "' (try icicle-sweep --list)");
    config.counterArch = arch;
    return std::make_unique<BoomCore>(config, program);
}

CounterArch
parseCounterArch(const std::string &name)
{
    if (name == "scalar")
        return CounterArch::Scalar;
    if (name == "addwires" || name == "add-wires")
        return CounterArch::AddWires;
    if (name == "distributed")
        return CounterArch::Distributed;
    fatal("unknown counter architecture '", name,
          "' (scalar, addwires, distributed)");
}

std::string
sweepTracePath(const std::string &dir, const std::string &label)
{
    std::string name = label;
    for (char &c : name) {
        if (c == '/' || c == ' ')
            c = '_';
    }
    return dir + "/" + name + ".icst";
}

std::string
sweepPointLabel(const SweepPoint &point)
{
    return point.core + "/" + point.workload + "/" +
           counterArchName(point.counterArch);
}

// ----------------------------------------------------- grid expansion

namespace
{

/** `values` without repeats, each kept where it first appears. */
template <typename T>
std::vector<T>
firstOccurrences(const std::vector<T> &values)
{
    std::vector<T> unique;
    for (const T &value : values) {
        if (std::find(unique.begin(), unique.end(), value) ==
            unique.end())
            unique.push_back(value);
    }
    return unique;
}

} // namespace

std::vector<SweepPoint>
GridSpec::expand() const
{
    const std::vector<std::string> core_axis = firstOccurrences(cores);
    const std::vector<std::string> workload_axis =
        firstOccurrences(workloads);
    const std::vector<CounterArch> arch_axis =
        firstOccurrences(counterArchs);
    std::vector<SweepPoint> points;
    points.reserve(core_axis.size() * workload_axis.size() *
                   arch_axis.size());
    for (const std::string &core : core_axis) {
        for (const std::string &workload : workload_axis) {
            for (CounterArch arch : arch_axis) {
                SweepPoint point;
                point.core = core;
                point.workload = workload;
                point.counterArch = arch;
                point.maxCycles = maxCycles;
                point.withTrace = withTrace;
                points.push_back(point);
            }
        }
    }
    return points;
}

namespace
{

SweepJob
jobForPoint(const SweepPoint &point, u64 run)
{
    SweepJob job;
    job.label = sweepPointLabel(point);
    job.maxCycles = point.maxCycles;
    job.withTrace = point.withTrace;
    job.point = point;
    job.run = run;
    job.make = [point] {
        return makeSweepCore(point.core, point.counterArch,
                             buildWorkload(point.workload));
    };
    return job;
}

/** Jobs [begin, end), simulated together. */
struct Run
{
    u64 begin = 0;
    u64 end = 0;
};

/** Split a job list into runs of adjacent jobs sharing a run key. */
std::vector<Run>
groupRuns(const std::vector<SweepJob> &jobs)
{
    std::vector<Run> runs;
    for (u64 begin = 0; begin < jobs.size();) {
        const SweepJob &first = jobs[begin];
        u64 end = begin + 1;
        while (first.run != 0 && end < jobs.size() &&
               jobs[end].run == first.run &&
               jobs[end].maxCycles == first.maxCycles &&
               jobs[end].withTrace == first.withTrace)
            end++;
        runs.push_back({begin, end});
        begin = end;
    }
    return runs;
}

// ------------------------------------------------------ run execution

using Clock = std::chrono::steady_clock;

/**
 * A traced attempt's sink. Destroyed with its store unsealed (the
 * attempt timed out or threw), it abandons the store: a StoreWriter
 * would seal it.
 */
struct AttemptSink : TraceSink
{
    using TraceSink::TraceSink;
    ~AttemptSink() { abandon(); }
};

/**
 * One attempt of a run: build the first member's core and run it in
 * chunks against the deadline (a traced run analyzes and streams its
 * store as it goes), then seal the store and copy it to each other
 * answered member. `members` are the run's pending job indices in
 * ascending order. Returns one result per member answered: all of
 * them, or only the first when the program read a configured counter
 * in-band (the architecture could then have steered it). Throws
 * FatalError upward; the retry loop in runMembers() handles it.
 */
std::vector<SweepResult>
runAttempt(const std::vector<SweepJob> &jobs,
           const std::vector<u64> &members,
           const SweepOptions &options)
{
    const SweepJob &job = jobs[members.front()];
    const Clock::time_point start = Clock::now();
    const bool bounded = options.timeoutSec > 0;
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        bounded ? options.timeoutSec : 0));

    // Fault hooks, keyed on the grid index so they are reproducible
    // at any worker count: an injected failure exercises the retry
    // path, an injected hang exercises the timeout path. Every member
    // is consulted, so a fault on any of them decides the attempt for
    // the whole run.
    bool hang = false;
    std::optional<u64> failed;
    for (u64 index : members) {
        const FaultPlan::JobDecision decision =
            faultPlan().onJob(index);
        if (decision.fail && !failed)
            failed = index;
        hang |= decision.hang;
    }
    if (failed)
        fatal("sweep job '", jobs[*failed].label,
              "': injected fault (fail@job#", *failed, ")");

    std::unique_ptr<Core> core = job.make();
    if (!core)
        fatal("sweep job '", job.label, "': factory returned null");

    // A traced run analyzes as it simulates and streams into the
    // first member's store; every exit that does not seal that store
    // (a timeout, a throw) abandons it.
    const bool storing = job.withTrace && !options.traceOutDir.empty();
    const std::string store_path =
        storing ? sweepTracePath(options.traceOutDir, job.label) : "";
    std::optional<AttemptSink> sink;
    if (job.withTrace)
        sink.emplace(TraceSpec::tmaBundle(*core), store_path);

    // Run in chunkCycles slices so a pathological config hits the
    // deadline between slices instead of hanging the worker.
    const u64 chunk = std::max<u64>(1, options.chunkCycles);
    u64 simulated = 0;
    bool timed_out = false;
    if (hang) {
        // An injected hang: stall to the deadline when the job is
        // bounded (so the cooperative timeout fires), or for a
        // bounded beat when it is not (so unbounded campaigns still
        // terminate).
        if (bounded) {
            while (Clock::now() < deadline)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            timed_out = true;
        } else {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(200));
        }
    }
    while (!timed_out && !core->done() && simulated < job.maxCycles) {
        const u64 step = std::min(chunk, job.maxCycles - simulated);
        // The sink takes each idle span in one call.
        simulated += sink ? runCoreLoop(*core, step, *sink)
                          : core->run(step);
        if (bounded && Clock::now() >= deadline && !core->done()) {
            timed_out = true;
            break;
        }
    }

    SweepResult shared;
    shared.cycles = simulated;
    shared.finished = core->done();
    shared.exitCode =
        core->executor().halted() ? core->executor().exitCode() : 0;
    shared.counters = gatherTmaCounters(*core);
    shared.tma = analyzeTma(*core);
    shared.ipc = shared.cycles
                     ? static_cast<double>(shared.counters.retiredUops) /
                           static_cast<double>(shared.cycles)
                     : 0.0;
    if (sink) {
        shared.recoverySequences = sink->analyzer().recoverySequences();
        shared.overlapFraction =
            sink->analyzer().overlapBound(core->coreWidth())
                .overlapFraction;
    }
    shared.status = timed_out ? SweepStatus::Timeout : SweepStatus::Ok;
    if (timed_out)
        shared.error = "exceeded per-job timeout";

    const u64 answered =
        core->csrs().configuredHpmRead() ? 1 : members.size();
    std::vector<SweepResult> results(answered, shared);
    if (storing && timed_out) {
        // Timed-out traces are wall-clock dependent; sealing them
        // would break the byte-identical guarantee across workers, so
        // the sink abandons the store. The skip is recorded, not
        // silent.
        for (SweepResult &result : results)
            result.traceSkipped = "timeout: partial trace not stored";
    } else if (storing) {
        // One compression per run: the other members' stores are
        // byte copies of the first.
        sink->finish();
        for (u64 m = 0; m < answered; m++) {
            const std::string path = sweepTracePath(
                options.traceOutDir, jobs[members[m]].label);
            if (m > 0)
                copyFileAtomic(store_path, path, FaultSite::StoreWrite);
            results[m].traceStore = path.substr(path.find_last_of('/') + 1);
        }
    }
    return results;
}

/**
 * Attempt/retry loop for one run: never throws. Returns the answered
 * members' results in index order; the run's wall time, every
 * attempt included, is split evenly across them.
 */
std::vector<SweepResult>
runMembers(const std::vector<SweepJob> &jobs,
           const std::vector<u64> &members, const SweepOptions &options)
{
    const Clock::time_point start = Clock::now();
    const u32 max_attempts = std::max(1u, options.maxAttempts);
    std::vector<SweepResult> results;
    u32 attempt = 1;
    for (;; attempt++) {
        try {
            results = runAttempt(jobs, members, options);
            break;
        } catch (const std::exception &err) {
            SweepResult failed;
            failed.status = SweepStatus::Failed;
            failed.error = err.what();
            results.assign(members.size(), failed);
            if (attempt == max_attempts)
                break;
        }
    }
    const double wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    for (u64 m = 0; m < results.size(); m++) {
        const SweepJob &job = jobs[members[m]];
        results[m].index = members[m];
        results[m].label = job.label;
        results[m].point = job.point;
        results[m].attempts = attempt;
        results[m].wallMs = wall_ms / static_cast<double>(results.size());
    }
    return results;
}

} // namespace

// ------------------------------------------------------------ engine

std::vector<SweepResult>
runSweepJobs(const std::vector<SweepJob> &jobs,
             const SweepOptions &options)
{
    const u64 num_jobs = jobs.size();
    std::vector<SweepResult> results(num_jobs);
    if (num_jobs == 0)
        return results;

    // Journal: restore completed points before any worker starts.
    // Only Ok points are served from the journal; Failed/Timeout
    // rows re-run (that is the point of resuming).
    SweepJournal journal;
    std::vector<bool> restored(num_jobs, false);
    if (!options.journalPath.empty()) {
        const u32 grid_hash = sweepGridHash(jobs);
        if (options.resume) {
            u64 reused = 0;
            for (SweepResult &result : journal.resume(
                     options.journalPath, grid_hash, num_jobs)) {
                const u64 index = result.index;
                if (result.status != SweepStatus::Ok)
                    continue;
                result.label = jobs[index].label;
                result.point = jobs[index].point;
                if (!restored[index])
                    reused++;
                restored[index] = true;
                results[index] = std::move(result);
            }
            if (reused)
                inform("sweep journal: restored ", reused, " of ",
                       num_jobs, " points; re-running the rest");
            if (options.onResult) {
                for (u64 i = 0; i < num_jobs; i++) {
                    if (restored[i])
                        options.onResult(results[i]);
                }
            }
        } else {
            journal.create(options.journalPath, grid_hash, num_jobs);
        }
    }

    const std::vector<Run> runs = groupRuns(jobs);
    std::atomic<u64> cursor{0};
    std::atomic<u64> unshared{0};
    std::atomic<bool> stop{false};
    Mutex callback_mutex("sweep.callback", lockrank::kSweepCallback);
    std::exception_ptr first_error;

    auto work = [&] {
        try {
            while (!stop.load()) {
                const u64 claimed =
                    cursor.fetch_add(1, std::memory_order_relaxed);
                if (claimed >= runs.size())
                    return;
                std::vector<u64> pending;
                for (u64 i = runs[claimed].begin; i < runs[claimed].end;
                     i++) {
                    if (!restored[i])
                        pending.push_back(i);
                }
                if (pending.empty())
                    continue;
                std::vector<SweepResult> done =
                    runMembers(jobs, pending, options);
                if (done.size() < pending.size()) {
                    // The program read a configured counter in-band:
                    // each remaining architecture runs on its own.
                    unshared++;
                    for (u64 m = done.size(); m < pending.size(); m++)
                        done.push_back(std::move(
                            runMembers(jobs, {pending[m]}, options)
                                .front()));
                }
                // Distinct slots: no lock needed for the stores.
                for (SweepResult &result : done)
                    results[result.index] = std::move(result);
                if (journal.isOpen() || options.onResult) {
                    LockGuard lock(callback_mutex);
                    for (u64 index : pending) {
                        // Journal first: a record implies the row
                        // (and its trace store, already renamed into
                        // place) is durable before the user sees it
                        // reported.
                        journal.append(results[index]);
                        if (options.onResult)
                            options.onResult(results[index]);
                    }
                }
            }
        } catch (...) {
            // A throwing journal append or callback must not escape
            // a std::thread (std::terminate): keep the first, stop
            // claiming runs, and rethrow once every worker joined.
            LockGuard lock(callback_mutex);
            if (!first_error)
                first_error = std::current_exception();
            stop = true;
        }
    };

    const u32 workers = static_cast<u32>(std::min<u64>(
        std::max(1u, options.workers), runs.size()));
    if (workers <= 1) {
        work();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (u32 w = 0; w < workers; w++)
            pool.emplace_back(work);
        for (std::thread &thread : pool)
            thread.join();
    }
    if (first_error)
        std::rethrow_exception(first_error);
    if (const u64 count = unshared.load())
        inform("sweep: ", count, " of ", runs.size(),
               " runs read a configured HPM counter in-band; their "
               "other counter architectures ran unshared");
    return results;
}

std::vector<SweepResult>
runSweep(const GridSpec &grid, const SweepOptions &options)
{
    // Points of one (core, workload) pair are adjacent (counter
    // architectures expand innermost) and share the pair's run key.
    const std::vector<SweepPoint> points = grid.expand();
    std::vector<SweepJob> jobs;
    jobs.reserve(points.size());
    u64 pair = 0;
    for (u64 i = 0; i < points.size(); i++) {
        if (i == 0 || points[i].core != points[i - 1].core ||
            points[i].workload != points[i - 1].workload)
            pair++;
        jobs.push_back(jobForPoint(points[i], pair));
    }
    return runSweepJobs(jobs, options);
}

// ----------------------------------------------------- serialization

namespace
{

/**
 * Locale-independent shortest-round-trip double. Deterministic for a
 * given value, which is what the byte-identical guarantee needs.
 */
std::string
fmtDouble(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    return buf;
}

std::string
csvEscape(const std::string &text)
{
    if (text.find_first_of(",\"\n") == std::string::npos)
        return text;
    std::string escaped = "\"";
    for (char c : text) {
        if (c == '"')
            escaped += '"';
        escaped += c;
    }
    escaped += '"';
    return escaped;
}

} // namespace

std::string
formatSweepTable(const std::vector<SweepResult> &results, bool timing)
{
    std::ostringstream os;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  %-4s %-36s %-8s %12s %7s %7s %7s %7s %7s\n",
                  "idx", "label", "status", "cycles", "ipc", "ret%",
                  "bad%", "fe%", "be%");
    os << line;
    for (const SweepResult &r : results) {
        std::snprintf(line, sizeof(line),
                      "  %-4llu %-36s %-8s %12llu %7.3f %7.2f %7.2f "
                      "%7.2f %7.2f",
                      static_cast<unsigned long long>(r.index),
                      r.label.c_str(), sweepStatusName(r.status),
                      static_cast<unsigned long long>(r.cycles), r.ipc,
                      r.tma.retiring * 100, r.tma.badSpeculation * 100,
                      r.tma.frontend * 100, r.tma.backend * 100);
        os << line;
        if (timing) {
            std::snprintf(line, sizeof(line), "  %8.1fms", r.wallMs);
            os << line;
        }
        if (!r.error.empty())
            os << "  [" << r.error << "]";
        os << "\n";
    }
    return os.str();
}

std::string
formatSweepCsv(const std::vector<SweepResult> &results, bool timing)
{
    std::ostringstream os;
    os << "index,label,core,workload,arch,status,attempts,cycles,"
          "finished,exit_code,ipc,retiring,bad_speculation,frontend,"
          "backend,"
          "machine_clears,branch_mispredicts,fetch_latency,pc_resteer,"
          "core_bound,mem_bound,recovery_sequences,overlap_fraction,"
          "trace_store,error";
    if (timing)
        os << ",wall_ms";
    os << "\n";
    for (const SweepResult &r : results) {
        os << r.index << ',' << csvEscape(r.label) << ','
           << csvEscape(r.point.core) << ','
           << csvEscape(r.point.workload) << ','
           << counterArchName(r.point.counterArch) << ','
           << sweepStatusName(r.status) << ',' << r.attempts << ','
           << r.cycles << ',' << (r.finished ? 1 : 0) << ','
           << r.exitCode << ','
           << fmtDouble(r.ipc) << ',' << fmtDouble(r.tma.retiring)
           << ',' << fmtDouble(r.tma.badSpeculation) << ','
           << fmtDouble(r.tma.frontend) << ','
           << fmtDouble(r.tma.backend) << ','
           << fmtDouble(r.tma.machineClears) << ','
           << fmtDouble(r.tma.branchMispredicts) << ','
           << fmtDouble(r.tma.fetchLatency) << ','
           << fmtDouble(r.tma.pcResteer) << ','
           << fmtDouble(r.tma.coreBound) << ','
           << fmtDouble(r.tma.memBound) << ','
           << r.recoverySequences << ','
           << fmtDouble(r.overlapFraction) << ','
           << csvEscape(r.traceStore) << ','
           << csvEscape(r.error);
        if (timing)
            os << ',' << fmtDouble(r.wallMs);
        os << "\n";
    }
    return os.str();
}

std::string
formatSweepJson(const std::vector<SweepResult> &results, bool timing)
{
    std::ostringstream os;
    os << "[\n";
    for (u64 i = 0; i < results.size(); i++) {
        const SweepResult &r = results[i];
        os << "  {\"index\": " << r.index << ", \"label\": \""
           << jsonEscape(r.label) << "\", \"core\": \""
           << jsonEscape(r.point.core) << "\", \"workload\": \""
           << jsonEscape(r.point.workload) << "\", \"arch\": \""
           << counterArchName(r.point.counterArch) << "\", "
           << "\"status\": \"" << sweepStatusName(r.status)
           << "\", \"attempts\": " << r.attempts << ", \"cycles\": "
           << r.cycles << ", \"finished\": "
           << (r.finished ? "true" : "false") << ", \"ipc\": "
           << fmtDouble(r.ipc) << ",\n   \"tma\": {\"retiring\": "
           << fmtDouble(r.tma.retiring) << ", \"bad_speculation\": "
           << fmtDouble(r.tma.badSpeculation) << ", \"frontend\": "
           << fmtDouble(r.tma.frontend) << ", \"backend\": "
           << fmtDouble(r.tma.backend) << ", \"core_bound\": "
           << fmtDouble(r.tma.coreBound) << ", \"mem_bound\": "
           << fmtDouble(r.tma.memBound) << "},\n   "
           << "\"recovery_sequences\": " << r.recoverySequences
           << ", \"overlap_fraction\": "
           << fmtDouble(r.overlapFraction);
        if (!r.traceStore.empty())
            os << ", \"trace_store\": \"" << jsonEscape(r.traceStore)
               << "\"";
        else if (!r.traceSkipped.empty())
            os << ", \"trace_store\": null, \"trace_skipped\": \""
               << jsonEscape(r.traceSkipped) << "\"";
        if (timing)
            os << ", \"wall_ms\": " << fmtDouble(r.wallMs);
        if (!r.error.empty())
            os << ", \"error\": \"" << jsonEscape(r.error) << "\"";
        os << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "]\n";
    return os.str();
}

bool
isSweepFormat(const std::string &format)
{
    return format == "text" || format == "csv" || format == "json";
}

std::string
formatSweepReport(const std::vector<SweepResult> &results,
                  const std::string &format, bool timing)
{
    if (format == "text")
        return formatSweepTable(results, timing);
    if (format == "csv")
        return formatSweepCsv(results, timing);
    if (format == "json")
        return formatSweepJson(results, timing);
    fatal("unknown format: ", format);
}

} // namespace icicle
