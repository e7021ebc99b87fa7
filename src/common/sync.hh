/**
 * @file
 * Annotated synchronization primitives for the host-side code.
 *
 * icicle grew a real concurrent surface — the sweep engine's worker
 * threads, icicled's per-connection threads and forked worker pool,
 * shared StoreReaders, the process-wide fault plan — and the static
 * analyzers (lint/prove/refute) verify the *simulated model*, not the
 * *host code's* locking assumptions. This header applies the same
 * ethos to our own synchronization: every lock is declared, named,
 * ranked, and machine-checked twice over.
 *
 *  - Statically: the wrapper types carry Clang Thread Safety Analysis
 *    capability attributes, so `ICICLE_GUARDED_BY(m)` members and
 *    `ICICLE_REQUIRES(m)` functions are verified at compile time
 *    under clang's `-Wthread-safety` (CI builds with
 *    `-Werror=thread-safety`; the attributes fold away on other
 *    compilers).
 *
 *  - Dynamically: every icicle::Mutex registers a (name, rank) lock
 *    class with the lock-order runtime (common/lockorder.hh). When
 *    the runtime is armed, each acquisition is checked against the
 *    per-thread held-lock stack: acquiring a lock whose declared rank
 *    is not strictly greater than every held lock's rank is a
 *    recorded rank inversion, and every held→acquired pair feeds a
 *    global acquisition-order graph that `icicle-sync` dumps and
 *    checks for cycles after driving the daemon end to end.
 *
 * The rank table (lockrank::) is the single source of truth for the
 * intended acquisition order; DESIGN.md §15 documents what each lock
 * guards and why the order is what it is.
 */

#ifndef ICICLE_COMMON_SYNC_HH
#define ICICLE_COMMON_SYNC_HH

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/lockorder.hh"
#include "common/types.hh"

// ---- Clang Thread Safety Analysis attributes -----------------------
// The standard capability vocabulary, compiled out on non-clang
// toolchains (GCC has no thread-safety analysis; the wrappers still
// feed the dynamic lock-order runtime there).
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define ICICLE_TSA(x) __attribute__((x))
#endif
#endif
#ifndef ICICLE_TSA
#define ICICLE_TSA(x)
#endif

/** Marks a type as a lockable capability ("mutex"). */
#define ICICLE_CAPABILITY(x) ICICLE_TSA(capability(x))
/** Marks an RAII type whose lifetime holds a capability. */
#define ICICLE_SCOPED_CAPABILITY ICICLE_TSA(scoped_lockable)
/** Data member readable/writable only while `x` is held. */
#define ICICLE_GUARDED_BY(x) ICICLE_TSA(guarded_by(x))
/** Pointee guarded by `x` (the pointer itself is not). */
#define ICICLE_PT_GUARDED_BY(x) ICICLE_TSA(pt_guarded_by(x))
/** Function callable only while the listed capabilities are held. */
#define ICICLE_REQUIRES(...) \
    ICICLE_TSA(requires_capability(__VA_ARGS__))
/** Function acquires the listed capabilities (held on return). */
#define ICICLE_ACQUIRE(...) \
    ICICLE_TSA(acquire_capability(__VA_ARGS__))
/** Function releases the listed capabilities. */
#define ICICLE_RELEASE(...) \
    ICICLE_TSA(release_capability(__VA_ARGS__))
/** Function must NOT be called with the capabilities held. */
#define ICICLE_EXCLUDES(...) ICICLE_TSA(locks_excluded(__VA_ARGS__))
/** Escape hatch; every use needs a comment saying why. */
#define ICICLE_NO_THREAD_SAFETY_ANALYSIS \
    ICICLE_TSA(no_thread_safety_analysis)

namespace icicle
{

/**
 * Declared lock ranks: a thread may only acquire a lock whose rank is
 * strictly greater than the rank of every lock it already holds, so
 * any legal interleaving acquires locks in one global order and
 * deadlock by lock cycle is impossible. Gaps leave room for new
 * locks; two locks never held together may still get distinct ranks
 * (distinct is the default — shared ranks would hide an inversion).
 *
 * Outermost (acquired first) to innermost:
 *
 *   kServeConn     icicled connection-liveness count/condvar (and
 *                  the --max-conns gate)
 *   kServeFlights  icicled miss path: the in-flight run table
 *                  (single-flight per run) and the --max-queue slot
 *                  count; held only to admit, claim or end a flight,
 *                  never across a job
 *   kServePool     worker pool's idle set and FIFO tickets (held only
 *                  to check a worker out or in)
 *   kSweepCallback sweep engine journal+callback serialization
 *   kServeReaders  shared StoreReader map (released before queries)
 *   kStoreIo       StoreReader file handle + block-decode cache
 *   kFaultPlan     process-wide fault plan (hooks fire under any of
 *                  the above: journal/store writes, job dispatch)
 */
namespace lockrank
{
constexpr u32 kServeConn = 10;
constexpr u32 kServeFlights = 20;
constexpr u32 kServePool = 30;
constexpr u32 kSweepCallback = 40;
constexpr u32 kServeReaders = 50;
constexpr u32 kStoreIo = 60;
constexpr u32 kFaultPlan = 70;
/** First rank for ad-hoc test locks (tests declare their own). */
constexpr u32 kTestBase = 1000;
} // namespace lockrank

/**
 * A named, ranked std::mutex. The (name, rank) pair identifies the
 * lock *class*: instances that play the same role (every
 * StoreReader's ioMutex) share one name and appear as one node in
 * the lock-order graph.
 */
class ICICLE_CAPABILITY("mutex") Mutex
{
  public:
    Mutex(const char *name, u32 rank)
        : classId(lockorder::registerLockClass(name, rank))
    {}

    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void
    lock() ICICLE_ACQUIRE()
    {
        inner.lock();
        lockorder::onAcquire(classId);
    }

    void
    unlock() ICICLE_RELEASE()
    {
        lockorder::onRelease(classId);
        inner.unlock();
    }

    /** Lock-class id in the lock-order registry. */
    u32 lockClass() const { return classId; }

    /**
     * The wrapped mutex, for adopt-style interop (UniqueLock). Going
     * through this bypasses the lock-order runtime — don't.
     */
    std::mutex &native() { return inner; }

  private:
    std::mutex inner;
    u32 classId;
};

/** RAII scope lock over an icicle::Mutex (std::lock_guard shape). */
class ICICLE_SCOPED_CAPABILITY LockGuard
{
  public:
    explicit LockGuard(Mutex &mutex) ICICLE_ACQUIRE(mutex)
        : mu(mutex)
    {
        mu.lock();
    }

    ~LockGuard() ICICLE_RELEASE() { mu.unlock(); }

    LockGuard(const LockGuard &) = delete;
    LockGuard &operator=(const LockGuard &) = delete;

  private:
    Mutex &mu;
};

/**
 * Movable-free, relockable scope lock (std::unique_lock shape), the
 * form CondVar::wait needs. Starts locked.
 */
class ICICLE_SCOPED_CAPABILITY UniqueLock
{
  public:
    explicit UniqueLock(Mutex &mutex) ICICLE_ACQUIRE(mutex)
        : mu(mutex)
    {
        mu.lock();
        inner = std::unique_lock<std::mutex>(mu.native(),
                                             std::adopt_lock);
    }

    ~UniqueLock() ICICLE_RELEASE()
    {
        if (inner.owns_lock())
            lockorder::onRelease(mu.lockClass());
        // `inner` unlocks the native mutex as it destructs.
    }

    void
    lock() ICICLE_ACQUIRE()
    {
        inner.lock();
        lockorder::onAcquire(mu.lockClass());
    }

    void
    unlock() ICICLE_RELEASE()
    {
        lockorder::onRelease(mu.lockClass());
        inner.unlock();
    }

    UniqueLock(const UniqueLock &) = delete;
    UniqueLock &operator=(const UniqueLock &) = delete;

  private:
    friend class CondVar;
    Mutex &mu;
    std::unique_lock<std::mutex> inner;
};

/**
 * Condition variable over icicle::Mutex. wait() releases and
 * reacquires the native mutex without touching the lock-order
 * runtime: the reacquisition repeats an ordering the original
 * acquisition already recorded, and the held-lock stack deliberately
 * keeps the entry so a fork or nested acquire during the wait-side
 * critical section is still checked against it.
 *
 * No predicate overloads on purpose: clang's thread-safety analysis
 * cannot see through a predicate lambda, so callers write the
 * `while (!cond) cv.wait(lock);` loop where the guarded reads are
 * visible to the analysis.
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    void wait(UniqueLock &lock) { inner.wait(lock.inner); }

    /**
     * Bounded wait; false when the timeout expired first. Callers
     * re-check their guarded predicate either way (same no-predicate
     * rule as wait()).
     */
    bool
    waitFor(UniqueLock &lock, u32 timeoutMs)
    {
        return inner.wait_for(lock.inner,
                              std::chrono::milliseconds(timeoutMs)) ==
               std::cv_status::no_timeout;
    }

    void notifyOne() { inner.notify_one(); }
    void notifyAll() { inner.notify_all(); }

  private:
    std::condition_variable inner;
};

} // namespace icicle

#endif // ICICLE_COMMON_SYNC_HH
