/**
 * @file
 * Crash-safe sweep journal (icicle-sweep --journal / --resume).
 *
 * A multi-hour sweep that dies at point 397 of 400 should not redo
 * 396 finished simulations. The journal is an append-only binary log:
 * a header binding it to one exact grid (CRC of every job label +
 * cycle budget + trace flag), then one CRC-guarded record per
 * completed SweepPoint carrying the full deterministic SweepResult
 * (doubles as raw bit patterns, so a resumed row is bit-identical to
 * the original).
 *
 * Unlike every other artifact, the journal is NOT written via
 * tmp+rename — it must survive mid-run, so it protects itself
 * per-record instead: each append is one write(2) + fsync, and
 * resume() drops a torn tail (truncating the file) before replaying.
 * A record that made it to the journal implies the job's side effects
 * (its --trace-out store) were already committed, because stores are
 * renamed into place before the journal append.
 *
 * Resume contract: points whose last journal record is Ok are served
 * from the journal; Failed/Timeout/missing points re-run. Because the
 * engine and simulators are deterministic, the final report is
 * byte-identical to an uninterrupted run (wall-times excluded, as
 * always).
 */

#ifndef ICICLE_SWEEP_JOURNAL_HH
#define ICICLE_SWEEP_JOURNAL_HH

#include <string>
#include <vector>

#include "common/wire.hh"
#include "sweep/sweep.hh"

namespace icicle
{

constexpr u32 kJournalMagic = 0x4e4a4349; // "ICJN"
constexpr u32 kJournalVersion = 1;

/** Identity of a job list: any change invalidates old journals. */
u32 sweepGridHash(const std::vector<SweepJob> &jobs);

/**
 * Bit-exact binary codec for one SweepResult (doubles as raw bit
 * patterns). The journal stores records in this encoding, and the
 * icicled result cache reuses it so a cache hit reproduces the
 * original row byte for byte. Neither label nor point travel in the
 * payload: both sides rederive them from the grid (journal) or the
 * request key (cache).
 */
std::string encodeSweepResult(const SweepResult &result);

/**
 * The TmaResult part of that codec, field by field in one fixed
 * order. icicled's WindowReply frames carry a TmaResult the same way.
 */
void putTmaResult(std::string &buf, const TmaResult &tma);
void getTmaResult(wire::Cursor &cur, TmaResult &tma);

/**
 * Decode one encodeSweepResult() payload. Returns false (leaving
 * `result` default) on truncation, trailing bytes, an index >=
 * num_jobs, or an invalid status byte.
 */
bool decodeSweepResult(const unsigned char *data, u64 size,
                       u64 num_jobs, SweepResult &result);

/**
 * Append-side and resume-side handle on one journal file. Appends
 * are not internally locked; the sweep engine serializes them under
 * its completion mutex.
 */
class SweepJournal
{
  public:
    SweepJournal() = default;
    ~SweepJournal();

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /** Start a fresh journal (truncates any existing file). */
    void create(const std::string &path, u32 grid_hash,
                u64 num_jobs);

    /**
     * Resume from an existing journal: validate the header against
     * this grid (fatal on mismatch — a journal never silently
     * applies to a different grid), replay every intact record,
     * truncate a torn tail, and leave the file open for appends.
     * Returns the recovered results, last record per index winning.
     * A missing file degrades to create() and returns nothing.
     */
    std::vector<SweepResult> resume(const std::string &path,
                                    u32 grid_hash, u64 num_jobs);

    /**
     * Append one CRC-guarded record and fsync it. No-op if the
     * journal is not open.
     */
    void append(const SweepResult &result);

    bool isOpen() const { return fd >= 0; }
    void close();

  private:
    int fd = -1;
    std::string filePath;
};

} // namespace icicle

#endif // ICICLE_SWEEP_JOURNAL_HH
