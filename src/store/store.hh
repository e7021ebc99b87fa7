/**
 * @file
 * icestore: a compressed, block-indexed, seekable trace container.
 *
 * The in-memory Trace keeps one raw u64 per cycle and every analyzer
 * query scans every cycle; that caps traces at RAM and makes narrow
 * window queries O(total cycles). The icestore format (.icst) chunks
 * cycles into fixed-size blocks, transposes each block into per-field
 * bit-planes, and run-length encodes each plane with varints — event
 * bits are bursty (Recovering and I$-blocked arrive in runs, fetch
 * bubbles in stretches; the Fig. 8 structure), so planes compress by
 * an order of magnitude. A per-block footer carries per-field
 * popcounts, first/last-set cycles and a CRC32, and a file-level
 * footer index gives O(log n) seek to any cycle; queries that only
 * need counts are served from footers without decoding a single
 * plane, so a windowed TMA recomputation touches O(blocks) not
 * O(cycles).
 *
 * Writer side: StoreWriter takes one packed word per cycle, from a
 * finished Trace (Trace::toStore) or straight from a running core.
 * A live capture goes through TraceSink, the one per-cycle consumer:
 * it packs each cycle once, feeds the OnlineAnalyzer and appends the
 * word to the writer's block buffer. The sweep engine's traced points
 * and streamTraceToStore (icicle-trace capture, icicle-sync) both
 * capture this way, so peak memory is one block buffer (blockCycles *
 * 8 bytes) plus the analyzer's pad-cycle delay line, regardless of
 * trace length. Output lands via AtomicFile (tmp + fsync + rename), so
 * a crashed capture never leaves a half-written .icst behind. A writer
 * destroyed unfinished seals what it holds (the CLI keeps a partial
 * capture); abandon() instead removes the tmp and seals nothing, which
 * is what a failed or timed-out sweep attempt wants.
 *
 * Reader side: corruption raises typed StoreErrors (a FatalError
 * subclass, so embedders and the CLI keep their existing handling),
 * and StoreOpen::Salvage recovers every block whose CRC still
 * verifies from a truncated or corrupted file — valid-window queries
 * keep working and damage() reports exactly what was lost (DESIGN.md
 * §11).
 *
 * On-disk layout (all integers little-endian; see DESIGN.md §9):
 *
 *   header:   magic, version, numFields, blockCycles,
 *             numFields x { event u32, lane u32 },
 *             crc32 u32 over the preceding header bytes (v2+)
 *   blocks:   numCycles u32,
 *             per field: varint planeBytes + alternating varint run
 *             lengths (starting with a zeros run, summing to
 *             numCycles),
 *             footer: per field { popcount u64, firstSet u32,
 *             lastSet u32 }, crc32 u32 over the whole block record
 *   index:    numBlocks u32, per block { offset u64, startCycle u64,
 *             numCycles u32 }, totalCycles u64, crc32 u32
 *   trailer:  indexOffset u64, trailer magic u32
 */

#ifndef ICICLE_STORE_STORE_HH
#define ICICLE_STORE_STORE_HH

#include <atomic>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/sync.hh"
#include "fault/atomic_file.hh"
#include "trace/trace.hh"

namespace icicle
{

constexpr u32 kStoreMagic = 0x49435354;        // "ICST"
constexpr u32 kStoreTrailerMagic = 0x54534349; // reversed
/** v2 appends a header CRC32; v1 files are still read. */
constexpr u32 kStoreVersion = 2;
/** Default cycles per block: 64K cycles = 512 KiB of raw words. */
constexpr u32 kStoreDefaultBlockCycles = 1u << 16;

/** What part of a store an error was detected in. */
enum class StoreErrorKind : u8
{
    Io,            ///< open/read/write syscall failure
    Header,        ///< bad magic/version/field table/header CRC
    Index,         ///< bad footer index or trailer
    Block,         ///< bad block record (CRC, framing, run sums)
    DamagedWindow, ///< salvage query touched a damaged region
    Unrecoverable, ///< salvage found nothing trustworthy to recover
};

const char *storeErrorKindName(StoreErrorKind kind);

/**
 * Typed store corruption/IO error. Subclasses FatalError so existing
 * catch sites (CLI exit 2, EXPECT_THROW in tests) keep working while
 * salvage-aware callers can dispatch on kind().
 */
class StoreError : public FatalError
{
  public:
    StoreError(StoreErrorKind kind, const std::string &msg)
        : FatalError(msg), errorKind(kind)
    {}

    StoreErrorKind kind() const { return errorKind; }

  private:
    StoreErrorKind errorKind;
};

/** How strictly StoreReader treats a damaged file. */
enum class StoreOpen : u8
{
    Strict,  ///< any corruption throws (the historical behavior)
    Salvage, ///< recover every CRC-valid block, expose a damage mask
};

/**
 * Writes an .icst file from a stream of packed cycle words. The
 * output is a pure function of (spec, blockCycles, word sequence):
 * no timestamps or platform state, so stores from identical runs are
 * byte-identical — the property the sweep engine's determinism
 * guarantee extends to `--trace-out`. The file is committed
 * atomically on finish(); a crash mid-capture leaves only a `.tmp`,
 * and abandon() leaves nothing.
 */
class StoreWriter
{
  public:
    /** block_cycles 0 selects kStoreDefaultBlockCycles. */
    StoreWriter(const TraceSpec &spec, const std::string &path,
                u32 block_cycles = kStoreDefaultBlockCycles);
    ~StoreWriter();

    /** Feed one packed cycle word (bit f = field f of the spec). */
    void append(u64 word);
    /** Feed `count` cycles of the same word: count append(word) calls. */
    void append(u64 word, u64 count);
    /** Flush buffered cycles and seal the output. Idempotent. */
    void finish();
    /**
     * Drop the output: remove the tmp and seal nothing. A later
     * finish() does nothing and append() is fatal; no effect once
     * finished.
     */
    void abandon();

    u64 cyclesWritten() const { return totalCycles; }
    /** Cycles currently buffered (always <= blockCycles()). */
    u32 bufferedCycles() const
    { return static_cast<u32>(buffer.size()); }
    /** High-water mark of bufferedCycles() over the writer's life. */
    u32 peakBufferedCycles() const { return peakBuffered; }
    u32 blockCycles() const { return cyclesPerBlock; }

  private:
    void flushBlock(bool torn);

    TraceSpec traceSpec;
    std::string filePath;
    AtomicFile out;
    u32 cyclesPerBlock;
    std::vector<u64> buffer;
    struct IndexEntry
    {
        u64 offset = 0;
        u64 startCycle = 0;
        u32 numCycles = 0;
    };
    std::vector<IndexEntry> index;
    u64 totalCycles = 0;
    u32 peakBuffered = 0;
    bool sealed = false;
};

/** A half-open interval of set cycles, block-relative. */
struct SetInterval
{
    u32 start = 0;
    u32 length = 0;
};

/**
 * The damage mask of a salvage-opened store: which blocks survived
 * CRC verification, which cycle ranges are gone, and whether the
 * footer index itself was trustworthy. A Strict open that succeeds is
 * always clean().
 */
struct StoreDamage
{
    struct DamagedBlock
    {
        u32 block = 0;
        u64 startCycle = 0;
        u32 numCycles = 0;
    };

    /** Opened via StoreOpen::Salvage. */
    bool salvaged = false;
    /** Trailer + footer index passed validation. */
    bool indexValid = true;
    u64 recoveredBlocks = 0;
    u64 recoveredCycles = 0;
    u64 damagedCycles = 0;
    /** Tail bytes no block record could be parsed from. */
    u64 trailingBytes = 0;
    /** Blocks present in geometry but failing CRC/framing. */
    std::vector<DamagedBlock> damaged;

    bool
    clean() const
    {
        return damaged.empty() && trailingBytes == 0 && indexValid;
    }

    /** The `icicle-trace salvage` damage-report body. */
    std::string toJson(const std::string &path) const;
};

/**
 * Random-access reader over an .icst file. Footer metadata (per-field
 * popcounts, first/last-set cycles) is loaded once at open; queries
 * that full blocks can answer from metadata never decode a plane.
 * blocksDecoded() counts the blocks whose planes were actually
 * decoded — the sublinear-query evidence bench_trace_store reports.
 *
 * Whole-trace analyses (run detection, the recovery CDF, the overlap
 * bound) are TraceAnalyzer's: decode the store with readAll() and
 * analyze the returned Trace.
 *
 * StoreOpen::Strict throws a typed StoreError on any corruption.
 * StoreOpen::Salvage recovers every CRC-valid block: whole-store
 * counts (count/countAllLanes) skip damaged blocks, window queries
 * over intact ranges work normally, and window queries touching a
 * damaged range throw StoreErrorKind::DamagedWindow — consult
 * damage() for the mask.
 *
 * Const queries are safe to call from multiple threads on one
 * reader: the file handle and the single-block decode cache are the
 * only mutable state, and both sit behind an internal mutex (the
 * cache hands out shared_ptrs, so an entry a thread is still reading
 * survives eviction by another). icicled serves concurrent windowed
 * TMA queries over one open reader per store on this guarantee.
 */
class StoreReader
{
  public:
    explicit StoreReader(const std::string &path,
                         StoreOpen open = StoreOpen::Strict);

    const TraceSpec &spec() const { return traceSpec; }
    u64 numCycles() const { return totalCycles; }
    u32 blockCycles() const { return cyclesPerBlock; }
    u32 numBlocks() const
    { return static_cast<u32>(blocks.size()); }
    /** Size of the container on disk. */
    u64 fileBytes() const { return fileSize; }
    /** Raw in-memory footprint of the same trace (8 B / cycle). */
    u64 rawBytes() const { return totalCycles * 8; }

    /** The damage mask (clean() unless salvage found damage). */
    const StoreDamage &damage() const { return damageInfo; }

    /** Decode the whole store into an in-memory Trace. */
    Trace readAll() const;
    /** Decode cycles [begin, end) into an in-memory Trace. */
    Trace readWindow(u64 begin, u64 end) const;

    /** Cycles where (event, lane) is high — footer-only. */
    u64 count(EventId event, u8 lane = 0) const;
    /** Sum over all traced lanes — footer-only. */
    u64 countAllLanes(EventId event) const;
    /**
     * Sum over all traced lanes within [begin, end). Full interior
     * blocks are served from footer popcounts; only boundary blocks
     * decode.
     */
    u64 countInWindow(EventId event, u64 begin, u64 end) const;

    /**
     * Temporal TMA over a window, matching
     * TraceAnalyzer::windowTma exactly (both go through
     * windowTmaOf) while decoding only boundary blocks, each at most
     * once per query.
     */
    TmaResult windowTma(u64 begin, u64 end, u32 core_width) const;

    /** CRC-check every block payload; StoreError on corruption. */
    void verify() const;

    /**
     * Re-stream every recovered (CRC-valid) block into a fresh,
     * fully-sealed store at `path`, renumbering cycles contiguously
     * when interior blocks were lost. Returns cycles written. This is
     * what `icicle-trace salvage` emits next to its damage report.
     */
    u64 writeRepaired(const std::string &path) const;

    /**
     * Read-side invariant hook: decode cycles [begin, end) one block
     * at a time and call fn(cycle, packed word) for each — bounded
     * memory regardless of window length. The trace-invariant
     * verifier (src/prove/trace_check.cc) replays stores through this
     * to check per-cycle event implications without materializing the
     * trace.
     */
    void forEachCycleWord(
        u64 begin, u64 end,
        const std::function<void(u64, u64)> &fn) const;

    /** Blocks whose planes were decoded since construction. */
    u64 blocksDecoded() const
    { return decodedBlocks.load(std::memory_order_relaxed); }

  private:
    struct FieldMeta
    {
        u64 popcount = 0;
        u32 firstSet = 0;
        u32 lastSet = 0;
    };
    struct BlockMeta
    {
        u64 offset = 0;     // file offset of the block record
        u64 payloadEnd = 0; // offset of the block footer
        u64 startCycle = 0;
        u32 numCycles = 0;
        bool damaged = false; // salvage: CRC/framing failed
        std::vector<FieldMeta> fields;
    };

    /** Decoded bit-planes of one block, as set-interval lists. */
    struct DecodedBlock
    {
        u32 blockIndex = 0;
        bool valid = false;
        std::vector<std::vector<SetInterval>> planes;
    };
    /**
     * The blocks one query has decoded so far (a window's at most two
     * boundary blocks). Owned by the query, not the reader, so
     * concurrent queries on a shared reader never see each other's.
     */
    using BlockMemo = std::vector<std::shared_ptr<const DecodedBlock>>;

    // The open path runs inside the constructor, before the reader
    // can be shared: it reads `in` without ioMutex on purpose, which
    // the thread-safety analysis has no "not yet published" notion
    // for — hence the explicit opt-outs.
    u64 openHeader() ICICLE_NO_THREAD_SAFETY_ANALYSIS;
    void openStrict(u64 data_begin) ICICLE_NO_THREAD_SAFETY_ANALYSIS;
    void openSalvage(u64 data_begin)
        ICICLE_NO_THREAD_SAFETY_ANALYSIS;
    bool loadIndexedBlocks(u64 data_begin, bool strict)
        ICICLE_NO_THREAD_SAFETY_ANALYSIS;
    void scanBlocks(u64 data_begin) ICICLE_NO_THREAD_SAFETY_ANALYSIS;
    void loadBlockFooter(BlockMeta &block, u32 block_id, bool strict)
        ICICLE_NO_THREAD_SAFETY_ANALYSIS;
    /** Throw DamagedWindow if [begin, end) touches damaged blocks. */
    void requireIntact(u64 begin, u64 end, const char *what) const;

    std::shared_ptr<const DecodedBlock>
    decodeBlock(u32 block_index) const;
    /** decodeBlock through the query's memo. */
    std::shared_ptr<const DecodedBlock>
    decodeBlock(u32 block_index, BlockMemo &memo) const;
    u64 countInWindow(EventId event, u64 begin, u64 end,
                      BlockMemo &memo) const;
    u64 countPlaneInRange(const std::vector<SetInterval> &plane,
                          u32 lo, u32 hi) const;
    /** Block index containing the cycle (binary search). */
    u32 blockOf(u64 cycle) const;

    std::string filePath;
    /** Guards `in` and `cache`; everything else is immutable after
     * open. Held for the whole read+decode of a block, so two
     * threads never interleave seeks on the shared stream. */
    mutable Mutex ioMutex{"store.io", lockrank::kStoreIo};
    mutable std::ifstream in ICICLE_GUARDED_BY(ioMutex);
    TraceSpec traceSpec;
    StoreOpen openMode = StoreOpen::Strict;
    u32 formatVersion = kStoreVersion;
    u32 cyclesPerBlock = 0;
    u64 totalCycles = 0;
    u64 fileSize = 0;
    std::vector<BlockMeta> blocks;
    StoreDamage damageInfo;
    mutable std::shared_ptr<const DecodedBlock> cache
        ICICLE_GUARDED_BY(ioMutex);
    mutable std::atomic<u64> decodedBlocks{0};
};

/**
 * The per-cycle trace consumer: packs the bus state once per cycle,
 * feeds the word to an OnlineAnalyzer and, when a store path was
 * given, to a StoreWriter. Call it as a core's per-cycle hook; a run
 * loop hands it a span of identical cycles in one (first, bus, count)
 * call, which packs the word once. A capture holds one block buffer
 * and a pad-cycle delay line, whatever its length.
 */
class TraceSink
{
  public:
    /** An empty store_path analyzes without writing a store. */
    TraceSink(const TraceSpec &spec, const std::string &store_path,
              u32 block_cycles = kStoreDefaultBlockCycles);

    void
    operator()(Cycle cycle, const EventBus &bus)
    {
        (*this)(cycle, bus, 1);
    }

    /** `count` cycles from `first` on, all carrying this bus. */
    void
    operator()(Cycle, const EventBus &bus, u64 count)
    {
        const u64 word = packer.pack(bus);
        online.feed(word);
        if (writer)
            writer->append(word);
        if (count > 1) {
            online.feed(word, count - 1);
            if (writer)
                writer->append(word, count - 1);
        }
    }

    const OnlineAnalyzer &analyzer() const { return online; }
    /** Seal the store (StoreWriter::finish); no-op without one. */
    void finish();
    /** Drop the store (StoreWriter::abandon); no-op without one. */
    void abandon();

  private:
    TracePacker packer;
    OnlineAnalyzer online;
    std::optional<StoreWriter> writer;
};

/**
 * Convenience: run a core while streaming the given bundle straight
 * into an .icst file through a TraceSink. The in-memory trace is never
 * materialized; peak capture memory is one block buffer. Returns
 * cycles simulated.
 */
u64 streamTraceToStore(Core &core, const TraceSpec &spec,
                       u64 max_cycles, const std::string &path,
                       u32 block_cycles = kStoreDefaultBlockCycles);

} // namespace icicle

#endif // ICICLE_STORE_STORE_HH
