/**
 * @file
 * Cycle-level event trace sink for the memory controller. Each data
 * write dispatch and each completed demand read appends one fixed
 * record. Two kinds of sink:
 *
 *  - File sink: constructed with an output path, the sink appends
 *    records into fixed-size chunks that are handed to a background
 *    writer thread over a bounded queue with backpressure, so peak
 *    trace memory is O(chunk size) however long the run is. It emits
 *    the chunked binary (v2, or v3 with attribution), the one on-disk
 *    trace encoding; CSV text is a rendering of it (appendCsvRow in
 *    trace_reader.hh, `trace_cat <trace.bin>`).
 *  - In-memory collector (default constructor): records accumulate in
 *    a vector for callers that inspect them through records(); it has
 *    no serializer.
 *
 * Records are appended from the (single-threaded) event loop of one
 * System, in event order, so a trace is deterministic for a given run
 * regardless of sweep parallelism — each run owns its own sink.
 *
 * v2 chunked wire format (all integers little-endian; full field
 * tables in EXPERIMENTS.md):
 *
 *   file header   "LADDRTRC" u32 version=2, u32 chunkCapacity
 *   chunk*        "CHNK" u32 recordCount, u32 payloadCrc32,
 *                 recordCount x 24-byte records
 *   footer        "FTER" u32 chunkCount, u64 totalRecords,
 *                 chunkCount x { u64 offset, u32 count, u32 crc32 },
 *                 u32 footerCrc32
 *   trailer       u64 footerOffset, "LADDREND"
 *
 * Every chunk except the last holds exactly chunkCapacity records;
 * chunk payloads and the footer are CRC-32 protected, and the trailer
 * lets readers seek straight to the index.
 */

#ifndef LADDER_CTRL_TRACE_SINK_HH
#define LADDER_CTRL_TRACE_SINK_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace ladder
{

/**
 * Causal blame decomposition of one write's end-to-end latency,
 * carried per record when attribution is on (v3 binary). Every field
 * is a signed tick (picosecond) count; the controller guarantees the
 * eight components sum exactly to completionTick - enqueueTick of the
 * write. Reads carry all zeros.
 */
struct WriteAttribution
{
    std::int32_t depTicks = 0;      //!< retry/spill/dependency stall
    std::int32_t queueTicks = 0;    //!< ready but queued, bank free
    std::int32_t bankTicks = 0;     //!< ready but bank busy
    std::int32_t rcdTicks = 0;      //!< activation (tRCD)
    std::int32_t baseTicks = 0;     //!< scheme best-case tWR floor
    std::int32_t locationTicks = 0; //!< WL/BL region penalty
    std::int32_t contentTicks = 0;  //!< LRS-count penalty
    std::int32_t schemeTicks = 0;   //!< scheme mechanics (phases etc.)
};

/** One traced controller event (fixed 24-byte wire format). */
struct CtrlTraceRecord
{
    enum class Kind : std::uint8_t { Write = 0, Read = 1 };

    std::uint64_t tick = 0;      //!< dispatch (write) / completion (read)
    Kind kind = Kind::Write;
    std::uint8_t channel = 0;
    std::uint16_t wordline = 0;  //!< selected row within the mats
    std::uint16_t bitline = 0;   //!< worst (farthest) selected bitline
    std::uint16_t lrsCount = 0;  //!< wordline LRS ('1') count (writes)
    float latencyNs = 0.0f;      //!< chosen tWR (write) / total (read)
    std::uint32_t queueDepth = 0; //!< same-class queue depth at event
    WriteAttribution attr{};     //!< serialized in v3 only
};

/** Serialized size of one record in v2 binary traces. */
inline constexpr std::size_t traceRecordBytes = 24;

/**
 * Serialized record size in the v3 (attribution) binary: the 24 base
 * bytes followed by the eight blame components as little-endian
 * signed 32-bit tick counts, in WriteAttribution declaration order.
 */
inline constexpr std::size_t traceAttrRecordBytes = 56;

/** Trace file writer / in-memory collector (see @file). */
class WriteTraceSink
{
  public:
    /**
     * Bounded-queue capacity in chunks between the simulation thread
     * and the writer thread; when full, record() blocks
     * (backpressure) instead of growing the buffer.
     */
    static constexpr std::size_t queueCapacityChunks = 4;

    /** In-memory collector: keep every record for records(). */
    WriteTraceSink();

    /**
     * File sink: open @p path (truncating) and flush chunks of
     * @p chunkRecords records to it from a background writer thread
     * as the run progresses. @p attribution selects the blame block
     * (binary v3). Call finish() (or let the destructor) to flush the
     * final partial chunk and the footer.
     */
    WriteTraceSink(const std::string &path, std::size_t chunkRecords,
                   bool attribution = false);

    ~WriteTraceSink();

    WriteTraceSink(const WriteTraceSink &) = delete;
    WriteTraceSink &operator=(const WriteTraceSink &) = delete;

    void record(const CtrlTraceRecord &r);

    /** Records accepted since construction or the last clear(). */
    std::size_t size() const { return total_; }

    /**
     * Drop everything recorded so far. A file sink truncates and
     * restarts its output file, so the ramp records a run discards
     * never reach the final trace.
     */
    void clear();

    /** Output path (empty for the in-memory collector). */
    const std::string &path() const { return path_; }

    /**
     * File sink: flush the final partial chunk, write the v2 footer,
     * join the writer thread, and close the file. Idempotent;
     * record() must not be called afterwards. In-memory collector:
     * no-op.
     */
    void finish();

    /**
     * High-water mark of records resident in this sink at any instant
     * (collector: the full buffer; file sink: the fill chunk plus
     * queued and in-flight chunks). The bounded-memory guarantee is
     * `peak <= chunkRecords * (queueCapacityChunks + 2)` for a file sink,
     * which tests assert.
     */
    std::size_t peakBufferedRecords() const
    {
        return peakBuffered_;
    }

    /** In-memory collector record access (asserts for a file sink). */
    const std::vector<CtrlTraceRecord> &records() const;

  private:
    struct Stream;

    void startStream();
    void pushChunk(std::vector<CtrlTraceRecord> &&chunk);
    void stopStream(bool writeFooter);

    std::string path_;          //!< file sink only
    std::size_t chunkRecords_ = 0; //!< file sink only
    bool attribution_ = false;
    std::unique_ptr<Stream> stream_; //!< non-null for a file sink

    std::vector<CtrlTraceRecord> records_; //!< buffer / fill chunk
    std::size_t total_ = 0;
    std::size_t peakBuffered_ = 0;
};

} // namespace ladder

#endif // LADDER_CTRL_TRACE_SINK_HH
