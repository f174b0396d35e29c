/**
 * @file
 * Trace run-ahead: one helper thread generates every core's trace
 * records ahead of the simulation, in chunks, so the simulating thread
 * only copies records out of a ready buffer.
 *
 * This is exact because a trace source takes no feedback from the
 * simulation: a lane yields the same records in the same order as its
 * inner source would, whenever the helper happens to generate them.
 */

#ifndef LADDER_TRACE_RUN_AHEAD_HH
#define LADDER_TRACE_RUN_AHEAD_HH

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "trace/trace_file.hh"

namespace ladder
{

/**
 * Owns N trace sources and one worker thread that refills them. Each
 * source becomes a lane; lane(i) is a TraceSource view of lane i for
 * one consumer. Different lanes may be consumed from different
 * threads.
 *
 * The worker starts on the first record any lane hands out, not in the
 * constructor. It always refills the lane with the fewest ready chunks
 * and sleeps only when every lane is full, so a consumer waiting on an
 * empty lane is always served. An exception from a source ends the
 * worker and is rethrown to the next consumer that runs out of records.
 */
class TraceRunAhead
{
  public:
    /** Records per chunk. */
    static constexpr std::size_t chunkRecords = 1024;
    /** Chunks generated ahead per lane, at most. */
    static constexpr std::size_t maxReadyChunks = 4;

    explicit TraceRunAhead(
        std::vector<std::unique_ptr<TraceSource>> sources);
    ~TraceRunAhead();

    TraceRunAhead(const TraceRunAhead &) = delete;
    TraceRunAhead &operator=(const TraceRunAhead &) = delete;

    unsigned lanes() const { return static_cast<unsigned>(lanes_.size()); }

    /**
     * A view of lane @p index. It must not outlive this object, and
     * only one thread may consume it.
     */
    std::unique_ptr<TraceSource> lane(unsigned index);

    /** Next record of lane @p index (what lane(index)->next() does). */
    TraceRecord
    next(unsigned index)
    {
        Lane &l = lanes_[index];
        if (l.cursor == chunkRecords)
            take(l);
        return l.chunk(l.current)[l.cursor++];
    }

  private:
    /** Chunk buffers per lane: the one being read plus the ready ones. */
    static constexpr std::size_t slots = maxReadyChunks + 1;

    struct Lane
    {
        std::unique_ptr<TraceSource> source;
        /** slots chunks of chunkRecords records each. */
        std::vector<TraceRecord> buffer;
        /** Chunk the consumer reads; changed under mutex_. */
        std::size_t current = 0;
        /** Next record of the current chunk (consumer only). */
        std::size_t cursor = chunkRecords;
        /** Filled chunks after current; guarded by mutex_. */
        std::size_t ready = 0;

        TraceRecord *
        chunk(std::size_t slot)
        {
            return buffer.data() + slot * chunkRecords;
        }
    };

    /** Move @p lane to its next ready chunk, waiting for one. */
    void take(Lane &lane);
    /** The lane with the fewest ready chunks, if any has room. */
    Lane *emptiestLane();
    void work();

    std::vector<Lane> lanes_;
    std::mutex mutex_;
    std::condition_variable workerWake_;   //!< a lane has room, or stop
    std::condition_variable consumerWake_; //!< a chunk is ready, or failed
    bool stop_ = false;
    std::exception_ptr error_;
    std::thread worker_; //!< last: it uses every member above
};

} // namespace ladder

#endif // LADDER_TRACE_RUN_AHEAD_HH
