#include "run_ahead.hh"

#if defined(__linux__)
#include <pthread.h>
#endif

#include "common/log.hh"
#include "common/profiler.hh"

namespace ladder
{

namespace
{

/** A lane's consumer-side face. */
class RunAheadLane : public TraceSource
{
  public:
    RunAheadLane(TraceRunAhead &owner, unsigned index,
                 std::uint64_t footprint)
        : owner_(owner), index_(index), footprint_(footprint)
    {
    }

    TraceRecord next() override { return owner_.next(index_); }
    std::uint64_t footprintBytes() const override { return footprint_; }

  private:
    TraceRunAhead &owner_;
    unsigned index_;
    std::uint64_t footprint_;
};

} // anonymous namespace

TraceRunAhead::TraceRunAhead(
    std::vector<std::unique_ptr<TraceSource>> sources)
    : lanes_(sources.size())
{
    for (std::size_t i = 0; i < sources.size(); ++i) {
        ladder_assert(sources[i] != nullptr, "run-ahead lane %zu has no "
                      "trace source", i);
        lanes_[i].source = std::move(sources[i]);
        lanes_[i].buffer.resize(slots * chunkRecords);
    }
}

TraceRunAhead::~TraceRunAhead()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    workerWake_.notify_one();
    if (worker_.joinable())
        worker_.join();
}

std::unique_ptr<TraceSource>
TraceRunAhead::lane(unsigned index)
{
    ladder_assert(index < lanes_.size(), "run-ahead lane %u of %zu",
                  index, lanes_.size());
    // The footprint is read before the worker exists.
    return std::make_unique<RunAheadLane>(
        *this, index, lanes_[index].source->footprintBytes());
}

void
TraceRunAhead::take(Lane &lane)
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (!worker_.joinable())
        worker_ = std::thread([this]() { work(); });
    consumerWake_.wait(lock,
                       [&]() { return lane.ready > 0 || error_; });
    if (lane.ready == 0)
        std::rethrow_exception(error_);
    lane.current = (lane.current + 1) % slots;
    lane.cursor = 0;
    // The worker sleeps only while every lane is full.
    bool wasFull = lane.ready-- == maxReadyChunks;
    if (wasFull) {
        lock.unlock();
        workerWake_.notify_one();
    }
}

TraceRunAhead::Lane *
TraceRunAhead::emptiestLane()
{
    Lane *target = nullptr;
    for (Lane &lane : lanes_) {
        if (lane.ready < maxReadyChunks &&
            (!target || lane.ready < target->ready))
            target = &lane;
    }
    return target;
}

void
TraceRunAhead::work()
{
#if defined(__linux__)
    pthread_setname_np(pthread_self(), "ladder-runahead");
#endif
    prof::setCurrentThreadName("ladder-runahead");
    std::unique_lock<std::mutex> lock(mutex_);
    try {
        while (true) {
            Lane *target = nullptr;
            workerWake_.wait(lock, [&]() {
                target = emptiestLane();
                return stop_ || target;
            });
            if (stop_)
                return;
            // Only the worker fills, and the consumer never touches a
            // chunk that is not ready, so this one is ours unlocked.
            TraceRecord *out = target->chunk(
                (target->current + 1 + target->ready) % slots);
            lock.unlock();
            {
                PROF_SCOPE("trace_runahead");
                for (std::size_t i = 0; i < chunkRecords; ++i)
                    out[i] = target->source->next();
            }
            lock.lock();
            ++target->ready;
            consumerWake_.notify_all();
        }
    } catch (...) {
        if (!lock.owns_lock())
            lock.lock();
        error_ = std::current_exception();
        consumerWake_.notify_all();
    }
}

} // namespace ladder
