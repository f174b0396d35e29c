#include "event_queue.hh"

#include "log.hh"

namespace ladder
{

namespace
{

/** Children per heap node. */
constexpr std::size_t arity = 4;

} // anonymous namespace

void
EventQueue::schedule(Tick when, EventCallback callback, int priority)
{
    ladder_assert(when >= now_,
                  "scheduling event in the past (%llu < %llu)",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(now_));
    const std::uint32_t slot = slots_.acquire();
    slots_[slot] = std::move(callback);
    const Key key{when, nextSeq_++, priority, slot};

    // Sift the hole up from the new leaf.
    std::size_t hole = heap_.size();
    heap_.push_back(key);
    while (hole > 0) {
        std::size_t parent = (hole - 1) / arity;
        if (!before(key, heap_[parent]))
            break;
        heap_[hole] = heap_[parent];
        hole = parent;
    }
    heap_[hole] = key;
}

void
EventQueue::runTop()
{
    const Key top = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    const std::size_t size = heap_.size();
    if (size > 0) {
        // Sift the hole down from the root, then drop the old last
        // key into it.
        std::size_t hole = 0;
        while (true) {
            std::size_t first = hole * arity + 1;
            if (first >= size)
                break;
            std::size_t end = first + arity < size ? first + arity : size;
            std::size_t best = first;
            for (std::size_t c = first + 1; c < end; ++c) {
                if (before(heap_[c], heap_[best]))
                    best = c;
            }
            if (!before(heap_[best], last))
                break;
            heap_[hole] = heap_[best];
            hole = best;
        }
        heap_[hole] = last;
    }

    // Move the callback out first: it may schedule events, which can
    // reuse its slot.
    EventCallback callback = std::move(slots_[top.slot]);
    slots_.release(top.slot);
    now_ = top.when;
    ++executed_;
    callback();
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t count = 0;
    while (!heap_.empty() && heap_.front().when <= limit) {
        runTop();
        ++count;
    }
    if (heap_.empty() && now_ < limit && limit != maxTick)
        now_ = limit;
    return count;
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    runTop();
    return true;
}

} // namespace ladder
