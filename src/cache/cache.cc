#include "cache.hh"

#include "common/log.hh"

namespace ladder
{

Cache::Cache(const CacheParams &params, std::string name)
    : name_(std::move(name)), ways_(params.ways)
{
    ladder_assert(params.ways > 0, "%s: zero ways", name_.c_str());
    std::size_t entries = params.sizeBytes / lineBytes;
    ladder_assert(entries >= params.ways && entries % params.ways == 0,
                  "%s: size/ways mismatch", name_.c_str());
    sets_ = static_cast<unsigned>(entries / params.ways);
    lines_.resize(entries);
}

void
Cache::regStats(StatGroup &group, const std::string &prefix)
{
    group.regScalar(prefix + "hits", &hits, "lookup hits");
    group.regScalar(prefix + "misses", &misses, "lookup misses");
    group.regScalar(prefix + "evictions", &evictions,
                    "lines displaced by insertion");
    group.regScalar(prefix + "dirty_evictions", &dirtyEvictions,
                    "displaced lines needing writeback");
}

unsigned
Cache::setIndex(Addr lineAddr) const
{
    return static_cast<unsigned>((lineAddr / lineBytes) % sets_);
}

Cache::Way *
Cache::find(Addr lineAddr)
{
    unsigned set = setIndex(lineAddr);
    for (unsigned w = 0; w < ways_; ++w) {
        Way &way = lines_[set * ways_ + w];
        if (way.valid && way.addr == lineAddr)
            return &way;
    }
    return nullptr;
}

const Cache::Way *
Cache::find(Addr lineAddr) const
{
    return const_cast<Cache *>(this)->find(lineAddr);
}

LineData *
Cache::probe(Addr lineAddr)
{
    Way *way = find(lineAddr);
    if (!way) {
        ++misses;
        return nullptr;
    }
    ++hits;
    way->lastUse = ++useCounter_;
    return &way->data;
}

bool
Cache::contains(Addr lineAddr) const
{
    return find(lineAddr) != nullptr;
}

void
Cache::markDirty(Addr lineAddr)
{
    Way *way = find(lineAddr);
    ladder_assert(way, "%s: markDirty on absent line", name_.c_str());
    way->dirty = true;
}

bool
Cache::isDirty(Addr lineAddr) const
{
    const Way *way = find(lineAddr);
    ladder_assert(way, "%s: isDirty on absent line", name_.c_str());
    return way->dirty;
}

Cache::Way *
Cache::lookup(Addr lineAddr, Way *&victim)
{
    Way *set = &lines_[setIndex(lineAddr) * ways_];
    Way *invalid = nullptr;
    Way *lru = nullptr;
    for (unsigned w = 0; w < ways_; ++w) {
        Way &way = set[w];
        if (!way.valid) {
            if (!invalid)
                invalid = &way;
            continue;
        }
        if (way.addr == lineAddr)
            return &way;
        if (!lru || way.lastUse < lru->lastUse)
            lru = &way;
    }
    victim = invalid ? invalid : lru;
    return nullptr;
}

CacheVictim
Cache::replace(Way &target, Addr lineAddr, const LineData &data,
               bool dirty)
{
    CacheVictim victim;
    if (target.valid) {
        ++evictions;
        victim.valid = true;
        victim.dirty = target.dirty;
        victim.addr = target.addr;
        // A clean victim's payload is dropped; nobody reads it.
        if (target.dirty) {
            victim.data = target.data;
            ++dirtyEvictions;
        }
    }
    target.addr = lineAddr;
    target.valid = true;
    target.dirty = dirty;
    target.data = data;
    target.lastUse = ++useCounter_;
    return victim;
}

CacheVictim
Cache::insert(Addr lineAddr, const LineData &data, bool dirty)
{
    Way *victim = nullptr;
    if (Way *existing = lookup(lineAddr, victim)) {
        existing->data = data;
        existing->dirty = existing->dirty || dirty;
        existing->lastUse = ++useCounter_;
        return {};
    }
    return replace(*victim, lineAddr, data, dirty);
}

CacheVictim
Cache::insertIfAbsent(Addr lineAddr, const LineData &data, bool dirty)
{
    Way *victim = nullptr;
    if (lookup(lineAddr, victim))
        return {};
    return replace(*victim, lineAddr, data, dirty);
}

void
Cache::invalidate(Addr lineAddr)
{
    if (Way *way = find(lineAddr)) {
        way->valid = false;
        way->dirty = false;
        way->addr = invalidAddr;
    }
}

std::vector<CacheVictim>
Cache::flush()
{
    std::vector<CacheVictim> dirty;
    for (auto &way : lines_) {
        if (way.valid && way.dirty) {
            CacheVictim v;
            v.valid = true;
            v.dirty = true;
            v.addr = way.addr;
            v.data = way.data;
            dirty.push_back(v);
        }
        way.valid = false;
        way.dirty = false;
        way.addr = invalidAddr;
    }
    return dirty;
}

} // namespace ladder
