#include "stats.hh"

#include <algorithm>
#include <iomanip>
#include <limits>

#include "json.hh"
#include "log.hh"

namespace ladder
{

void
StatAverage::sample(double v)
{
    // min_/max_ start at +/-infinity, so the first sample initializes
    // both regardless of its sign (all-negative sets regressed when
    // these were seeded with 0.0).
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    sum_ += v;
    ++count_;
}

void
StatAverage::reset()
{
    sum_ = 0.0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
    count_ = 0;
}

double
StatAverage::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

StatHistogram::StatHistogram(double lo, double hi, unsigned buckets)
{
    init(lo, hi, buckets);
}

void
StatHistogram::init(double lo, double hi, unsigned buckets)
{
    ladder_assert(hi > lo, "histogram: hi <= lo");
    ladder_assert(buckets > 0, "histogram: zero buckets");
    lo_ = lo;
    hi_ = hi;
    counts_.assign(buckets, 0);
    reset();
}

void
StatHistogram::sample(double v)
{
    sum_ += v;
    ++total_;
    if (v < lo_) {
        ++underflow_;
        return;
    }
    if (v >= hi_) {
        ++overflow_;
        return;
    }
    double frac = (v - lo_) / (hi_ - lo_);
    auto idx = static_cast<size_t>(frac * counts_.size());
    if (idx >= counts_.size())
        idx = counts_.size() - 1;
    ++counts_[idx];
}

void
StatHistogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    underflow_ = 0;
    overflow_ = 0;
    total_ = 0;
    sum_ = 0.0;
}

double
StatHistogram::bucketLo(unsigned i) const
{
    return lo_ + (hi_ - lo_) * i / static_cast<double>(counts_.size());
}

void
StatGroup::regScalar(const std::string &name, StatScalar *stat,
                     const std::string &desc)
{
    scalars_.push_back({name, stat, desc});
}

void
StatGroup::regAverage(const std::string &name, StatAverage *stat,
                      const std::string &desc)
{
    averages_.push_back({name, stat, desc});
}

void
StatGroup::regHistogram(const std::string &name, StatHistogram *stat,
                        const std::string &desc)
{
    histograms_.push_back({name, stat, desc});
}

void
StatGroup::addChild(StatGroup *child)
{
    children_.push_back(child);
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &entry : scalars_) {
        os << std::left << std::setw(48) << (name_ + "." + entry.name)
           << std::right << std::setw(16) << entry.stat->value();
        if (!entry.desc.empty())
            os << "  # " << entry.desc;
        os << '\n';
    }
    for (const auto &entry : averages_) {
        os << std::left << std::setw(48)
           << (name_ + "." + entry.name + ".mean")
           << std::right << std::setw(16) << entry.stat->mean();
        if (!entry.desc.empty())
            os << "  # " << entry.desc;
        os << '\n';
    }
    for (const auto &entry : histograms_) {
        const StatHistogram &h = *entry.stat;
        std::string base = name_ + "." + entry.name;
        os << std::left << std::setw(48) << (base + ".samples")
           << std::right << std::setw(16) << h.totalSamples();
        if (!entry.desc.empty())
            os << "  # " << entry.desc;
        os << '\n';
        os << std::left << std::setw(48) << (base + ".mean")
           << std::right << std::setw(16) << h.mean() << '\n';
        os << std::left << std::setw(48) << (base + ".underflow")
           << std::right << std::setw(16) << h.underflow() << '\n';
        os << std::left << std::setw(48) << (base + ".overflow")
           << std::right << std::setw(16) << h.overflow() << '\n';
        os << std::left << std::setw(48) << (base + ".buckets")
           << " |";
        for (unsigned i = 0; i < h.buckets(); ++i)
            os << ' ' << h.bucketCount(i);
        os << '\n';
    }
    for (const auto *child : children_)
        child->dump(os);
}

void
StatGroup::dumpJson(JsonWriter &json) const
{
    json.beginObject();
    json.field("name", name_);
    json.key("scalars");
    json.beginObject();
    for (const auto &entry : scalars_)
        json.field(entry.name, entry.stat->value());
    json.endObject();
    json.key("averages");
    json.beginObject();
    for (const auto &entry : averages_) {
        const StatAverage &a = *entry.stat;
        json.key(entry.name);
        json.beginObject();
        json.field("mean", a.mean());
        json.field("min", a.min());
        json.field("max", a.max());
        json.field("sum", a.sum());
        json.field("count", a.count());
        json.endObject();
    }
    json.endObject();
    json.key("histograms");
    json.beginObject();
    for (const auto &entry : histograms_) {
        const StatHistogram &h = *entry.stat;
        json.key(entry.name);
        json.beginObject();
        json.field("lo", h.lo());
        json.field("hi", h.hi());
        json.field("bucket_width",
                   h.buckets() ? (h.hi() - h.lo()) / h.buckets()
                               : 0.0);
        json.field("samples", h.totalSamples());
        json.field("mean", h.mean());
        json.field("underflow", h.underflow());
        json.field("overflow", h.overflow());
        json.key("counts");
        json.beginArray();
        for (unsigned i = 0; i < h.buckets(); ++i)
            json.value(h.bucketCount(i));
        json.endArray();
        json.endObject();
    }
    json.endObject();
    json.key("children");
    json.beginArray();
    for (const auto *child : children_)
        child->dumpJson(json);
    json.endArray();
    json.endObject();
}

template <typename Fn>
void
StatGroup::walk(Fn &&fn) const
{
    for (const auto &entry : scalars_)
        fn(*this, entry.name, "", entry.stat->value());
    for (const auto &entry : averages_) {
        fn(*this, entry.name, ".sum", entry.stat->sum());
        fn(*this, entry.name, ".count",
           static_cast<double>(entry.stat->count()));
    }
    for (const auto *child : children_)
        child->walk(fn);
}

void
StatGroup::visit(
    const std::function<void(const std::string &, double)> &fn) const
{
    walk([&fn](const StatGroup &group, const std::string &name,
               const char *suffix, double value) {
        fn(group.name_ + "." + name + suffix, value);
    });
}

void
StatGroup::appendValues(std::vector<double> &out) const
{
    walk([&out](const StatGroup &, const std::string &, const char *,
                double value) { out.push_back(value); });
}

void
StatGroup::resetAll()
{
    for (auto &entry : scalars_)
        entry.stat->reset();
    for (auto &entry : averages_)
        entry.stat->reset();
    for (auto &entry : histograms_)
        entry.stat->reset();
    for (auto *child : children_)
        child->resetAll();
}

} // namespace ladder
