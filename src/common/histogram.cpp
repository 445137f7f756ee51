#include "common/histogram.hpp"

#include <algorithm>
#include <cmath>

namespace mcs {

namespace {

constexpr double kOctaves = static_cast<double>(
    LatencyHistogram::kBuckets / LatencyHistogram::kBucketsPerOctave);

std::size_t bucket_of(double ms) {
    if (!(ms > LatencyHistogram::kMinMs)) {
        return 0;
    }
    const double octaves = std::log2(ms / LatencyHistogram::kMinMs);
    if (octaves >= kOctaves) {
        return LatencyHistogram::kBuckets - 1;
    }
    return static_cast<std::size_t>(
        octaves * static_cast<double>(LatencyHistogram::kBucketsPerOctave));
}

}  // namespace

double LatencyHistogram::bucket_width() {
    return std::exp2(1.0 / static_cast<double>(kBucketsPerOctave)) - 1.0;
}

void LatencyHistogram::record(double ms) {
    ++buckets_[bucket_of(ms)];
    min_ = count_ == 0 ? ms : std::min(min_, ms);
    max_ = count_ == 0 ? ms : std::max(max_, ms);
    ++count_;
}

double LatencyHistogram::quantile(double p) const {
    if (count_ == 0) {
        return 0.0;
    }
    const double clamped = std::clamp(p, 0.0, 1.0);
    const auto rank = static_cast<std::uint64_t>(
        std::llround(clamped * static_cast<double>(count_ - 1)));
    std::uint64_t below = 0;
    std::size_t k = 0;
    while (below + buckets_[k] <= rank) {
        below += buckets_[k];
        ++k;
    }
    const double centre =
        kMinMs * std::exp2((static_cast<double>(k) + 0.5) /
                           static_cast<double>(kBucketsPerOctave));
    return std::clamp(centre, min_, max_);
}

}  // namespace mcs
