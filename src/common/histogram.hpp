// A latency record of fixed size: counts in logarithmic buckets.
//
// A long-running service cannot keep every sample it times — a vector of
// per-slot wall times grows with the stream. LatencyHistogram keeps a
// count per bucket instead, with kBucketsPerOctave buckets to each
// doubling from kMinMs upwards, so its memory is fixed and each quantile
// it reports is within one bucket's relative width of the exact order
// statistic. The exact count and maximum are kept beside the buckets.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace mcs {

class LatencyHistogram {
public:
    static constexpr std::size_t kBucketsPerOctave = 8;
    /// Lower edge of the first bucket; shorter times count in it.
    static constexpr double kMinMs = 1e-3;
    /// 30 octaves: 1 µs to about 18 minutes; longer times count in the
    /// last bucket.
    static constexpr std::size_t kBuckets = 30 * kBucketsPerOctave;

    /// Relative width of one bucket, 2^(1/8) − 1 ≈ 9.05%.
    static double bucket_width();

    void record(double ms);

    std::size_t count() const { return count_; }
    /// Largest time recorded (0 when empty).
    double max() const { return max_; }

    /// The p-quantile (p in [0, 1]): the geometric centre of the bucket
    /// holding the order statistic of rank round(p·(count − 1)), clamped
    /// to the smallest and largest times recorded. 0 when empty.
    double quantile(double p) const;

private:
    std::array<std::uint64_t, kBuckets> buckets_{};
    std::size_t count_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
};

}  // namespace mcs
