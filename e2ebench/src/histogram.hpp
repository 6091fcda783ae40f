// Fixed-memory latency histogram with log-linear buckets, laid out like
// HdrHistogram: values below 2^kSubBits get unit-width buckets; above
// that, every power-of-two range is split into 2^(kSubBits-1) equal
// buckets. A percentile is therefore off by at most half a bucket, which
// is below 2^-kSubBits of the value, and memory stays the same however
// long a run is — so the benchmark's peak RSS measures the program, not
// the sample store.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace e2e {

class Histogram {
 public:
  static constexpr int kSubBits = 7;
  /// Largest recordable value is 2^kMaxBits - 1 (ns: about 18 minutes);
  /// larger values are clamped into the top bucket.
  static constexpr int kMaxBits = 40;

  void record(std::uint64_t v) {
    ++counts_[index(v)];
    ++count_;
  }

  void merge(const Histogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
  }

  std::uint64_t count() const { return count_; }

  /// Nearest-rank percentile, q in [0, 1]: the midpoint of the bucket that
  /// holds the ceil(q * count)-th smallest sample. 0 when empty.
  std::uint64_t percentile(double q) const {
    if (count_ == 0) return 0;
    const double want = std::ceil(std::clamp(q, 0.0, 1.0) *
                                  static_cast<double>(count_));
    const std::uint64_t rank =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(want));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) return lower(i) + (width(i) - 1) / 2;
    }
    return lower(kBuckets - 1);
  }

 private:
  static constexpr std::uint64_t kLinear = std::uint64_t{1} << kSubBits;
  static constexpr std::uint64_t kHalf = kLinear / 2;
  static constexpr std::size_t kBuckets =
      kLinear + static_cast<std::size_t>(kMaxBits - kSubBits) * kHalf;

  static std::size_t index(std::uint64_t v) {
    v = std::min(v, (std::uint64_t{1} << kMaxBits) - 1);
    if (v < kLinear) return static_cast<std::size_t>(v);
    // v in [2^(shift+kSubBits-1), 2^(shift+kSubBits)): top bits in [kHalf, kLinear).
    const int shift = std::bit_width(v) - kSubBits;
    return static_cast<std::size_t>(kLinear +
                                    static_cast<std::uint64_t>(shift - 1) * kHalf +
                                    ((v >> shift) - kHalf));
  }
  static std::uint64_t lower(std::size_t i) {
    if (i < kLinear) return i;
    const std::size_t k = i - kLinear;
    const int shift = static_cast<int>(k / kHalf) + 1;
    return (kHalf + k % kHalf) << shift;
  }
  static std::uint64_t width(std::size_t i) {
    if (i < kLinear) return 1;
    return std::uint64_t{1} << (static_cast<int>((i - kLinear) / kHalf) + 1);
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_{0};
};

}  // namespace e2e
