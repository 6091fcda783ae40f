// The benchmark's own checks: histogram percentiles against a sorted
// reference on seeded data, and the span file read back as written.
// Exits non-zero on the first failure.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <sstream>
#include <vector>

#include "histogram.hpp"
#include "payload.hpp"
#include "spans.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

/// Nearest-rank percentile of sorted data, the histogram's definition.
std::uint64_t reference(const std::vector<std::uint64_t>& sorted, double q) {
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size()))));
  return sorted[rank - 1];
}

void histogram_matches_sorted_reference() {
  for (std::uint64_t seed : {1ULL, 7ULL, 1234ULL}) {
    std::mt19937_64 rng(seed);
    // Latency-like: a lognormal body around 50 us with a heavy tail, plus
    // small values that land in the unit-width buckets.
    std::lognormal_distribution<double> body(std::log(50'000.0), 0.6);
    std::vector<std::uint64_t> values;
    e2e::Histogram h;
    for (int i = 0; i < 200'000; ++i) {
      std::uint64_t v = static_cast<std::uint64_t>(body(rng));
      if (i % 97 == 0) v = rng() % 128;
      if (i % 1009 == 0) v = 100'000'000 + rng() % 1'000'000'000;
      values.push_back(v);
      h.record(v);
    }
    std::sort(values.begin(), values.end());
    expect(h.count() == values.size(), "count");
    for (double q : {0.0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0}) {
      const double ref = static_cast<double>(reference(values, q));
      const double got = static_cast<double>(h.percentile(q));
      // Half a bucket: below 2^-kSubBits of the value.
      const double tol = ref / (1 << e2e::Histogram::kSubBits) + 1;
      if (std::fabs(got - ref) > tol) {
        std::fprintf(stderr, "seed %llu q %g: histogram %g, sorted %g\n",
                     static_cast<unsigned long long>(seed), q, got, ref);
        expect(false, "percentile within half a bucket of the sorted reference");
      }
    }
  }
  e2e::Histogram empty;
  expect(empty.percentile(0.5) == 0, "empty histogram");
  e2e::Histogram a, b;
  a.record(10);
  b.record(1000);
  a.merge(b);
  expect(a.count() == 2 && a.percentile(1.0) >= 992, "merge");
}

void span_file_round_trips() {
  std::mt19937_64 rng(99);
  std::vector<e2e::Span> spans;
  for (std::uint64_t i = 1; i <= 500; ++i) {
    const auto start = static_cast<std::int64_t>(rng() >> 2);
    spans.push_back(e2e::Span{.id = i,
                              .parent = i > 1 && i % 3 == 0 ? i - 1 : 0,
                              .name = static_cast<e2e::SpanName>(i % e2e::kSpanNames),
                              .thread = static_cast<std::uint32_t>(i % 5),
                              .start_ns = start,
                              .end_ns = start + static_cast<std::int64_t>(rng() % 100'000),
                              .self_cpu_ns = static_cast<std::int64_t>(rng() % 50'000) - 100,
                              .msg = e2e::msg_id(static_cast<std::uint32_t>(i % 3),
                                                 static_cast<std::uint32_t>(i))});
  }
  std::stringstream file;
  e2e::write_spans(file, spans);
  std::vector<e2e::Span> back;
  expect(e2e::read_spans(file, &back), "span file parses");
  expect(back == spans, "span file reads back what was written");

  std::stringstream bad("# e2ebench spans v1: header\n1\t0\tno_such_span\t0\t5\t6\t1\t0\n");
  std::vector<e2e::Span> ignored;
  expect(!e2e::read_spans(bad, &ignored), "unknown span name rejected");
}

/// Burn `ns` of this thread's CPU.
void burn(std::int64_t ns) {
  const std::int64_t until = e2e::thread_cpu_now_ns() + ns;
  while (e2e::thread_cpu_now_ns() < until) {
  }
}

void tracer_self_time_subtracts_children() {
  e2e::Tracer t(16);
  t.calibrate();
  expect(t.leaf_overhead_ns() > 0, "calibration measures the clock cost");
  t.set_enabled(true);
  constexpr std::int64_t kParentNs = 2'000'000, kChildNs = 4'000'000;
  {
    e2e::Tracer::Scope outer(&t, e2e::SpanName::rx_frame, 5);
    burn(kParentNs / 2);
    {
      e2e::Tracer::Scope inner(&t, e2e::SpanName::app_deliver);
      burn(kChildNs);
    }
    burn(kParentNs / 2);
  }
  const auto totals = t.totals();
  const auto& outer = totals[static_cast<std::size_t>(e2e::SpanName::rx_frame)];
  const auto& inner = totals[static_cast<std::size_t>(e2e::SpanName::app_deliver)];
  expect(outer.count == 1 && inner.count == 1, "one span each");
  // Self CPU: the parent's own burn, not the child's (10% slack for the
  // burn loop's overshoot).
  expect(std::abs(outer.self_cpu_ns - kParentNs) < kParentNs / 10, "parent self CPU");
  expect(std::abs(inner.self_cpu_ns - kChildNs) < kChildNs / 10, "child self CPU");
  const auto kept = t.kept();
  expect(kept.size() == 2 && kept[0].msg == 5 && kept[0].parent == kept[1].id,
         "child inherits the message id and names its parent");
}

void stamp_round_trips() {
  std::vector<std::uint8_t> p(64, 0xAB);
  const e2e::Stamp s{.station = 2, .in_window = true, .index = 77, .sent_ns = 123456789};
  e2e::write_stamp(p.data(), s);
  const auto back = e2e::read_stamp(p);
  expect(back.has_value() && back->station == 2 && back->in_window && back->index == 77 &&
             back->sent_ns == 123456789,
         "payload stamp round trip");
}

}  // namespace

int main() {
  histogram_matches_sorted_reference();
  span_file_round_trips();
  tracer_self_time_subtracts_children();
  stamp_round_trips();
  if (failures == 0) std::printf("e2ebench selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
