// Measurement helpers of the end-to-end benchmark: tail percentiles, span
// self time, open-loop lateness and the load-ladder verdicts. Header-only
// and free of aligner dependencies so test_stats.cpp can pin them down.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles.

/// Nearest-rank quantile of ascending `sorted` (q in [0, 1]): the smallest
/// sample with at least q·n samples at or below it.
inline double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// The samples beyond a tail percentile must number at least this many for
/// the percentile to be reported.
inline constexpr std::size_t kMinBeyond = 10;

/// Highest percentile of {99.9, 99, 95, 90, 75, 50} that leaves at least
/// kMinBeyond of `n` samples strictly above its rank; 0 when even the
/// median does not (n < 20).
inline double tail_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (n >= rank + kMinBeyond) return p;
  }
  return 0.0;
}

struct LatencySummary {
  std::size_t n = 0;         ///< Samples, failures included.
  double p50 = 0.0;
  double p90 = 0.0;
  double tail_pct = 0.0;     ///< Which percentile `tail` is (e.g. 99).
  double tail = 0.0;
};

/// Median and tail of `samples` (failures enter as +infinity, so they miss
/// any limit). Sorts its argument.
inline LatencySummary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  LatencySummary s;
  s.n = samples.size();
  s.p50 = nearest_rank(samples, 0.5);
  s.p90 = nearest_rank(samples, 0.9);
  s.tail_pct = tail_percentile(s.n);
  s.tail = s.tail_pct > 0.0 ? nearest_rank(samples, s.tail_pct / 100.0)
                            : std::numeric_limits<double>::infinity();
  return s;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// ---------------------------------------------------------------------------
// Spans.

using SpanClock = std::chrono::steady_clock;

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root.
  std::string name;
  std::int64_t start_ns = 0;  ///< Since the log's epoch.
  std::int64_t end_ns = 0;
  std::uint64_t request = 0;  ///< Wire request id; 0 = none.
  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// In-memory span store. Thread-safe; spans are appended when they end.
class SpanLog {
 public:
  SpanLog() : epoch_(SpanClock::now()) {}

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               SpanClock::now() - epoch_)
        .count();
  }
  std::uint64_t next_id() {
    std::lock_guard<std::mutex> lk(mu_);
    return ++last_id_;
  }
  void add(Span span) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(span));
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

 private:
  SpanClock::time_point epoch_;
  mutable std::mutex mu_;
  std::uint64_t last_id_ = 0;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, records on destruction. A null log
/// makes it inert, so untraced runs pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::uint64_t parent = 0,
             std::uint64_t request = 0)
      : log_(log) {
    if (log_ == nullptr) return;
    span_.id = log_->next_id();
    span_.parent = parent;
    span_.name = std::move(name);
    span_.request = request;
    span_.start_ns = log_->now_ns();
  }
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    span_.end_ns = log_->now_ns();
    log_->add(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  SpanLog* log_;
  Span span_;
};

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the part of its interval that its children's intervals cover (children
/// may overlap each other, e.g. when they ran on several threads).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return spans[a].id < spans[b].id;
  });
  const auto find = [&](std::uint64_t id) -> const Span* {
    const auto it = std::lower_bound(
        order.begin(), order.end(), id,
        [&](std::size_t i, std::uint64_t v) { return spans[i].id < v; });
    return it != order.end() && spans[*it].id == id ? &spans[*it] : nullptr;
  };
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == 0) continue;
    const Span* parent = find(spans[i].parent);
    if (parent == nullptr) continue;
    const auto p = static_cast<std::size_t>(parent - spans.data());
    const std::int64_t lo = std::max(spans[i].start_ns, parent->start_ns);
    const std::int64_t hi = std::min(spans[i].end_ns, parent->end_ns);
    if (lo < hi) children[p].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

// ---------------------------------------------------------------------------
// Open-loop load: one request's timeline, measured from its due time.

struct RequestSample {
  double due_ms = 0.0;   ///< When the schedule said to send it.
  double sent_ms = 0.0;  ///< When the generator actually sent it.
  double done_ms = 0.0;  ///< When its response (or error) arrived.
  bool ok = false;       ///< Served OK and matched the expected results.

  /// How late the generator sent it (never negative).
  double lateness_ms() const { return std::max(0.0, sent_ms - due_ms); }
  /// Latency as the user sees it: from due time, +inf if it failed.
  double latency_ms() const {
    return ok ? done_ms - due_ms : std::numeric_limits<double>::infinity();
  }
};

/// Fixed-rate schedule: request k is due k / rate seconds after the start.
inline double due_ms(std::size_t k, double rate_per_s) {
  return 1000.0 * static_cast<double>(k) / rate_per_s;
}

/// A phase's requests ordered by due time, judged as one ladder step.
struct StepVerdict {
  double rate = 0.0;          ///< Offered rate (req/s).
  LatencySummary latency;     ///< From due time; failures as +inf.
  std::size_t failed = 0;
  double achieved_rps = 0.0;  ///< OK responses / (last done - first due).
  double late_max_ms = 0.0;   ///< Worst generator lateness.
  double backlog_ms = 0.0;    ///< Lateness growth, see lateness_growth_ms.
  bool backlog = false;
  bool passed = false;
};

/// How much the generator's lateness grew over a step: median lateness of
/// the last quarter of requests (by due time) minus that of the first
/// quarter. A server that keeps up holds it near zero; a backlog makes it
/// grow with the step's length. `samples` must be ordered by due time.
inline double lateness_growth_ms(const std::vector<RequestSample>& samples) {
  const std::size_t q = samples.size() / 4;
  if (q == 0) return 0.0;
  std::vector<double> head, tail;
  for (std::size_t i = 0; i < q; ++i) {
    head.push_back(samples[i].lateness_ms());
    tail.push_back(samples[samples.size() - q + i].lateness_ms());
  }
  return median(tail) - median(head);
}

/// Judge one rate against a tail latency limit. A rate may be measured in
/// several parts (separate open-loop schedules at the same rate, each
/// ordered by due time); latency and failures pool across parts, lateness
/// growth is the worst part's, and the achieved rate divides OK responses
/// by the parts' summed spans. Passes when the tail (p99 at >= 1000
/// samples) meets `limit_ms`, at most `max_fail_frac` of requests failed,
/// and lateness grew by no more than `backlog_limit_ms`.
inline StepVerdict judge_step(
    const std::vector<std::vector<RequestSample>>& parts, double rate,
    double limit_ms, double max_fail_frac, double backlog_limit_ms) {
  StepVerdict v;
  v.rate = rate;
  std::vector<double> lat;
  std::size_t ok = 0;
  double span_ms = 0.0;
  for (const auto& samples : parts) {
    if (samples.empty()) continue;
    double first_due = std::numeric_limits<double>::infinity();
    double last_done = 0.0;
    for (const auto& s : samples) {
      lat.push_back(s.latency_ms());
      first_due = std::min(first_due, s.due_ms);
      last_done = std::max(last_done, s.done_ms);
      v.late_max_ms = std::max(v.late_max_ms, s.lateness_ms());
      if (s.ok) ++ok;
    }
    span_ms += std::max(0.0, last_done - first_due);
    v.backlog_ms = std::max(v.backlog_ms, lateness_growth_ms(samples));
  }
  const std::size_t n = lat.size();
  v.failed = n - ok;
  v.latency = summarize(std::move(lat));
  v.achieved_rps =
      span_ms > 0.0 ? 1000.0 * static_cast<double>(ok) / span_ms : 0.0;
  v.backlog = v.backlog_ms > backlog_limit_ms;
  const double fail_frac =
      n == 0 ? 1.0 : static_cast<double>(v.failed) / static_cast<double>(n);
  v.passed = n > 0 && v.latency.tail <= limit_ms &&
             fail_frac <= max_fail_frac && !v.backlog;
  return v;
}

/// The ladder's answer: the achieved rate of the highest step before the
/// first failing one (steps in ascending offered rate); 0 if the first
/// step already fails.
inline double max_passing_rps(const std::vector<StepVerdict>& steps) {
  double best = 0.0;
  for (const auto& s : steps) {
    if (!s.passed) break;
    best = s.achieved_rps;
  }
  return best;
}

}  // namespace perfbench
