#ifndef FVAE_PERFBENCH_LOADGEN_H_
#define FVAE_PERFBENCH_LOADGEN_H_

// Accounting of the benchmark's open-loop load generator, kept free of
// sockets and clocks so loadgen_test.cc can drive it with synthetic
// timelines:
//   - percentiles that state whether their sample supports them;
//   - a book of in-flight requests matched by tag, timing every request
//     from the moment it was due to be sent;
//   - the verdict of one ladder rung and the max-rate ladder search.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that, one outlier decides the figure.
inline constexpr size_t kMinSamplesBeyond = 10;

struct Percentile {
  double value = 0.0;
  size_t samples = 0;
  /// Samples strictly after the percentile's rank.
  size_t beyond = 0;
  bool supported = false;
};

/// Nearest-rank percentile `p` (0..100] of `samples` (any order).
inline Percentile PercentileOf(std::vector<double> samples, double p) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const double exact = p / 100.0 * double(samples.size());
  size_t rank = size_t(std::ceil(exact));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  out.supported = out.beyond >= kMinSamplesBeyond;
  return out;
}

/// Median and quartiles with the same interpolation as Python's
/// statistics.quantiles(values, n=4) (the default "exclusive" method);
/// with fewer than two values every field is that value.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  size_t n = 0;
};

inline Quartiles QuartilesOf(std::vector<double> values) {
  Quartiles out;
  out.n = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  if (values.size() == 1) {
    out.q1 = out.median = out.q3 = values[0];
    return out;
  }
  const double m = double(values.size()) + 1.0;
  const auto cut = [&](int i) {
    const double pos = double(i) * m / 4.0;  // 1-based position
    const size_t j = std::clamp<size_t>(size_t(pos), 1, values.size() - 1);
    const double delta = pos - double(j);
    return values[j - 1] + (values[j] - values[j - 1]) * delta;
  };
  out.q1 = cut(1);
  out.median = cut(2);
  out.q3 = cut(3);
  return out;
}

/// In-flight requests of one open-loop phase. Request i of the phase has
/// sequence number i; responses carry it back (in the frame tag) in any
/// order. Timestamps are steady-clock nanoseconds; latencies and lags come
/// out in microseconds. Every latency runs from the request's due time, so
/// a stall of the generator or the server is charged to every request it
/// delays, not only to the one it hit.
class InflightBook {
 public:
  struct Entry {
    int64_t due_ns = 0;
    int64_t sent_ns = 0;
    /// Caller's payload index (the reference row to compare against).
    uint64_t item = 0;
    bool pending = false;
  };

  /// Room for sequence numbers [0, capacity); a later one grows the book.
  explicit InflightBook(size_t capacity) : entries_(capacity) {
    latency_us_.reserve(capacity);
    lag_us_.reserve(capacity);
  }

  void Sent(uint64_t seq, int64_t due_ns, int64_t sent_ns, uint64_t item) {
    if (seq >= entries_.size()) entries_.resize(seq + 1);
    entries_[seq] = Entry{due_ns, sent_ns, item, true};
    ++sent_;
    ++inflight_;
    lag_us_.push_back(double(sent_ns - due_ns) * 1e-3);
    peak_ = std::max(peak_, inflight_);
  }

  /// Matches a response by sequence number. nullopt for one that is not in
  /// flight (duplicate or unknown response), which the caller counts as a
  /// failure.
  std::optional<Entry> Complete(uint64_t seq, int64_t now_ns) {
    if (seq >= entries_.size() || !entries_[seq].pending) return std::nullopt;
    Entry& entry = entries_[seq];
    entry.pending = false;
    --inflight_;
    latency_us_.push_back(double(now_ns - entry.due_ns) * 1e-3);
    return entry;
  }

  size_t inflight() const { return inflight_; }
  size_t peak() const { return peak_; }
  uint64_t sent() const { return sent_; }
  const std::vector<double>& latency_us() const { return latency_us_; }
  const std::vector<double>& lag_us() const { return lag_us_; }

 private:
  std::vector<Entry> entries_;
  std::vector<double> latency_us_;
  std::vector<double> lag_us_;
  size_t inflight_ = 0;
  size_t peak_ = 0;
  uint64_t sent_ = 0;
};

/// A rung fails when more than this share of its requests failed.
inline constexpr double kMaxFailRatio = 0.001;
/// A run is invalid when the median lag over all its operating-rate
/// requests exceeds this share of the gap between consecutive due times:
/// the lag is part of every due-time latency, so beyond it the generator
/// would make up a visible part of p50. The median, because host
/// preemption of the client's vCPU delays a few percent of requests by
/// milliseconds without the generator falling behind; those stalls are
/// counted and reported.
inline constexpr double kMaxLagInGaps = 0.25;
/// The ladder search stops after this many consecutive failed rungs above
/// the best pass.
inline constexpr int kLadderStopAfterFailures = 2;
/// A failing rung runs this many more times before it counts as failed.
inline constexpr int kLadderRetries = 2;

/// What one phase at one offered rate observed.
struct RungStats {
  double rate = 0.0;
  uint64_t attempted = 0;
  /// Error statuses, refusals, missing responses and wrong embeddings.
  uint64_t failed = 0;
  /// The latency percentile the limit applies to (see RungPasses).
  Percentile p90_us;
  /// Median of how late requests left the generator after their due time.
  double lag_p50_us = 0.0;
  /// Mean in-flight count over the first and the second half of the
  /// phase's send window.
  double inflight_first_half = 0.0;
  double inflight_second_half = 0.0;
};

/// The backlog grows when the second half of the phase kept clearly more
/// requests in flight than the first: the server fell behind the offered
/// rate. The slack is what arrives within one latency limit, so bursts the
/// server absorbs within its limit do not count.
inline bool BacklogGrew(const RungStats& s, double latency_limit_us) {
  return s.inflight_second_half >
         1.5 * s.inflight_first_half + s.rate * latency_limit_us * 1e-6;
}

/// Whether the generator kept to its schedule closely enough for the
/// phase to measure the server rather than itself.
inline bool GeneratorKeptUp(const RungStats& s) {
  if (s.rate <= 0.0) return false;
  const double gap_us = 1e6 / s.rate;
  return s.lag_p50_us <= kMaxLagInGaps * gap_us;
}

/// A rung passes when its p90 is supported and within `latency_limit_us`,
/// at most kMaxFailRatio of its requests failed, and the backlog did not
/// grow. A generator that falls behind needs no check of its own here:
/// its lag is charged to every due-time latency, so a growing generator
/// backlog fails the limit. (At ladder rates of 100k/s and more the spinning
/// generator sends due requests in small batches, a median lag of a few
/// microseconds that GeneratorKeptUp would reject.) The limit applies to
/// p90, not p99: on the VMs this benchmark runs on, the host preempts vCPUs
/// often enough that more than 1% of requests wait on a preempted vCPU,
/// and a p99 limit measured the host (its spread across runs was about
/// 100% of its median).
inline bool RungPasses(const RungStats& s, double latency_limit_us) {
  if (s.attempted == 0 || !s.p90_us.supported) return false;
  if (s.p90_us.value > latency_limit_us) return false;
  if (double(s.failed) > kMaxFailRatio * double(s.attempted)) return false;
  return !BacklogGrew(s, latency_limit_us);
}

/// Search for the highest rate of the geometric ladder
/// base * ratio^k (k >= min_step) that passes. It starts at k = 0. A rung
/// that fails is run again, up to kLadderRetries more times, before it
/// counts as failed, so one stall of the machine does not fail it. While
/// rungs pass the search climbs; it stops after kLadderStopAfterFailures
/// consecutive failed rungs above the best pass. If k = 0 fails it descends
/// until a rung passes, and that rung is the answer.
class LadderSearch {
 public:
  LadderSearch(double base, double ratio, int min_step, int max_step)
      : base_(base), ratio_(ratio), min_step_(min_step), max_step_(max_step) {}

  bool done() const { return done_; }
  double Rate() const { return base_ * std::pow(ratio_, step_); }
  int step() const { return step_; }

  /// Records the verdict of one run of the rung at Rate() and moves to
  /// the next run: the same rung again after a failure with retries left,
  /// otherwise the next rung.
  void Report(bool passed) {
    if (done_) return;
    if (!passed && attempts_ < kLadderRetries) {
      ++attempts_;
      return;
    }
    attempts_ = 0;
    if (passed) {
      if (!has_best_ || step_ > best_step_) best_step_ = step_;
      has_best_ = true;
      failures_ = 0;
      // Descending, the rung above has already failed.
      if (descending_ || step_ >= max_step_) {
        done_ = true;
        return;
      }
      ++step_;
      return;
    }
    if (!has_best_) {
      // Nothing has passed yet: walk down the ladder.
      descending_ = true;
      if (step_ <= min_step_) {
        done_ = true;
        return;
      }
      --step_;
      return;
    }
    if (++failures_ >= kLadderStopAfterFailures || step_ >= max_step_) {
      done_ = true;
      return;
    }
    ++step_;
  }

  /// Highest passing step, if any rung passed.
  std::optional<int> best() const {
    return has_best_ ? std::optional<int>(best_step_) : std::nullopt;
  }

 private:
  double base_;
  double ratio_;
  int min_step_;
  int max_step_;
  int attempts_ = 0;  // retries spent on the current rung
  int step_ = 0;
  int failures_ = 0;
  bool descending_ = false;
  bool done_ = false;
  bool has_best_ = false;
  int best_step_ = 0;
};

}  // namespace perfbench

#endif  // FVAE_PERFBENCH_LOADGEN_H_
