#ifndef WHATIFBENCH_STATS_H_
#define WHATIFBENCH_STATS_H_

// Measurement rules shared by the load generator and its self-tests.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

namespace whatifbench {

/// A percentile is reported only when at least this many samples lie beyond
/// it; a p99 therefore needs 1,000 samples and a p90 needs 100.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile `q` (0 < q < 100) of `samples`, or nullopt when
/// fewer than kMinSamplesBeyond samples lie strictly above its rank.
inline std::optional<double> Percentile(std::vector<double> samples,
                                        double q) {
  const size_t n = samples.size();
  if (n == 0 || q <= 0 || q >= 100) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Plain median (no tail rule), for repeated layer timings.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// Marks the entries to measure from: those whose host steal is at most
/// `calm` or at most the lower quartile of the entries' steal (the quietest
/// quarter, ties kept), and then, while the marked entries hold fewer than
/// `min_answers` of their `answers`, the next quietest. The entries are a
/// class's seconds or a run's set-ups. Steal is the share of this guest's
/// vCPU time the hypervisor gave to other guests; on a shared host it
/// comes in bursts of tens of seconds, and the program's latencies rise
/// with it for reasons outside the program. On a calm host every entry is
/// kept.
inline std::vector<bool> QuietMask(const std::vector<double>& steal,
                                   const std::vector<uint64_t>& answers,
                                   uint64_t min_answers, double calm) {
  std::vector<bool> keep(steal.size(), false);
  if (steal.empty()) return keep;
  std::vector<size_t> order(steal.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  const double limit = std::max(calm, steal[order[(order.size() - 1) / 4]]);
  uint64_t kept = 0;
  for (size_t i : order) {
    if (steal[i] > limit && kept >= min_answers) break;
    keep[i] = true;
    kept += answers[i];
  }
  return keep;
}

/// Latencies and outcomes of one request class. A failed request counts as
/// an attempt and as an infinitely slow sample, so it misses every latency
/// limit instead of vanishing from the tail.
class RequestLog {
 public:
  /// A request answered at `done_s` after `latency_ms`.
  void Ok(double latency_ms, double done_s) {
    ++attempted_;
    samples_.push_back({done_s, latency_ms});
  }
  /// A transport error, a non-OK response or a malformed answer, noticed
  /// at `now_s`.
  void Fail(double now_s) {
    ++attempted_;
    ++failed_;
    samples_.push_back({now_s, std::numeric_limits<double>::infinity()});
  }
  /// A response that was logged with Ok but later disagreed with the local
  /// reference.
  void Mismatch() {
    ++failed_;
    for (Sample& s : samples_) {
      if (std::isfinite(s.latency_ms)) {
        s.latency_ms = std::numeric_limits<double>::infinity();
        break;
      }
    }
  }
  void Merge(const RequestLog& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  }
  /// The requests split by the second they completed in, second i of a
  /// window that starts at `start_s` being [start_s + i, start_s + i + 1);
  /// the last of the `seconds` also takes any completions after it.
  std::vector<RequestLog> BySecond(double start_s, size_t seconds) const {
    std::vector<RequestLog> out(seconds);
    if (seconds == 0) return out;
    for (const Sample& s : samples_) {
      const double offset = std::max(0.0, s.done_s - start_s);
      RequestLog& log = out[std::min(static_cast<size_t>(offset), seconds - 1)];
      ++log.attempted_;
      if (!std::isfinite(s.latency_ms)) ++log.failed_;
      log.samples_.push_back(s);
    }
    return out;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t succeeded() const { return attempted_ - failed_; }

  std::vector<double> latencies_ms() const {
    std::vector<double> out;
    for (const Sample& s : samples_) out.push_back(s.latency_ms);
    return out;
  }

  /// Percentile `q` as the median, over consecutive groups of at least
  /// `group` samples in completion order, of each group's percentile. A
  /// burst that slows one group moves one of many group values instead of
  /// the whole tail. With fewer than two whole groups it is the plain
  /// percentile of all samples; either way the percentile rule holds in
  /// every group.
  std::optional<double> GroupedPercentile(double q, size_t group) const {
    std::vector<Sample> ordered = samples_;
    std::sort(ordered.begin(), ordered.end(),
              [](const Sample& a, const Sample& b) { return a.done_s < b.done_s; });
    const size_t groups = group == 0 ? 0 : ordered.size() / group;
    if (groups < 2) return Percentile(latencies_ms(), q);
    std::vector<double> values;
    for (size_t g = 0; g < groups; ++g) {
      // The last group takes the remainder.
      const size_t begin = g * group;
      const size_t end = g + 1 == groups ? ordered.size() : begin + group;
      std::vector<double> latencies;
      for (size_t i = begin; i < end; ++i) {
        latencies.push_back(ordered[i].latency_ms);
      }
      std::optional<double> v = Percentile(std::move(latencies), q);
      if (!v) return std::nullopt;
      values.push_back(*v);
    }
    return Median(std::move(values));
  }

 private:
  struct Sample {
    double done_s;
    double latency_ms;
  };
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Sample> samples_;
};

/// Open-loop accounting: request i is due at start + i / rate, whether or
/// not the previous request on its connection has finished. Latency runs
/// from the due time, so a stall also charges the requests queued behind
/// it; lag is how late the generator actually sent.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double start_s, double rate_per_s)
      : start_s_(start_s), interval_s_(1.0 / rate_per_s) {}
  double Due(uint64_t index) const {
    return start_s_ + static_cast<double>(index) * interval_s_;
  }
  static double LatencyMs(double due_s, double done_s) {
    return (done_s - due_s) * 1e3;
  }
  static double LagMs(double due_s, double sent_s) {
    return std::max(0.0, sent_s - due_s) * 1e3;
  }

 private:
  double start_s_;
  double interval_s_;
};

}  // namespace whatifbench

#endif  // WHATIFBENCH_STATS_H_
