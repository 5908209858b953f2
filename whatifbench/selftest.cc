// Self-tests of the benchmark's measurement rules on synthetic samples:
// the percentile rule, due-time latency accounting in the open loop,
// failure counting and the calm-second selection.
// Exits nonzero on the first broken rule.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace whatifbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void PercentileRule() {
  Expect(Percentile(OneTo(1000), 99).has_value() &&
             *Percentile(OneTo(1000), 99) == 990.0,
         "p99 of 1..1000 is 990 (ten samples beyond)");
  Expect(!Percentile(OneTo(999), 99).has_value(),
         "p99 of 999 samples is withheld (nine beyond)");
  Expect(Percentile(OneTo(100), 90).has_value() &&
             *Percentile(OneTo(100), 90) == 90.0,
         "p90 of 1..100 is 90");
  Expect(!Percentile(OneTo(99), 90).has_value(),
         "p90 of 99 samples is withheld");
  Expect(Percentile(OneTo(20), 50).has_value() &&
             *Percentile(OneTo(20), 50) == 10.0,
         "median of 1..20 is 10");
  Expect(!Percentile(OneTo(19), 50).has_value(),
         "median of 19 samples is withheld (nine beyond)");
  Expect(!Percentile({}, 50).has_value(), "no samples, no percentile");
  Expect(Median({3.0, 1.0, 2.0, 10.0}) == 2.5, "median of four averages");
}

void OpenLoopAccounting() {
  // 10 requests/s on one blocking connection; the first response takes
  // 0.5 s, every later one 0.01 s.
  OpenLoopSchedule schedule(100.0, 10.0);
  Expect(schedule.Due(0) == 100.0 && std::fabs(schedule.Due(3) - 100.3) < 1e-12,
         "request i is due at start + i/rate");
  double free_at = 100.0;
  std::vector<double> latency, lag;
  for (int i = 0; i < 10; ++i) {
    const double due = schedule.Due(i);
    const double sent = std::max(due, free_at);
    const double done = sent + (i == 0 ? 0.5 : 0.01);
    free_at = done;
    latency.push_back(OpenLoopSchedule::LatencyMs(due, done));
    lag.push_back(OpenLoopSchedule::LagMs(due, sent));
  }
  // Request 1 was due at 100.1 but could only go out at 100.5: from its
  // due time it took 410 ms, not the 10 ms its service took.
  Expect(std::fabs(latency[1] - 410.0) < 1e-6,
         "a stall is charged to the request queued behind it");
  Expect(std::fabs(lag[1] - 400.0) < 1e-6, "lag is send time minus due time");
  Expect(std::fabs(latency[9] - 10.0) < 1e-6 && lag[9] == 0.0,
         "once the backlog drains, latency is service time again");
  Expect(OpenLoopSchedule::LagMs(5.0, 4.0) == 0.0, "early sends have no lag");
}

void FailureCounting() {
  RequestLog a;
  for (int i = 0; i < 98; ++i) a.Ok(1.0, i);
  a.Fail(98);
  a.Fail(99);
  Expect(a.attempted() == 100 && a.failed() == 2 && a.succeeded() == 98,
         "failures count against attempts");
  // 2 of 100 samples are infinite, so the p90 is still finite but a p99
  // over 1,000 such samples would not be.
  Expect(*Percentile(a.latencies_ms(), 90) == 1.0,
         "failed requests sit beyond the p90");
  RequestLog b;
  for (int i = 0; i < 1000; ++i) b.Ok(1.0, i);
  for (int i = 0; i < 11; ++i) b.Mismatch();
  Expect(b.attempted() == 1000 && b.failed() == 11,
         "a reference mismatch fails a request already logged");
  Expect(std::isinf(*Percentile(b.latencies_ms(), 99)),
         "mismatched requests miss every latency limit");
  RequestLog merged;
  merged.Merge(a);
  merged.Merge(b);
  Expect(merged.attempted() == 1100 && merged.failed() == 13,
         "merging per-thread logs adds attempts and failures");
}

void GroupedTail() {
  // 5,000 requests at 1 ms, except that the second thousand (by completion
  // time) ran into a burst and took 50 ms each.
  RequestLog log;
  for (int i = 0; i < 5000; ++i) {
    log.Ok(i >= 1000 && i < 2000 ? 50.0 : 1.0, 100.0 + i * 0.001);
  }
  Expect(*Percentile(log.latencies_ms(), 99) == 50.0,
         "a burst owns the pooled p99");
  Expect(*log.GroupedPercentile(99, 1000) == 1.0,
         "the grouped p99 is the typical group's p99");
  RequestLog few;
  for (int i = 0; i < 1500; ++i) few.Ok(i < 20 ? 9.0 : 1.0, i);
  Expect(*few.GroupedPercentile(99, 1000) == 9.0 &&
             few.GroupedPercentile(99, 1000) ==
                 Percentile(few.latencies_ms(), 99),
         "under two whole groups the grouped p99 is the pooled p99");
  RequestLog short_log;
  for (int i = 0; i < 999; ++i) short_log.Ok(1.0, i);
  Expect(!short_log.GroupedPercentile(99, 1000).has_value(),
         "the percentile rule still withholds a short tail");
}

void CalmSeconds() {
  // Steal per second of an 8 s window: a burst in seconds 2-5.
  const std::vector<double> steal = {0, 1, 40, 90, 60, 30, 1, 2};
  const std::vector<uint64_t> answers(8, 10);
  Expect(QuietMask(steal, answers, 0, 5) ==
             std::vector<bool>(
                 {true, true, false, false, false, false, true, true}),
         "the calm seconds are kept");
  Expect(QuietMask(steal, answers, 0, 0) ==
             std::vector<bool>(
                 {true, true, false, false, false, false, true, false}),
         "on a busy host, the seconds at or under the lower quartile are kept");
  Expect(QuietMask(steal, answers, 45, 0) ==
             std::vector<bool>(
                 {true, true, false, false, false, true, true, true}),
         "too few answers there adds the next quietest seconds");
  Expect(QuietMask({5, 0, 0}, {1, 1, 1}, 0, 0) ==
             std::vector<bool>({false, true, true}),
         "ties at the quartile are kept");
  Expect(QuietMask({7}, {0}, 0, 0) == std::vector<bool>({true}) &&
             QuietMask({}, {}, 0, 0).empty(),
         "a single second is always kept");
  RequestLog log;
  for (int i = 0; i < 60; ++i) log.Ok(i, 10.05 + i * 0.1);
  log.Fail(12.5);
  log.Ok(99.0, 16.2);  // After the last whole second: counts in second 5.
  const std::vector<RequestLog> seconds = log.BySecond(10.0, 6);
  Expect(seconds.size() == 6 && seconds[0].attempted() == 10 &&
             seconds[0].latencies_ms().back() == 9.0 &&
             seconds[5].attempted() == 11 &&
             seconds[5].latencies_ms().back() == 99.0,
         "a request belongs to the second it completed in");
  Expect(seconds[2].attempted() == 11 && seconds[2].failed() == 1,
         "a failure stays a failure in its second");
  Expect(log.BySecond(10.0, 0).empty(), "no seconds, no requests");
}

}  // namespace
}  // namespace whatifbench

int main() {
  whatifbench::PercentileRule();
  whatifbench::OpenLoopAccounting();
  whatifbench::FailureCounting();
  whatifbench::GroupedTail();
  whatifbench::CalmSeconds();
  if (whatifbench::failures != 0) {
    std::printf("%d self-test(s) failed\n", whatifbench::failures);
    return 1;
  }
  std::printf("all self-tests passed\n");
  return 0;
}
