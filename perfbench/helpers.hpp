// Pure helpers of the ALF deploy-path benchmark: the seeded request
// schedule, percentile choice, goodput counting, replay self time, spans
// and the result line. Nothing here touches the program under test, so the
// self-test (selftest.cpp) checks these without building libalf, and a
// change to the library can never change the inputs the benchmark makes.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: the benchmark's own generator, so inputs depend only on
/// the seed and never on the library's Rng.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : s_(seed) {}
  uint64_t next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n), n > 0.
  uint64_t below(uint64_t n) { return next() % n; }

 private:
  uint64_t s_;
};

/// Derives an independent stream seed for one purpose of one run.
inline uint64_t derive_seed(uint64_t seed, uint64_t purpose) {
  SplitMix m(seed ^ (purpose * 0xD1B54A32D192ED03ull));
  return m.next();
}

/// One request of an open-loop schedule.
struct Req {
  double t_s = 0.0;    ///< intended send instant, seconds from the start
  uint32_t model = 0;  ///< index into the workload's model list
  uint32_t n = 1;      ///< images in the request
  uint32_t start = 0;  ///< first pool image; the request is [start, start+n)
};

/// Traffic mix: models are picked uniformly; sizes by weight.
struct Mix {
  uint32_t models = 1;
  std::vector<std::pair<uint32_t, double>> sizes;  ///< (images, weight)
  uint32_t pool = 1;  ///< pool images; start is drawn in [0, pool - n]
};

/// Poisson arrivals at `rate_rps` over [0, duration_s): a pure function of
/// (seed, rate, duration, mix).
inline std::vector<Req> make_schedule(uint64_t seed, double rate_rps,
                                      double duration_s, const Mix& mix) {
  SplitMix rng(seed);
  double wsum = 0.0;
  for (const auto& s : mix.sizes) wsum += s.second;
  std::vector<Req> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate_rps;
    if (t >= duration_s) break;
    Req r;
    r.t_s = t;
    r.model = static_cast<uint32_t>(rng.below(mix.models));
    double pick = rng.uniform() * wsum;
    r.n = mix.sizes.back().first;
    for (const auto& s : mix.sizes) {
      if (pick < s.second) {
        r.n = s.first;
        break;
      }
      pick -= s.second;
    }
    r.start = static_cast<uint32_t>(rng.below(mix.pool - r.n + 1));
    out.push_back(r);
  }
  return out;
}

/// Nearest-rank percentile `p` (0 < p <= 100) of an ascending sample.
inline double nearest_rank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 *
                                              static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return nearest_rank(v, 50.0);
}

/// A tail percentile with the number of samples it rests on.
struct Tail {
  double pct = 0.0;    ///< the percentile reported
  double value = 0.0;  ///< its value
  size_t n = 0;        ///< samples
};

/// The highest percentile, at most `cap`, that leaves at least ten
/// samples beyond it: p99 needs 1000 samples, and a run with n samples
/// reports p = 100 * (n - 10) / n. Fewer than 20 samples give no tail.
inline Tail supported_tail(std::vector<double> v, double cap = 99.0) {
  Tail t;
  t.n = v.size();
  if (v.size() < 20) return t;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  t.pct = std::min(cap, 100.0 * (n - 10.0) / n);
  t.value = nearest_rank(v, t.pct);
  return t;
}

/// Outcome of one request as the generator saw it.
struct Outcome {
  bool answered = false;
  bool ok = false;       ///< kOk status
  bool correct = false;  ///< kOk and bit-identical to the reference
  double latency_ms = 0.0;  ///< intended send instant -> response
};

/// Requests answered correctly within `limit_ms`, per second of
/// `duration_s`. Sheds, errors, wrong outputs and late answers all miss.
/// (The benchmark passes twice the workload limit: see README.md.)
inline double goodput_rps(const std::vector<Outcome>& out, double limit_ms,
                          double duration_s) {
  size_t good = 0;
  for (const Outcome& o : out)
    if (o.answered && o.ok && o.correct && o.latency_ms <= limit_ms) ++good;
  return static_cast<double>(good) / duration_s;
}

/// Self time of a layer measured by replay: the outer replay's time minus
/// the inner replay's time for the same schedule, floored at 0.
inline double self_time(double outer_ms, double inner_ms) {
  return std::max(0.0, outer_ms - inner_ms);
}

/// Paired form for two replays of one schedule: the median over requests
/// answered in both of (outer - inner) latency, floored at 0. Pairing
/// keeps the model and size mix out of the difference, which two p50s of
/// a mixed schedule do not.
inline double paired_self_time(const std::vector<Outcome>& outer,
                               const std::vector<double>& inner_ms) {
  std::vector<double> d;
  for (size_t i = 0; i < outer.size() && i < inner_ms.size(); ++i)
    if (outer[i].ok && outer[i].correct && inner_ms[i] >= 0)
      d.push_back(outer[i].latency_ms - inner_ms[i]);
  return d.empty() ? 0.0 : self_time(median(d), 0.0);
}

/// One traced interval. Spans of one request share `req`.
struct Span {
  const char* name = "";
  uint64_t req = 0;
  int64_t parent = -1;  ///< index of the enclosing span, -1 at the root
  double t0_ms = 0.0;
  double t1_ms = 0.0;
};

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
inline std::string result_json(bool correct, uint64_t attempted,
                               uint64_t failed,
                               const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.10g", metrics[i].value);
    if (i) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace perfbench
