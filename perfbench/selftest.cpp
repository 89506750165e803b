// Self-test of the benchmark's own helpers (helpers.hpp). Exits non-zero
// on the first failed check; run.py runs it before every measurement.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "helpers.hpp"

namespace {

int g_failed = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failed;
  }
}

bool same(const std::vector<perfbench::Req>& a,
          const std::vector<perfbench::Req>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i].t_s != b[i].t_s || a[i].model != b[i].model ||
        a[i].n != b[i].n || a[i].start != b[i].start)
      return false;
  return true;
}

void schedule_is_a_function_of_the_seed() {
  const perfbench::Mix mix{4, {{1, .2}, {2, .2}, {3, .2}, {4, .2}, {8, .2}},
                           64};
  const auto a = perfbench::make_schedule(7, 500, 2.0, mix);
  const auto b = perfbench::make_schedule(7, 500, 2.0, mix);
  const auto c = perfbench::make_schedule(8, 500, 2.0, mix);
  check(same(a, b), "same seed gives the same schedule");
  check(!same(a, c), "another seed gives another schedule");
  check(a.size() > 900 && a.size() < 1100, "Poisson count near rate * time");
  bool sorted = true, in_range = true;
  size_t eights = 0, models[4] = {};
  for (size_t i = 0; i < a.size(); ++i) {
    if (i && a[i].t_s < a[i - 1].t_s) sorted = false;
    if (a[i].t_s >= 2.0 || a[i].model >= 4 || a[i].start + a[i].n > 64)
      in_range = false;
    eights += a[i].n == 8;
    models[a[i].model]++;
  }
  check(sorted, "arrival instants ascend");
  check(in_range, "instants, models and pool ranges stay in bounds");
  check(eights > a.size() / 10 && eights < a.size() * 3 / 10,
        "size weights are honoured (20% carry 8 images)");
  for (size_t m : models)
    check(m > a.size() / 8, "routing is uniform over the models");
}

void tail_needs_ten_samples_beyond() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  perfbench::Tail t = perfbench::supported_tail(v);
  check(t.pct == 99.0 && t.value == 990.0 && t.n == 1000,
        "1000 samples support p99 with 10 beyond");
  v.resize(400);
  t = perfbench::supported_tail(v);
  check(t.pct == 97.5 && t.value == 390.0,
        "400 samples report p97.5, 10 samples beyond");
  size_t beyond = 0;
  for (double x : v) beyond += x > t.value;
  check(beyond == 10, "exactly ten samples lie beyond the reported tail");
  v.resize(19);
  check(perfbench::supported_tail(v).n == 19 &&
            perfbench::supported_tail(v).pct == 0.0,
        "fewer than 20 samples give no tail");
  v.assign(5000, 1.0);
  check(perfbench::supported_tail(v).pct == 99.0, "the tail is capped at p99");
}

void goodput_counts_sheds_and_late_answers_as_misses() {
  using perfbench::Outcome;
  std::vector<Outcome> out = {
      {true, true, true, 10.0},    // good
      {true, true, true, 50.0},    // exactly at the limit: good
      {true, true, true, 50.5},    // late
      {true, false, false, 1.0},   // shed / error frame
      {true, true, false, 1.0},    // wrong logits
      {false, false, false, 0.0},  // unanswered
  };
  check(perfbench::goodput_rps(out, 50.0, 2.0) == 1.0,
        "only correct kOk answers within the limit count");
}

void self_time_subtraction() {
  check(perfbench::self_time(5.0, 3.5) == 1.5, "outer minus inner");
  check(perfbench::self_time(3.0, 3.5) == 0.0, "floored at zero");
  using perfbench::Outcome;
  const std::vector<Outcome> outer = {{true, true, true, 5.0},
                                      {true, true, true, 9.0},
                                      {true, true, true, 4.0},
                                      {true, false, false, 1.0}};
  // Differences 1, 5, 1 (the shed request and the inner failure drop out).
  check(perfbench::paired_self_time(outer, {4.0, 4.0, 3.0, 0.5}) == 1.0,
        "paired self time is the median per-request difference");
  check(perfbench::paired_self_time(outer, {6.0, 10.0, -1.0, 0.0}) == 0.0,
        "paired self time is floored at zero and skips inner failures");
}

void result_line_shape() {
  const std::string j = perfbench::result_json(
      true, 3, 0, {{"setup_s", 0.25, "s"}, {"p50_ms", 1.5, "ms"}});
  check(j == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
             "\"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, "
             "\"p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}",
        "result line has exactly the four keys");
}

}  // namespace

int main() {
  schedule_is_a_function_of_the_seed();
  tail_needs_ten_samples_beyond();
  goodput_counts_sheds_and_late_answers_as_misses();
  self_time_subtraction();
  result_line_shape();
  if (g_failed == 0) std::fprintf(stderr, "selftest: all checks passed\n");
  return g_failed == 0 ? 0 : 1;
}
