// ALF deploy-path benchmark. One run = one workload:
//
//   offline_b32  closed loop, in process: two inline workers cycle the four
//                paper-scale plans at batch 32 through ExecContext.
//   wire_tiny    open-loop Poisson single-image requests over ALFN to a
//                real alf_served, reduced-scale models.
//   wire_mixed   open-loop Poisson 1-8 image requests over ALFN to a real
//                alf_served, paper-scale models.
//
// Every workload serves the same four models side by side (dense and ALF
// ResNet-20, f32 and int8), because the paper's deployment is ALF served
// beside the dense net. Weights, inputs, arrivals, sizes and routing come
// from --seed. Every output is compared bit for bit with reference logits
// computed from the saved blobs before timing.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the separate
// traced run, which times each layer from outside (kernels, engine,
// plan_io, serve, net) with spans around the benchmark's own calls. The
// last stdout line is the JSON result either way. See README.md.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "alf/alf_conv.hpp"
#include "alf/deploy.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "engine/exec_context.hpp"
#include "engine/plan.hpp"
#include "engine/plan_io.hpp"
#include "helpers.hpp"
#include "hwmodel/mapper.hpp"
#include "kernels/backend.hpp"
#include "models/cost.hpp"
#include "models/zoo.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "serve/model_server.hpp"

extern char** environ;

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using perfbench::Metric;
using perfbench::Mix;
using perfbench::Outcome;
using perfbench::Req;
using perfbench::Span;
using perfbench::SplitMix;
using perfbench::derive_seed;
using perfbench::median;
using perfbench::supported_tail;

namespace {

// ---------------------------------------------------------------------------
// Workloads. The rates are absolute, so two commits are always compared at
// the same offered load (a rate relative to measured capacity would move
// with the code under test).
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  bool wire;
  size_t hw;     ///< input height = width
  size_t width;  ///< ResNet-20 base width
  Mix mix;       ///< request sizes and routing (wire), pool size (all)
  double low_rps = 0, over_rps = 0, limit_ms = 0;
  double warm_s = 0;       ///< unmeasured warm-up at the low rate
  double replay_rps = 0;   ///< traced replays: offered rate
  double replay_s = 0;     ///< traced replays: schedule length
};

constexpr size_t kBatch = 32;
constexpr size_t kWorkers = 2;      // offline workers = alf_served --workers
constexpr size_t kSetupRepeats = 5;  // setup_s is the median of these
constexpr size_t kPool = 64;        // seeded input images per run
constexpr size_t kModels = 4;
constexpr double kLowShare = 0.6;    // share of a wire run at the low rate
const char* const kModelNames[kModels] = {"resnet20_f32", "resnet20_int8",
                                          "alf_resnet20_f32",
                                          "alf_resnet20_int8"};

Workload workload_by_name(const std::string& name) {
  Workload w{};
  w.name = nullptr;
  if (name == "offline_b32") {
    w = {"offline_b32", false, 32, 16, {kModels, {{kBatch, 1.0}}, kPool}};
    // Traced replays send whole batches through serve and net at a rate
    // well under the two-worker batch-32 capacity (~18 batches/s here).
    w.replay_rps = 6;
    w.replay_s = 5;
  } else if (name == "wire_tiny") {
    w = {"wire_tiny", true, 16, 8, {kModels, {{1, 1.0}}, kPool}};
    // Saturation measured ~3.1k req/s on a 4-core x86 VM.
    w.low_rps = 1000;
    w.over_rps = 5000;
    w.limit_ms = 50;
    w.warm_s = 0.5;
    w.replay_rps = 1000;
    w.replay_s = 2;
  } else if (name == "wire_mixed") {
    w = {"wire_mixed",
         true,
         32,
         16,
         {kModels, {{1, .2}, {2, .2}, {3, .2}, {4, .2}, {8, .2}}, kPool}};
    // Saturation measured ~150 req/s on a 4-core x86 VM: low is ~30% of
    // it, over ~140%.
    w.low_rps = 45;
    w.over_rps = 210;
    w.limit_ms = 250;
    w.warm_s = 1.0;
    w.replay_rps = 45;
    w.replay_s = 6;
  }
  return w;
}

// ---------------------------------------------------------------------------
// Small utilities.
// ---------------------------------------------------------------------------

const Clock::time_point g_epoch = Clock::now();

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
double now_ms() { return ms_between(g_epoch, Clock::now()); }

/// Median wall time (ms) of `fn` over `samples` calls after one warm-up.
template <typename Fn>
double median_ms(size_t samples, Fn&& fn) {
  fn();
  std::vector<double> t;
  for (size_t i = 0; i < samples; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(ms_between(t0, Clock::now()));
  }
  return median(t);
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

double loadavg1() {
  double l = -1;
  if (FILE* f = std::fopen("/proc/loadavg", "r")) {
    if (std::fscanf(f, "%lf", &l) != 1) l = -1;
    std::fclose(f);
  }
  return l;
}

double tv_s(const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; }

/// Host CPU time stolen by the hypervisor, and all CPU time, in ticks.
std::pair<double, double> steal_ticks() {
  double v[8] = {};
  if (FILE* f = std::fopen("/proc/stat", "r")) {
    if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1],
                    &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) != 8)
      v[7] = 0;
    std::fclose(f);
  }
  double total = 0;
  for (double x : v) total += x;
  return {v[7], total};
}

/// Where each busy thread runs. Unpinned, the scheduler's placement of
/// alf_served's three busy threads (the epoll loop and two workers) and the
/// generator's threads split identical wire_tiny runs into a fast and a
/// slow mode (p50 0.9 vs 1.3 ms, p99 2 vs 5 ms, 30x the involuntary
/// context switches); pinning the server into 3 CPUs as a whole did not
/// remove it. With at least 4 allowed CPUs each busy thread therefore gets
/// its own: the epoll loop `net`, the two serving workers (alf_served's, or
/// the in-process ModelServer's, or the offline workers) `worker[0..1]`,
/// and the benchmark's load generator `gen`. Smaller hosts run unpinned.
struct CpuLayout {
  bool on = false;
  int net = 0, worker[2] = {0, 0}, gen = 0;
};

const CpuLayout& cpu_layout() {
  static const CpuLayout layout = [] {
    CpuLayout l;
    cpu_set_t set;
    if (::sched_getaffinity(0, sizeof(set), &set) != 0) return l;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    if (cpus.size() < 4) return l;
    l = {true, cpus[0], {cpus[1], cpus[2]}, cpus[3]};
    return l;
  }();
  return layout;
}

/// Pins thread `tid` (0 = the calling thread) to `cpus`.
void pin_task(pid_t tid, std::initializer_list<int> cpus) {
  if (!cpu_layout().on) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  ::sched_setaffinity(tid, sizeof(set), &set);
}

/// Thread ids of process `pid`, ascending.
std::vector<pid_t> task_ids(pid_t pid) {
  std::vector<pid_t> out;
  for (const auto& e : fs::directory_iterator(
           "/proc/" + std::to_string(pid) + "/task"))
    out.push_back(static_cast<pid_t>(std::stol(e.path().filename())));
  std::sort(out.begin(), out.end());
  return out;
}

/// Pins the calling thread (and the threads and processes it starts) to
/// `cpus` until destroyed.
class CpuPin {
 public:
  explicit CpuPin(std::initializer_list<int> cpus) {
    if (!cpu_layout().on ||
        ::sched_getaffinity(0, sizeof(saved_), &saved_) != 0)
      return;
    pin_task(0, cpus);
    active_ = true;
  }
  ~CpuPin() {
    if (active_) ::sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool active_ = false;
};

/// Spans are appended per thread and merged when the run ends.
class Tracer {
 public:
  /// Adds a group whose `parent` fields index into the group itself.
  void add(std::vector<Span>&& part) {
    std::lock_guard<std::mutex> lk(m_);
    const int64_t base = static_cast<int64_t>(spans_.size());
    for (Span& s : part) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(s);
    }
  }
  void add(const Span& s) {
    std::lock_guard<std::mutex> lk(m_);
    spans_.push_back(s);
  }
  size_t size() const { return spans_.size(); }
  /// Writes every span as one JSON line (name, req, parent, t0, t1 in ms).
  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    for (const Span& s : spans_)
      std::fprintf(f,
                   "{\"name\": \"%s\", \"req\": %llu, \"parent\": %lld, "
                   "\"t0_ms\": %.4f, \"t1_ms\": %.4f}\n",
                   s.name, static_cast<unsigned long long>(s.req),
                   static_cast<long long>(s.parent), s.t0_ms, s.t1_ms);
    std::fclose(f);
  }

 private:
  std::mutex m_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Program under test: models, plans, blobs and reference logits.
// ---------------------------------------------------------------------------

std::string f32_backend() {
  return alf::kernels::find_backend("simd") != nullptr ? "simd" : "scalar";
}

alf::EngineOptions options_for(size_t model) {
  alf::EngineOptions o;
  o.backend = (model % 2 == 1) ? "int8" : f32_backend();
  o.tune = alf::TuneMode::kHeuristic;
  o.name = kModelNames[model];
  return o;
}

void warm_bn(alf::Sequential& m, size_t hw, alf::Rng& rng) {
  for (int p = 0; p < 2; ++p) {
    alf::Tensor x({8, 3, hw, hw});
    for (size_t i = 0; i < x.numel(); ++i)
      x.at(i) = static_cast<float>(rng.uniform(-1.0, 1.0));
    m.forward(x, /*train=*/true);
  }
}

struct Nets {
  std::unique_ptr<alf::Sequential> dense, alf;
  std::map<std::string, double> alf_fracs;  ///< code filters kept per conv
  const alf::Sequential& net(size_t model) const {
    return model < 2 ? *dense : *alf;
  }
};

/// Dense ResNet-20 and ALF ResNet-20 keeping every third code filter (the
/// mask pattern bench/bench_engine.cpp uses), seeded from `seed`.
Nets build_nets(const Workload& w, uint64_t seed) {
  alf::Rng rng(derive_seed(seed, 1));
  alf::ModelConfig mc;
  mc.base_width = w.width;
  mc.in_hw = w.hw;
  Nets n;
  n.dense = alf::build_resnet20(mc, rng, alf::standard_conv_maker(mc.init, &rng));
  alf::AlfConfig acfg;
  std::vector<alf::AlfConv*> blocks;
  n.alf = alf::build_resnet20(mc, rng,
                              alf::make_alf_conv_maker(acfg, &rng, &blocks));
  for (alf::AlfConv* b : blocks) {
    alf::Tensor& mask = b->mask();
    for (size_t i = 0; i < mask.numel(); ++i)
      if (i % 3 != 0) mask.at(i) = 0.0f;
    n.alf_fracs[b->name()] = b->remaining_fraction();
  }
  warm_bn(*n.dense, w.hw, rng);
  warm_bn(*n.alf, w.hw, rng);
  return n;
}

using PlanPtr = std::shared_ptr<const alf::Plan>;

PlanPtr compile_plan(const Nets& nets, const Workload& w, size_t model) {
  return alf::Plan::compile(nets.net(model), kBatch, 3, w.hw, w.hw,
                            options_for(model));
}

/// Offline batches start at one of these pool images, so every offline
/// batch has a reference computed with the same batch packing.
constexpr size_t kOfflineStarts[] = {0, 8, 16, kPool - kBatch};

/// Everything a run compares against, made before any timing.
struct Prep {
  Workload w;
  Nets nets;
  std::string dir;       ///< per-run scratch directory
  std::string plan_dir;  ///< the workload's blobs (what alf_served serves)
  std::vector<float> pool;  ///< kPool images
  size_t image_floats = 0;
  size_t classes = 0;
  std::vector<PlanPtr> loaded;              ///< plan::load of each blob
  std::vector<std::vector<float>> ref;      ///< [model][kPool * classes]
  /// [model][start index] batch-32 logits at kOfflineStarts.
  std::vector<std::vector<std::vector<float>>> batch_ref;
  mutable std::atomic<size_t> ulp_mismatch{0};  ///< f32 rows off by rounding

  const float* image(size_t i) const { return pool.data() + i * image_floats; }
  /// Offline: the batch must equal the same-packing reference bit for bit.
  bool batch_matches(size_t model, size_t start_idx, const float* got) const {
    return std::memcmp(got, batch_ref[model][start_idx].data(),
                       kBatch * classes * sizeof(float)) == 0;
  }
  /// Served rows against the one-image references. int8 must match bit
  /// for bit. f32 rows from the simd backend depend on the batch packing
  /// the server chose (last-bit rounding), which breaks the stated
  /// contract; they are counted in ulp_mismatch and accepted only within
  /// 1e-4 relative.
  bool matches(size_t model, size_t start, size_t n, const float* got) const {
    const float* want = ref[model].data() + start * classes;
    if (std::memcmp(got, want, n * classes * sizeof(float)) == 0) return true;
    if (loaded[model]->quantized()) return false;
    for (size_t i = 0; i < n * classes; ++i)
      if (!(std::fabs(got[i] - want[i]) <=
            1e-4f * std::max(1.0f, std::fabs(want[i]))))
        return false;
    ulp_mismatch.fetch_add(1);
    return true;
  }
};

void prepare(Prep& p, const Workload& w, uint64_t seed,
             const std::string& work) {
  p.w = w;
  p.nets = build_nets(w, seed);
  p.dir = work + "/run-" + std::to_string(::getpid());
  p.plan_dir = p.dir + "/plans";
  fs::remove_all(p.dir);
  fs::create_directories(p.plan_dir);
  p.image_floats = 3 * w.hw * w.hw;
  p.pool.resize(kPool * p.image_floats);
  SplitMix rng(derive_seed(seed, 2));
  for (float& v : p.pool) v = static_cast<float>(2.0 * rng.uniform() - 1.0);
  // alf_planc's zoo has no ALF model, so the benchmark writes its own
  // blobs; references come from the loaded blobs, one image at a time.
  for (size_t m = 0; m < kModels; ++m) {
    const std::string path = p.plan_dir + "/" + kModelNames[m] + ".plan";
    alf::plan::save(*compile_plan(p.nets, w, m), path);
    p.loaded.push_back(alf::plan::load(path));
  }
  p.classes = p.loaded[0]->classes();
  p.ref.assign(kModels, std::vector<float>(kPool * p.classes));
  std::vector<std::thread> th;
  for (size_t m = 0; m < kModels; ++m)
    th.emplace_back([&p, m] {
      alf::InlineExecutionGuard g;
      alf::ExecContext ctx(p.loaded[m]);
      for (size_t i = 0; i < kPool; ++i)
        ctx.run_rows(p.image(i), 1, p.ref[m].data() + i * p.classes);
    });
  for (auto& t : th) t.join();
  th.clear();
  p.batch_ref.assign(kModels, {});
  for (size_t m = 0; m < kModels; ++m)
    th.emplace_back([&p, m] {
      alf::InlineExecutionGuard g;
      alf::ExecContext ctx(p.loaded[m]);
      for (size_t start : kOfflineStarts) {
        std::vector<float> out(kBatch * p.classes);
        ctx.run_rows(p.image(start), kBatch, out.data());
        p.batch_ref[m].push_back(std::move(out));
      }
    });
  for (auto& t : th) t.join();
}

// ---------------------------------------------------------------------------
// What exactly was measured.
// ---------------------------------------------------------------------------

void print_pin(const Prep& p) {
  namespace k = alf::kernels;
  std::printf("pin: workload=%s scale=%zux%zux%zu width=%zu batch=%zu "
              "threads=%d tune=heuristic",
              p.w.name, size_t{3}, p.w.hw, p.w.hw, p.w.width, kBatch,
              alf::parallel_threads());
  for (size_t m = 0; m < kModels; ++m)
    std::printf(" %s.backend=%s", kModelNames[m], p.loaded[m]->backend_name());
  std::printf(" qgemm=%s cpu_allowed=%s\n", k::best_quantized_backend()->name,
              k::cpu_feature_names(k::allowed_cpu_features()).c_str());
}

// ---------------------------------------------------------------------------
// Offline: two inline workers, each with its own ExecContext per plan.
// ---------------------------------------------------------------------------

struct BatchRec {
  size_t model;
  double t0_ms, t1_ms;
  bool ok;
};

/// Runs the closed loop for `seconds`; each worker cycles the plans
/// starting at a different one. Records one BatchRec per batch.
std::vector<BatchRec> offline_loop(
    const Prep& p, std::vector<std::vector<alf::ExecContext>>& ctx,
    uint64_t seed, double seconds) {
  std::vector<std::vector<BatchRec>> part(kWorkers);
  std::vector<std::thread> th;
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  for (size_t wi = 0; wi < kWorkers; ++wi) {
    th.emplace_back([&, wi] {
      pin_task(0, {cpu_layout().worker[wi]});
      alf::InlineExecutionGuard g;
      SplitMix rng(derive_seed(seed, 10 + wi));
      std::vector<float> out(kBatch * p.classes);
      // One unrecorded round warms every context of this worker.
      for (size_t m = 0; m < kModels; ++m)
        ctx[wi][m].run_rows(p.image(0), kBatch, out.data());
      for (size_t i = wi * 2;; ++i) {
        const size_t m = i % kModels;
        const size_t si = rng.below(std::size(kOfflineStarts));
        const double t0 = now_ms();
        ctx[wi][m].run_rows(p.image(kOfflineStarts[si]), kBatch, out.data());
        const double t1 = now_ms();
        part[wi].push_back({m, t0, t1, p.batch_matches(m, si, out.data())});
        if (Clock::now() >= end) break;
      }
    });
  }
  for (auto& t : th) t.join();
  std::vector<BatchRec> all;
  for (auto& v : part) all.insert(all.end(), v.begin(), v.end());
  return all;
}

struct OfflineSetup {
  std::vector<std::vector<alf::ExecContext>> ctx;  ///< [worker][model]
  double seconds = 0;
  bool first_ok = false;
};

/// Compile the 4 plans, build every worker's contexts, run and check the
/// first forward.
OfflineSetup offline_setup(const Prep& p) {
  OfflineSetup s;
  const auto t0 = Clock::now();
  std::vector<PlanPtr> plans;
  for (size_t m = 0; m < kModels; ++m)
    plans.push_back(compile_plan(p.nets, p.w, m));
  s.ctx.resize(kWorkers);
  for (size_t wi = 0; wi < kWorkers; ++wi)
    for (size_t m = 0; m < kModels; ++m) s.ctx[wi].emplace_back(plans[m]);
  std::vector<float> out(kBatch * p.classes);
  s.ctx[0][0].run_rows(p.image(0), kBatch, out.data());
  s.seconds = ms_between(t0, Clock::now()) / 1e3;
  s.first_ok = p.batch_matches(0, 0, out.data());
  return s;
}

struct Envelope {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  void add(const std::string& name, double v, const char* unit) {
    metrics.push_back({name, v, unit});
  }
};

/// Per-plan median batch time (ms) and the supported tail of each.
struct PlanTimes {
  double med[kModels] = {};
  double tail[kModels] = {};
};

PlanTimes plan_times(const std::vector<BatchRec>& recs) {
  PlanTimes t;
  for (size_t m = 0; m < kModels; ++m) {
    std::vector<double> d;
    for (const BatchRec& r : recs)
      if (r.model == m) d.push_back(r.t1_ms - r.t0_ms);
    t.med[m] = median(d);
    t.tail[m] = supported_tail(d).value;
  }
  return t;
}

void run_offline(const Prep& p, uint64_t seed, double seconds, Envelope& env) {
  // The run is cut into kSetupRepeats segments, each on a freshly set-up
  // plan set: one set's memory placement held a whole run 10-20% fast or
  // slow, so segments average over placements as well as timing set-up.
  std::vector<double> setups;
  std::vector<BatchRec> recs;
  for (size_t k = 0; k < kSetupRepeats; ++k) {
    OfflineSetup s = offline_setup(p);
    setups.push_back(s.seconds);
    env.attempted++;
    if (!s.first_ok) {
      env.failed++;
      env.correct = false;
    }
    const std::vector<BatchRec> part = offline_loop(
        p, s.ctx, derive_seed(seed, k), seconds / kSetupRepeats);
    recs.insert(recs.end(), part.begin(), part.end());
  }
  size_t bad = 0;
  for (const BatchRec& r : recs) bad += r.ok ? 0 : 1;
  env.attempted += recs.size();
  env.failed += bad;
  if (bad > 0) env.correct = false;

  // Rates come from per-plan median batch times, so one preempted batch
  // cannot move them: kWorkers workers each finish kBatch images per
  // median batch time.
  const PlanTimes t = plan_times(recs);
  double cycle_ms = 0, med_sum = 0, tail_sum = 0;
  for (size_t m = 0; m < kModels; ++m) {
    cycle_ms += t.med[m];
    med_sum += t.med[m];
    tail_sum += t.tail[m];
  }
  const double ips = kWorkers * kBatch * kModels / (cycle_ms / 1e3);
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  env.add("setup_s", median(setups), "s");
  env.add("images_per_s", ips, "img/s");
  for (size_t m = 0; m < kModels; ++m)
    env.add(std::string("images_per_s.") + kModelNames[m],
            kWorkers * kBatch / (t.med[m] / 1e3), "img/s");
  env.add("p50_ms", med_sum / kModels, "ms");
  env.add("p99_ms", tail_sum / kModels, "ms");
  env.add("goodput_rps", ips / kBatch, "req/s");
  env.add("ok_frac",
          recs.empty() ? 0.0 : 1.0 - static_cast<double>(bad) / recs.size(),
          "ratio");
  env.add("peak_rss_mb", ru.ru_maxrss / 1024.0, "MiB");
  std::printf("offline: batches=%zu bad=%zu setup_s=[", recs.size(), bad);
  for (double x : setups) std::printf(" %.4f", x);
  std::printf(" ] batch_ms:");
  for (size_t m = 0; m < kModels; ++m)
    std::printf(" %s=%.3f/%.3f", kModelNames[m], t.med[m], t.tail[m]);
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// alf_served under test.
// ---------------------------------------------------------------------------

struct Drain {
  bool found = false;
  unsigned long long submitted = 0, ok = 0, shed = 0, rejected = 0,
                     orphaned = 0;
  bool identity() const { return found && submitted == ok + shed + orphaned; }
};

class Daemon {
 public:
  Daemon(const std::string& exe, const std::string& plan_dir,
         const std::string& log) : log_(log) {
    std::vector<std::string> args = {exe,         "--plan-dir", plan_dir,
                                     "--port",    "0",          "--shards",
                                     "1",         "--workers",
                                     std::to_string(kWorkers)};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    // The four ALF_* knobs are cleared so the daemon runs its defaults.
    std::vector<std::string> envs;
    for (char** e = environ; *e != nullptr; ++e) {
      const std::string kv = *e;
      if (kv.rfind("ALF_BACKEND=", 0) == 0 || kv.rfind("ALF_TUNE=", 0) == 0 ||
          kv.rfind("ALF_ALGO_CACHE=", 0) == 0 ||
          kv.rfind("ALF_CPU_DISABLE=", 0) == 0)
        continue;
      envs.push_back(kv);
    }
    std::vector<char*> envp;
    for (auto& e : envs) envp.push_back(e.data());
    envp.push_back(nullptr);
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    const pid_t parent = ::getpid();
    t_exec_ = Clock::now();
    pid_ = ::fork();
    if (pid_ == 0) {
      // Only async-signal-safe calls until execve. The daemon dies with
      // the benchmark even if the benchmark itself is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      const int logfd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (logfd < 0 || ::dup2(fds[1], 1) < 0 || ::dup2(logfd, 2) < 0)
        ::_exit(127);
      ::execve(exe.c_str(), argv.data(), envp.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (pid_ < 0) {
      ::close(out_fd_);
      throw std::runtime_error("cannot start " + exe);
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  Clock::time_point exec_time() const { return t_exec_; }
  pid_t pid() const { return pid_; }

  /// Reads the "ready port=N" line; throws on timeout or early exit.
  uint16_t wait_ready() {
    std::string line;
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < deadline) {
      pollfd pfd{out_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      char c;
      const ssize_t n = ::read(out_fd_, &c, 1);
      if (n <= 0) break;
      if (c != '\n') {
        line += c;
        continue;
      }
      const size_t at = line.find("ready port=");
      if (at != std::string::npos)
        return static_cast<uint16_t>(std::atoi(line.c_str() + at + 11));
      line.clear();
    }
    throw std::runtime_error("alf_served never printed its ready line");
  }

  /// SIGTERM, then wait (<= 60 s) for the drain. Returns the exit code
  /// (-1 if it had to be killed or died by a signal) and fills `ru`.
  int terminate(rusage* ru) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    int code = -1;
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    for (;;) {
      const pid_t r = ::wait4(pid_, &status, WNOHANG, ru);
      if (r == pid_) {
        code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        break;
      }
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::wait4(pid_, &status, 0, ru);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    return code;
  }

  Drain drain() const {
    Drain d;
    const std::string s = read_file(log_);
    const size_t at = s.rfind("drained:");
    if (at != std::string::npos)
      d.found = std::sscanf(s.c_str() + at,
                            "drained: submitted=%llu ok=%llu shed=%llu "
                            "rejected=%llu orphaned=%llu",
                            &d.submitted, &d.ok, &d.shed, &d.rejected,
                            &d.orphaned) == 5;
    return d;
  }

 private:
  std::string log_;
  pid_t pid_ = -1;
  int out_fd_ = -1;
  Clock::time_point t_exec_;
};

/// Exec to the first checked kOk response (plan::load plus every worker's
/// contexts happen in between). Returns seconds, or a negative value if
/// the first answer was not a correct kOk.
double first_ok_s(Daemon& d, uint16_t port, const Prep& p) {
  alf::net::WireClient c;
  c.connect(port);
  c.send(kModelNames[0], 0, alf::net::kMaxDeadlineUs, p.image(0), 1,
         p.image_floats);
  alf::net::WireClient::Response r;
  const int got = c.recv(&r, 60'000);
  const double s = ms_between(d.exec_time(), Clock::now()) / 1e3;
  const bool ok = got == 1 && r.status == alf::net::WireStatus::kOk &&
                  r.payload.size() == p.classes && p.matches(0, 0, 1, r.payload.data());
  return ok ? s : -1.0;
}

// ---------------------------------------------------------------------------
// Open-loop generator: one sender walks the schedule over two pipelined
// connections, one receiver per connection. Latency runs from each
// request's intended send instant, so a stalled sender or server shows.
// ---------------------------------------------------------------------------

struct WireRun {
  std::vector<Outcome> out;
  std::vector<double> lag_ms;   ///< actual - intended send instant
  std::vector<double> send_us;  ///< WireClient::send duration
  size_t shed = 0;     ///< kQueueFull / kDeadlineExpired answers
  size_t errors = 0;   ///< any other non-kOk answer
  size_t wrong = 0;    ///< kOk with logits that differ from the reference
  size_t unanswered = 0;
  double bytes = 0;    ///< request + response bytes on the wire
};

WireRun run_wire(uint16_t port, const Prep& p, const std::vector<Req>& sched,
                 double limit_ms, Tracer* tr) {
  namespace net = alf::net;
  constexpr size_t kConns = 2;
  const size_t n = sched.size();
  WireRun res;
  res.out.resize(n);
  res.lag_ms.resize(n);
  res.send_us.resize(n);
  std::vector<double> intended(n);
  std::vector<net::WireClient> clients(kConns);
  for (auto& c : clients) c.connect(port);
  size_t expected[kConns] = {};
  for (size_t i = 0; i < n; ++i) expected[i % kConns]++;
  std::atomic<size_t> sent{0};
  std::atomic<bool> sender_done{false};
  const double start_ms = now_ms() + 20.0;
  for (size_t i = 0; i < n; ++i) intended[i] = start_ms + sched[i].t_s * 1e3;
  const double last_ms = n ? intended[n - 1] : start_ms;

  std::vector<std::vector<Span>> rspans(kConns);
  std::vector<size_t> rshed(kConns), rerr(kConns), rwrong(kConns);
  std::vector<std::thread> recv;
  for (size_t c = 0; c < kConns; ++c) {
    recv.emplace_back([&, c] {
      size_t got = 0;
      while (got < expected[c]) {
        net::WireClient::Response r;
        const double r0 = now_ms();
        int rc;
        try {
          rc = clients[c].recv(&r, 200);
        } catch (const std::exception&) {
          break;
        }
        const double t = now_ms();
        if (rc == 0) break;
        if (rc < 0) {
          if (sender_done.load() && t > last_ms + limit_ms + 5000.0) break;
          continue;
        }
        const size_t i = r.seq;
        if (i >= n || i % kConns != c || res.out[i].answered) {
          rerr[c]++;
          continue;
        }
        ++got;
        Outcome& o = res.out[i];
        o.answered = true;
        o.latency_ms = t - intended[i];
        o.ok = r.status == net::WireStatus::kOk;
        if (o.ok) {
          const Req& q = sched[i];
          o.correct = r.rows == q.n && r.payload.size() == q.n * p.classes &&
                      p.matches(q.model, q.start, q.n, r.payload.data());
          if (!o.correct) rwrong[c]++;
        } else if (r.status == net::WireStatus::kQueueFull ||
                   r.status == net::WireStatus::kDeadlineExpired) {
          rshed[c]++;
        } else {
          rerr[c]++;
        }
        if (tr != nullptr) {
          rspans[c].push_back(Span{"request", i, -1, intended[i], t});
          rspans[c].push_back(
              Span{"WireClient::recv", i, static_cast<int64_t>(i), r0, t});
        }
      }
    });
  }

  std::vector<Span> sspans;
  for (size_t i = 0; i < n; ++i) {
    const Req& q = sched[i];
    const auto due = g_epoch + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::milli>(
                                       intended[i]));
    std::this_thread::sleep_until(due);
    const double s0 = now_ms();
    res.lag_ms[i] = s0 - intended[i];
    // The wire deadline is the limit left after any sender lateness.
    const double budget_ms = std::max(1.0, limit_ms - res.lag_ms[i]);
    try {
      clients[i % kConns].send(kModelNames[q.model], i,
                               static_cast<uint64_t>(budget_ms * 1e3),
                               p.image(q.start), q.n, p.image_floats);
    } catch (const std::exception&) {
      break;
    }
    const double s1 = now_ms();
    res.send_us[i] = (s1 - s0) * 1e3;
    sent.store(i + 1);
    if (tr != nullptr)
      sspans.push_back(
          Span{"WireClient::send", i, static_cast<int64_t>(i), s0, s1});
  }
  sender_done.store(true);
  for (auto& t : recv) t.join();
  for (auto& c : clients) c.close();
  res.send_us.resize(sent.load());
  res.lag_ms.resize(sent.load());

  for (size_t c = 0; c < kConns; ++c) {
    res.shed += rshed[c];
    res.errors += rerr[c];
    res.wrong += rwrong[c];
  }
  for (size_t i = 0; i < n; ++i) {
    if (!res.out[i].answered) res.unanswered++;
    const size_t name_len = std::strlen(kModelNames[sched[i].model]);
    res.bytes += sizeof(net::RequestHeader) + name_len +
                 sched[i].n * p.image_floats * sizeof(float) +
                 sizeof(net::ResponseHeader) +
                 sched[i].n * p.classes * sizeof(float);
  }
  res.bytes /= std::max<size_t>(1, n);
  if (tr != nullptr) {
    // Roots first, at index = request id, so children can name them.
    std::vector<Span> all(n);
    for (size_t i = 0; i < n; ++i)
      all[i] = Span{"request", i, -1, intended[i], intended[i]};
    for (auto& v : rspans)
      for (const Span& s : v) {
        if (s.parent < 0)
          all[s.req] = s;
        else
          all.push_back(s);
      }
    all.insert(all.end(), sspans.begin(), sspans.end());
    tr->add(std::move(all));
  }
  return res;
}

std::vector<double> ok_latencies(const std::vector<Outcome>& out) {
  std::vector<double> v;
  for (const Outcome& o : out)
    if (o.ok && o.correct) v.push_back(o.latency_ms);
  return v;
}

/// Spawns alf_served, measures exec -> first kOk; returns the daemon.
std::unique_ptr<Daemon> start_daemon(const Prep& p, const std::string& exe,
                                     const std::string& log, uint16_t* port,
                                     double* setup_s) {
  const CpuLayout& cl = cpu_layout();
  std::unique_ptr<Daemon> d;
  {
    CpuPin pin({cl.net, cl.worker[0], cl.worker[1]});
    d = std::make_unique<Daemon>(exe, p.plan_dir, log);
  }
  *port = d->wait_ready();
  *setup_s = first_ok_s(*d, *port, p);
  // After the first answer the shard's threads all exist: the main thread
  // runs the epoll loop, the others are the ModelServer workers.
  size_t wi = 0;
  for (pid_t tid : task_ids(d->pid()))
    pin_task(tid, {tid == d->pid() ? cl.net : cl.worker[wi++ % 2]});
  return d;
}

/// Stops a daemon and checks its drain: exit 0 and the identity
/// submitted == ok + shed + orphaned.
bool stop_daemon(Daemon& d, rusage* ru, Drain* out) {
  const int code = d.terminate(ru);
  const Drain dr = d.drain();
  if (out != nullptr) *out = dr;
  if (code != 0 || !dr.identity()) {
    std::printf("daemon: exit=%d drain_found=%d submitted=%llu ok=%llu "
                "shed=%llu orphaned=%llu\n",
                code, dr.found ? 1 : 0, dr.submitted, dr.ok, dr.shed,
                dr.orphaned);
    return false;
  }
  return true;
}

double wire_images_per_s(const std::vector<Req>& sched, const WireRun& r,
                         double limit_ms, double dur_s, int model) {
  double img = 0;
  for (size_t i = 0; i < sched.size(); ++i) {
    const Outcome& o = r.out[i];
    if (model >= 0 && sched[i].model != static_cast<uint32_t>(model)) continue;
    if (o.answered && o.ok && o.correct && o.latency_ms <= limit_ms)
      img += sched[i].n;
  }
  return img / dur_s;
}

void run_wire_workload(const Prep& p, uint64_t seed, double seconds,
                       const std::string& exe, Envelope& env) {
  const Workload& w = p.w;
  CpuPin gen({cpu_layout().gen});
  std::vector<double> setups;
  uint16_t port = 0;
  std::unique_ptr<Daemon> d;
  for (size_t k = 0; k < kSetupRepeats; ++k) {
    double s = -1;
    d = start_daemon(p, exe, p.dir + "/served.log", &port, &s);
    env.attempted++;
    if (s < 0) {
      env.failed++;
      env.correct = false;
    }
    setups.push_back(s);
    if (k + 1 < kSetupRepeats) {
      rusage ru{};
      if (!stop_daemon(*d, &ru, nullptr)) env.correct = false;
      d.reset();
    }
  }

  const double low_s = seconds * kLowShare;
  const double over_s = seconds - low_s;
  const auto warm = perfbench::make_schedule(derive_seed(seed, 20), w.low_rps,
                                             w.warm_s, w.mix);
  const auto low = perfbench::make_schedule(derive_seed(seed, 21), w.low_rps,
                                            low_s, w.mix);
  const auto over = perfbench::make_schedule(derive_seed(seed, 22), w.over_rps,
                                             over_s, w.mix);
  run_wire(port, p, warm, w.limit_ms, nullptr);
  const WireRun lr = run_wire(port, p, low, w.limit_ms, nullptr);
  const WireRun orun = run_wire(port, p, over, w.limit_ms, nullptr);
  rusage ru{};
  Drain dr;
  if (!stop_daemon(*d, &ru, &dr)) env.correct = false;
  d.reset();

  // fail_frac counts the low rate; over-rate sheds are the designed
  // response to overload and show in goodput instead, but a wrong,
  // unanswered or otherwise failed answer at either rate fails the run.
  const size_t low_fail = lr.errors + lr.shed + lr.wrong + lr.unanswered;
  env.attempted += low.size() + over.size();
  env.failed += low_fail + orun.errors + orun.wrong + orun.unanswered;
  // A low-rate shed is a failed request but not a wrong output.
  if (lr.errors + lr.wrong + lr.unanswered + orun.errors + orun.wrong +
          orun.unanswered > 0)
    env.correct = false;
  const std::vector<double> lat = ok_latencies(lr.out);
  const perfbench::Tail tail = supported_tail(lat);
  // alf_served sheds a request whose wire deadline (the limit) passes
  // before batch formation, so above saturation nearly every kOk answer
  // lands just past the limit, by one batch plus the write path. Counting
  // at exactly the limit cuts through that crowd and swung goodput +-30%
  // between identical runs; an answer counts as late only beyond twice
  // the limit.
  const double late_ms = 2 * w.limit_ms;
  env.add("setup_s", median(setups), "s");
  env.add("images_per_s", wire_images_per_s(over, orun, late_ms, over_s, -1),
          "img/s");
  for (size_t m = 0; m < kModels; ++m)
    env.add(std::string("images_per_s.") + kModelNames[m],
            wire_images_per_s(over, orun, late_ms, over_s,
                              static_cast<int>(m)),
            "img/s");
  env.add("p50_ms", median(lat), "ms");
  env.add("p99_ms", tail.value, "ms");
  env.add("goodput_rps", perfbench::goodput_rps(orun.out, late_ms, over_s),
          "req/s");
  env.add("ok_frac",
          low.empty() ? 0.0
                      : 1.0 - static_cast<double>(low_fail) / low.size(),
          "ratio");
  env.add("peak_rss_mb", ru.ru_maxrss / 1024.0, "MiB");
  std::printf("wire: low=%zu@%.0frps ok=%zu p%.2f(n=%zu) over=%zu@%.0frps "
              "shed=%zu errors=%zu wrong=%zu unanswered=%zu setup_s=[",
              low.size(), w.low_rps, lat.size(), tail.pct, tail.n,
              over.size(), w.over_rps, orun.shed, lr.errors + orun.errors,
              lr.wrong + orun.wrong, lr.unanswered + orun.unanswered);
  for (double x : setups) std::printf(" %.4f", x);
  std::printf(" ] drained: submitted=%llu ok=%llu shed=%llu rejected=%llu "
              "orphaned=%llu f32_packing_mismatch=%zu\n",
              dr.submitted, dr.ok, dr.shed, dr.rejected, dr.orphaned,
              p.ulp_mismatch.load());
  const perfbench::Tail lag = supported_tail(lr.lag_ms);
  std::printf("daemon: cpu_s=%.3f wall_s=%.3f nivcsw=%ld send_lag_p%.2f_ms=%.3f\n",
              tv_s(ru.ru_utime) + tv_s(ru.ru_stime),
              seconds + w.warm_s, ru.ru_nivcsw, lag.pct, lag.value);
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics timed from outside.
// ---------------------------------------------------------------------------

/// Multiply-adds and parameters of one image under a plan.
struct PlanCount {
  double macs = 0, params = 0;
};

PlanCount count_plan(const alf::Plan& plan) {
  PlanCount c;
  for (const alf::Step& st : plan.steps()) {
    if (st.kind == alf::OpKind::kConv) {
      const double k = static_cast<double>(st.geom.in_c) * st.geom.kernel *
                       st.geom.kernel;
      c.macs += st.out_c * k * st.geom.col_cols();
      c.params += st.out_c * k + st.out_c;
    } else if (st.kind == alf::OpKind::kLinear) {
      c.macs += static_cast<double>(st.in_features) * st.out_features;
      c.params += static_cast<double>(st.in_features) * st.out_features +
                  st.out_features;
    }
  }
  return c;
}

struct GemmShape {
  size_t m, k, n;
  bool operator<(const GemmShape& o) const {
    return std::tie(m, k, n) < std::tie(o.m, o.k, o.n);
  }
  std::string key() const {
    return "m" + std::to_string(m) + "k" + std::to_string(k) + "n" +
           std::to_string(n);
  }
};

/// Distinct conv GEMM shapes of the paper-scale f32 plans at batch 32:
/// [Co x Ci*K*K] times one chunk of unfolded images. The chunk is fixed at
/// 8 images (the 4-way batch grid a 4-core host compiles) so metric names
/// do not depend on the host.
constexpr size_t kProbeChunkImages = 8;

std::vector<GemmShape> paper_shapes(uint64_t seed) {
  const Workload w = workload_by_name("offline_b32");
  const Nets nets = build_nets(w, seed);
  std::set<GemmShape> shapes;
  for (size_t m : {size_t{0}, size_t{2}}) {
    const PlanPtr plan = compile_plan(nets, w, m);
    for (const alf::Step& st : plan->steps())
      if (st.kind == alf::OpKind::kConv)
        shapes.insert({st.out_c,
                       st.geom.in_c * st.geom.kernel * st.geom.kernel,
                       kProbeChunkImages * st.geom.col_cols()});
  }
  return {shapes.begin(), shapes.end()};
}

void kernel_probe(uint64_t seed, Envelope& env) {
  namespace k = alf::kernels;
  alf::InlineExecutionGuard g;
  const k::KernelBackend* fb = k::find_backend(f32_backend());
  const k::KernelBackend* qb = k::best_quantized_backend();
  SplitMix rng(derive_seed(seed, 30));
  for (const GemmShape& s : paper_shapes(seed)) {
    std::vector<float> a(s.m * s.k), b(s.k * s.n), c(s.m * s.n);
    for (float& v : a) v = static_cast<float>(rng.uniform() - 0.5);
    for (float& v : b) v = static_cast<float>(rng.uniform() - 0.5);
    std::vector<int8_t> qa(a.size()), qb8(b.size());
    for (int8_t& v : qa) v = static_cast<int8_t>(rng.below(255) - 127);
    for (int8_t& v : qb8) v = static_cast<int8_t>(rng.below(255) - 127);
    std::vector<float> as(s.m, 0.01f), bs(s.n, 0.01f);
    k::QgemmParams qp;
    qp.a_scales = as.data();
    qp.b_scales = bs.data();
    const double macs = static_cast<double>(s.m) * s.k * s.n;
    const size_t reps = std::max<size_t>(1, static_cast<size_t>(2e6 / macs));
    const double f_ms = median_ms(7, [&] {
      for (size_t r = 0; r < reps; ++r)
        fb->gemm(a.data(), s.k, false, b.data(), s.n, false, c.data(), s.n,
                 s.m, s.k, s.n, 1.0f, 0.0f);
    });
    const double q_ms = median_ms(7, [&] {
      for (size_t r = 0; r < reps; ++r)
        qb->qgemm(qa.data(), s.k, qb8.data(), s.n, c.data(), s.n, s.m, s.k,
                  s.n, qp);
    });
    env.add("kernels.gemm_gmacs." + s.key(), macs * reps / (f_ms * 1e6),
            "GMAC/s");
    env.add("kernels.qgemm_gmacs." + s.key(), macs * reps / (q_ms * 1e6),
            "GMAC/s");
    // Computed, not measured: A, B and C of the f32 GEMM each moved once.
    env.add("kernels.bytes." + s.key(),
            4.0 * (s.m * s.k + s.k * s.n + s.m * s.n), "B");
  }
}

/// engine.* and plan_io.* for the workload's four plans, plus the ALF
/// pair fractions. Returns forward ms at batch 32 per model.
void engine_probe(const Prep& p, Tracer& tr, Envelope& env,
                  std::vector<std::vector<double>>* fill_ms) {
  alf::InlineExecutionGuard g;
  double b32[kModels] = {};
  PlanCount cnt[kModels];
  std::vector<float> out(kBatch * p.classes);
  fill_ms->assign(kModels, std::vector<double>(kBatch + 1, 0.0));
  for (size_t m = 0; m < kModels; ++m) {
    const std::string name = kModelNames[m];
    std::vector<double> comp;
    for (int r = 0; r < 3; ++r) {
      const double t0 = now_ms();
      compile_plan(p.nets, p.w, m);
      const double t1 = now_ms();
      tr.add(Span{"Plan::compile", m, -1, t0, t1});
      comp.push_back(t1 - t0);
    }
    const std::string blob = p.plan_dir + "/" + name + ".plan";
    std::vector<double> load;
    for (int r = 0; r < 5; ++r) {
      const double t0 = now_ms();
      alf::plan::load(blob);
      const double t1 = now_ms();
      tr.add(Span{"plan::load", m, -1, t0, t1});
      load.push_back(t1 - t0);
    }
    alf::ExecContext ctx(p.loaded[m]);
    const alf::Plan& plan = *p.loaded[m];
    cnt[m] = count_plan(plan);
    for (size_t b : {size_t{1}, size_t{4}, size_t{8}, kBatch}) {
      const size_t samples = b == kBatch ? 5 : 9;
      const double ms = median_ms(samples, [&] {
        const double t0 = now_ms();
        ctx.run_rows(p.image(0), b, out.data());
        tr.add(Span{"ExecContext::run_rows", b, -1, t0, now_ms()});
      });
      env.add("engine.forward_ms." + name + ".b" + std::to_string(b), ms, "ms");
      if (b == kBatch) b32[m] = ms;
    }
    // (c) of the replay split: run_rows at every fill, one sample each.
    for (size_t f = 1; f <= kBatch; ++f) {
      const double t0 = now_ms();
      ctx.run_rows(p.image(0), f, out.data());
      (*fill_ms)[m][f] = now_ms() - t0;
    }
    const double ctx_bytes = ctx.workspace_floats() * 4.0 + plan.qws_bytes() +
                             plan.qbs_floats() * 4.0;
    env.add("engine.gmacs." + name, cnt[m].macs * kBatch / (b32[m] * 1e6),
            "GMAC/s");
    env.add("engine.plan_macs." + name, cnt[m].macs, "count");
    env.add("engine.context_mib." + name, ctx_bytes / (1024.0 * 1024.0), "MiB");
    env.add("engine.compile_ms." + name, median(comp), "ms");
    env.add("plan_io.load_ms." + name, median(load), "ms");
    env.add("plan_io.blob_kib." + name, fs::file_size(blob) / 1024.0, "KiB");
  }

  // ALF against dense, next to the paper's figures and the Eyeriss model.
  const double params_frac = cnt[2].params / cnt[0].params;
  const double macs_frac = cnt[2].macs / cnt[0].macs;
  const double tf32 = b32[2] / b32[0], tint8 = b32[3] / b32[1];
  // The Eyeriss model runs at paper scale (as bench_fig3 does), with the
  // code-filter fractions of this workload's ALF net.
  const alf::ModelCost dense = alf::cost_resnet20();
  const alf::ModelCost alfc =
      alf::apply_alf_fractions(dense, p.nets.alf_fracs, "ALF-ResNet-20");
  auto cycles = [](const alf::ModelCost& c) {
    double t = 0;
    for (const alf::LayerEval& e :
         alf::map_model(c, 16, alf::EyerissConfig{}, alf::MapperConfig{}))
      t += e.cycles;
    return t;
  };
  const double hw_frac = cycles(alfc) / cycles(dense);
  env.add("alf.params_frac", params_frac, "ratio");
  env.add("alf.macs_frac", macs_frac, "ratio");
  env.add("alf.time_frac.f32", tf32, "ratio");
  env.add("alf.time_frac.int8", tint8, "ratio");
  env.add("hwmodel.latency_frac", hw_frac, "ratio");
  std::printf("alf paper row: params %.3f (paper 0.30) | ops %.3f (paper "
              "0.39) | time f32 %.3f, int8 %.3f measured, %.3f hwmodel "
              "(paper 0.59)\n",
              params_frac, macs_frac, tf32, tint8, hw_frac);
}

/// Submits `sched` at its instants to a started ModelServer; returns the
/// outcome of each request once every callback has fired.
std::vector<Outcome> replay_in_process(alf::ModelServer& ms, const Prep& p,
                                       const std::vector<Req>& sched,
                                       double limit_ms, Tracer* tr) {
  const size_t n = sched.size();
  std::vector<Outcome> out(n);
  std::vector<double> intended(n), sub0(n), sub1(n), done(n);
  std::atomic<size_t> pending{n};
  const double start_ms = now_ms() + 20.0;
  for (size_t i = 0; i < n; ++i) intended[i] = start_ms + sched[i].t_s * 1e3;
  for (size_t i = 0; i < n; ++i) {
    const Req& q = sched[i];
    std::this_thread::sleep_until(
        g_epoch + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(intended[i])));
    sub0[i] = now_ms();
    std::vector<float> x(p.image(q.start), p.image(q.start) + q.n * p.image_floats);
    alf::ModelServer::SubmitOptions so;
    so.deadline_us = static_cast<uint64_t>(limit_ms * 1e3);
    ms.submit(
        kModelNames[q.model],
        alf::Tensor({q.n, 3, p.w.hw, p.w.hw}, std::move(x)),
        [&, i](alf::Tensor&& y) {
          done[i] = now_ms();
          Outcome& o = out[i];
          o.answered = o.ok = true;
          o.latency_ms = done[i] - intended[i];
          const Req& r = sched[i];
          o.correct = y.numel() == r.n * p.classes &&
                      p.matches(r.model, r.start, r.n, y.data());
          pending.fetch_sub(1);
        },
        [&, i](std::exception_ptr) {
          done[i] = now_ms();
          out[i].answered = true;
          pending.fetch_sub(1);
        },
        so);
    sub1[i] = now_ms();
  }
  const auto give_up = Clock::now() + std::chrono::seconds(30);
  while (pending.load() > 0 && Clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (tr != nullptr) {
    std::vector<Span> spans(n);
    for (size_t i = 0; i < n; ++i)
      spans[i] = Span{"request", i, -1, intended[i], done[i]};
    for (size_t i = 0; i < n; ++i)
      spans.push_back(Span{"ModelServer::submit", i, static_cast<int64_t>(i),
                           sub0[i], sub1[i]});
    tr->add(std::move(spans));
  }
  return out;
}


/// (b) of the replay split: the same schedule submitted in process to a
/// ModelServer configured like alf_served (2 workers, max_wait_us 200,
/// max_queue 8192), hosting the same loaded plans. Batch counters are
/// taken over the measured schedule only, not the warm-up.
struct ServeRun {
  std::vector<Outcome> out;
  double avg_fill = 0, full_batch_frac = 0, expired = 0, rejected = 0;
  double avg_fill_by_model[kModels] = {};
};

ServeRun run_serve(const Prep& p, const std::vector<Req>& warm,
                   const std::vector<Req>& sched, double limit_ms,
                   Tracer& tr) {
  alf::ModelServer::Config cfg;
  cfg.workers = kWorkers;
  alf::ModelServer ms(cfg);
  alf::ModelServer::ModelConfig mc;
  mc.max_wait_us = 200;
  mc.max_queue = 8192;
  for (size_t m = 0; m < kModels; ++m)
    ms.add_model(kModelNames[m], p.loaded[m], mc);
  const std::vector<pid_t> old_tids = task_ids(::getpid());
  ms.start();
  size_t wi = 0;
  for (pid_t tid : task_ids(::getpid()))
    if (!std::binary_search(old_tids.begin(), old_tids.end(), tid))
      pin_task(tid, {cpu_layout().worker[wi++ % 2]});
  replay_in_process(ms, p, warm, limit_ms, nullptr);
  alf::ServeStats before[kModels];
  for (size_t m = 0; m < kModels; ++m) before[m] = ms.stats(kModelNames[m]);
  ServeRun res;
  res.out = replay_in_process(ms, p, sched, limit_ms, &tr);
  ms.stop();
  double images = 0, batches = 0, full = 0;
  for (size_t m = 0; m < kModels; ++m) {
    const alf::ServeStats a = ms.stats(kModelNames[m]);
    const double im = static_cast<double>(a.images - before[m].images);
    const double ba = static_cast<double>(a.batches - before[m].batches);
    res.avg_fill_by_model[m] = ba > 0 ? im / ba : 1.0;
    images += im;
    batches += ba;
    full += static_cast<double>(a.full_batches - before[m].full_batches);
    res.expired += static_cast<double>(a.expired - before[m].expired);
    res.rejected += static_cast<double>(a.rejected - before[m].rejected);
  }
  res.avg_fill = batches > 0 ? images / batches : 0.0;
  res.full_batch_frac = batches > 0 ? full / batches : 0.0;
  return res;
}

/// Per request, the latency a replay measured (-1 where it failed), or the
/// engine time (c) at the average fill the server formed for its model.
std::vector<double> latencies(const std::vector<Outcome>& out) {
  std::vector<double> v;
  for (const Outcome& o : out) v.push_back(o.ok && o.correct ? o.latency_ms : -1);
  return v;
}

std::vector<double> engine_at_fill(const std::vector<std::vector<double>>& fill_ms,
                                   const std::vector<Req>& sched,
                                   const ServeRun& sr) {
  std::vector<double> v;
  for (const Req& q : sched) {
    const double f = std::clamp(sr.avg_fill_by_model[q.model], 1.0,
                                static_cast<double>(kBatch));
    v.push_back(fill_ms[q.model][static_cast<size_t>(std::lround(f))]);
  }
  return v;
}

void run_traced(const Prep& p, uint64_t seed, const std::string& exe,
                const std::string& trace_path, Envelope& env) {
  const Workload& w = p.w;
  Tracer tr;
  kernel_probe(seed, env);
  std::vector<std::vector<double>> fill_ms;
  engine_probe(p, tr, env, &fill_ms);

  // Replay schedule: the workload's low-rate traffic (offline: whole
  // batch-32 requests well under capacity), a pure function of the seed.
  const double limit_ms = w.wire ? w.limit_ms : 5000.0;
  CpuPin gen({cpu_layout().gen});
  const auto sched = perfbench::make_schedule(derive_seed(seed, 40),
                                              w.replay_rps, w.replay_s, w.mix);
  uint16_t port = 0;
  double setup = 0;
  auto d = start_daemon(p, exe, p.dir + "/served.log", &port, &setup);
  env.attempted++;
  if (setup < 0) {
    env.failed++;
    env.correct = false;
  }
  // Warm-up touches every worker's contexts before anything is timed.
  const auto warm = perfbench::make_schedule(
      derive_seed(seed, 41), 2 * w.replay_rps,
      std::max(0.5, 12.0 / w.replay_rps), w.mix);
  run_wire(port, p, warm, limit_ms, nullptr);
  // (a) over the wire, untraced then traced: the difference is the
  // tracing overhead.
  const WireRun a0 = run_wire(port, p, sched, limit_ms, nullptr);
  const WireRun a1 = run_wire(port, p, sched, limit_ms, &tr);
  rusage ru{};
  Drain dr;
  if (!stop_daemon(*d, &ru, &dr)) env.correct = false;
  d.reset();
  // (b) in process against a ModelServer.
  const ServeRun b = run_serve(p, warm, sched, limit_ms, tr);

  size_t fails = 0, wrong = 0;
  for (const WireRun* r : {&a0, &a1}) {
    fails += r->errors + r->shed + r->wrong + r->unanswered;
    wrong += r->errors + r->wrong + r->unanswered;
  }
  for (const Outcome& o : b.out) {
    fails += (o.ok && o.correct) ? 0 : 1;
    wrong += (o.ok && !o.correct) || !o.answered ? 1 : 0;
  }
  env.attempted += 3 * sched.size();
  env.failed += fails;
  if (wrong > 0) env.correct = false;

  const double a0_p50 = median(ok_latencies(a0.out));
  const double a1_p50 = median(ok_latencies(a1.out));
  const std::vector<double> blat = ok_latencies(b.out);
  const double b_p50 = median(blat);
  const std::vector<double> eng = engine_at_fill(fill_ms, sched, b);
  // Self times pair the replays request by request: (a) - (b) is net,
  // (b) - (c) is what serve added on top of the engine.
  const double net_self = perfbench::paired_self_time(a1.out, latencies(b.out));
  const double serve_wait = perfbench::paired_self_time(b.out, eng);
  std::vector<double> over;
  for (size_t i = 0; i < sched.size(); ++i)
    if (a0.out[i].ok && a1.out[i].ok)
      over.push_back(a1.out[i].latency_ms - a0.out[i].latency_ms);
  const double trace_over = median(over);
  env.add("serve.p50_ms", b_p50, "ms");
  env.add("serve.p99_ms", supported_tail(blat).value, "ms");
  env.add("serve.wait_ms", serve_wait, "ms");
  env.add("serve.avg_fill", b.avg_fill, "img");
  env.add("serve.full_batch_frac", b.full_batch_frac, "ratio");
  env.add("serve.expired", b.expired, "count");
  env.add("serve.rejected", b.rejected, "count");
  env.add("net.self_p50_ms", net_self, "ms");
  env.add("net.send_us", median(a1.send_us), "us");
  env.add("net.bytes_per_req", a1.bytes, "B");
  env.add("net.send_lag_p99_ms", supported_tail(a1.lag_ms).value, "ms");
  env.add("net.ok", static_cast<double>(dr.ok), "count");
  env.add("net.shed", static_cast<double>(dr.shed), "count");
  env.add("net.rejected", static_cast<double>(dr.rejected), "count");
  env.add("net.orphaned", static_cast<double>(dr.orphaned), "count");
  env.add("trace.overhead_p50_ms", trace_over, "ms");
  env.add("engine.f32_packing_mismatch",
          static_cast<double>(p.ulp_mismatch.load()), "count");
  std::printf("split: p50 wire(a)=%.3f untraced=%.3f serve(b)=%.3f ms; "
              "paired medians: net self=%.3f serve wait=%.3f trace "
              "overhead=%.3f ms (n=%zu, avg_fill=%.2f, spans=%zu)\n",
              a1_p50, a0_p50, b_p50, net_self, serve_wait, trace_over,
              sched.size(), b.avg_fill, tr.size());
  tr.write(trace_path);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload offline_b32|wire_tiny|"
               "wire_mixed --seed N --seconds S --trace 0|1 --served PATH "
               "--work DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string wname, served, work;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i], v = argv[i + 1];
    if (a == "--workload") wname = v;
    else if (a == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") seconds = std::atof(v.c_str());
    else if (a == "--trace") trace = std::atoi(v.c_str());
    else if (a == "--served") served = v;
    else if (a == "--work") work = v;
    else return usage();
  }
  const Workload w = workload_by_name(wname);
  if (w.name == nullptr || served.empty() || work.empty() || seconds <= 0)
    return usage();
  for (const char* k : {"ALF_BACKEND", "ALF_TUNE", "ALF_ALGO_CACHE",
                        "ALF_CPU_DISABLE"})
    ::unsetenv(k);
  ::signal(SIGPIPE, SIG_IGN);

  try {
    const double load0 = loadavg1();
    const auto wall0 = Clock::now();
    Prep p;
    prepare(p, w, seed, work);
    print_pin(p);
    Envelope env;
    rusage self0{};
    ::getrusage(RUSAGE_SELF, &self0);
    const auto steal0 = steal_ticks();
    const auto t0 = Clock::now();
    if (trace) {
      const std::string tp = work + "/trace-" + w.name + "-" +
                             std::to_string(seed) + ".spans.jsonl";
      run_traced(p, seed, served, tp, env);
    } else if (w.wire) {
      run_wire_workload(p, seed, seconds, served, env);
    } else {
      run_offline(p, seed, seconds, env);
    }
    rusage self1{};
    ::getrusage(RUSAGE_SELF, &self1);
    const double wall = ms_between(t0, Clock::now()) / 1e3;
    const double cpu = tv_s(self1.ru_utime) + tv_s(self1.ru_stime) -
                       tv_s(self0.ru_utime) - tv_s(self0.ru_stime);
    const double load1 = loadavg1();
    const auto steal1 = steal_ticks();
    const double steal = steal1.second > steal0.second
                             ? (steal1.first - steal0.first) /
                                   (steal1.second - steal0.second)
                             : 0.0;
    // A host already busier than its cores before the run, or a run whose
    // threads were preempted often, is flagged so spread caused by the
    // host is not blamed on code.
    const long nivcsw = self1.ru_nivcsw - self0.ru_nivcsw;
    const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
    const bool contended = load0 > ncpu || steal > 0.05 ||
                           nivcsw > static_cast<long>(2000 * wall);
    std::printf("noise: bench_cpu_s=%.3f wall_s=%.3f nivcsw=%ld "
                "loadavg_before=%.2f loadavg_after=%.2f steal_frac=%.4f "
                "total_s=%.2f contended=%d\n",
                cpu, wall, nivcsw, load0, load1, steal,
                ms_between(wall0, Clock::now()) / 1e3, contended ? 1 : 0);
    fs::remove_all(p.dir);
    for (const Metric& m : env.metrics)
      if (!std::isfinite(m.value)) {
        std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                     m.name.c_str());
        env.correct = false;
      }
    std::fflush(stdout);
    std::printf("%s\n", perfbench::result_json(env.correct, env.attempted,
                                               env.failed, env.metrics)
                            .c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
