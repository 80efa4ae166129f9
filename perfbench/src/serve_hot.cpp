// serve-hot: an open loop of job spec lines into a warm engine.
//
// One pacing thread (this one) sends seeded Poisson arrivals into
// Engine::try_submit with cores-1 workers, so the pacer and the workers
// together keep at most `cores` processors busy. Jobs draw from a small pool
// of repeated instances that set-up has already built, so every job is a
// cache hit: the kernels and the sprank quality check dominate, and queueing,
// the ring and record rendering show at the high rate. Latency runs from each
// job's due time to its rendered record, so a stalled pacer or a queue counts.

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <thread>

#include "harness.hpp"

namespace perfbench {

namespace {

// Frozen load points, chosen from the capacity of the reference machine (4
// cores, about 1000 jobs/s at the limit): lo_rate and hi_rate are absolute
// arrival rates at about 15% and 40% of it. The ladder gives jobs_per_s: the
// highest rung whose p99 meets limit_ms with no failure, no refusal and no
// backlog left when its arrivals stop. The weights put each gated quantile
// inside one size's mode, where latencies are dense: 86% of arrivals are 2k
// jobs, so p50 falls in the middle of theirs, and 2% are 16k jobs, so p99
// falls in the middle of those. A quantile that fell between two sizes'
// modes, or in a mode's tail, would move with every small shift of the mix
// or of the host's scheduling delays.
struct ServeHotConfig {
  std::vector<int> sizes;     ///< vertex counts of the pool instances
  std::vector<int> weights;   ///< relative arrival weight of each size
  int instances_per_shape;    ///< distinct graphs per (size, family)
  double lo_rate, hi_rate;    ///< arrivals per second
  double ladder_base, ladder_step;
  int ladder_rungs;
  double limit_ms;            ///< p99 latency limit of a ladder rung
  std::size_t replay_jobs;    ///< traced replay sample
};

ServeHotConfig config_for(const Options& opts) {
  if (opts.tiny) return {{256, 512}, {2, 1}, 1, 100, 200, 100, 1.25, 4, 50, 12};
  return {{2048, 4096, 8192, 16384}, {43, 4, 2, 1}, 6, 175, 400, 500, 1.05, 31, 100, 150};
}

constexpr const char* kAlgorithms[] = {"two_sided", "one_sided", "karp_sipser"};

struct Entry {
  std::string line;  ///< the job spec line the pacer parses and submits
  std::size_t size_index = 0;  ///< its instance's size, as an index into sizes
  std::string reference;  ///< its record, timing-free, from set-up
  std::int64_t sprank = -1;
};

std::vector<Entry> make_pool(const ServeHotConfig& cfg, std::uint64_t seed) {
  std::vector<Entry> pool;
  int id = 0;
  for (std::size_t s = 0; s < cfg.sizes.size(); ++s) {
    const int n = cfg.sizes[s];
    for (const char* family : {"er:n=%d,deg=6", "powerlaw:n=%d,avg=8"}) {
      char shape[64];
      std::snprintf(shape, sizeof shape, family, n);
      for (int k = 0; k < cfg.instances_per_shape; ++k) {
        const std::uint64_t graph_seed = mix_seed(seed, static_cast<std::uint64_t>(100 + id++));
        for (const char* algo : kAlgorithms) {
          Entry e;
          e.line = "name=hot" + std::to_string(pool.size()) + " input=gen:" + shape +
                   ",seed=" + std::to_string(graph_seed % 1000000) + " algo=" + algo +
                   " quality=1 seed=" + std::to_string(mix_seed(graph_seed, pool.size()) % 1000000);
          e.size_index = s;
          pool.push_back(std::move(e));
        }
      }
    }
  }
  return pool;
}

/// One arrival's outcome, written by the worker that completes it.
struct Slot {
  std::uint64_t due_ns = 0;
  std::uint64_t done_ns = 0;
  double render_us = 0;
  std::string record;
  bool refused = false;
};

struct PhaseStats {
  double rate = 0;
  std::vector<double> latency_ms;
  std::uint64_t attempted = 0, refused = 0, failed = 0;
  std::size_t backlog = 0;   ///< jobs still outstanding when arrivals stopped
  double completed_per_s = 0;
  [[nodiscard]] double p50() const { return quantile(latency_ms, 0.50); }
  [[nodiscard]] double p99() const { return quantile(latency_ms, 0.99); }
};

/// Everything the pacer measures across phases (the per-layer side).
struct PacerTimings {
  std::vector<double> parse_us, submit_us, late_ms, render_us;
  double record_bytes = 0;
  std::uint64_t records = 0;
};

class ServeHot {
public:
  ServeHot(const Options& opts, Report& report)
      : opts_(opts), report_(report), cfg_(config_for(opts)) {}

  void setup();
  void run();

private:
  PhaseStats run_phase(const char* name, double rate, double seconds, std::uint64_t stream);
  void serving_layers(const bmh::obs::Snapshot& before, const bmh::Engine::Stats& stats_before,
                      double seconds);
  void trace_layers();

  const Options& opts_;
  Report& report_;
  ServeHotConfig cfg_;
  std::vector<Entry> pool_;
  std::unique_ptr<bmh::Engine> engine_;
  PacerTimings timings_;
  std::vector<double> quality_;
  KernelRates kernels_;
  std::vector<std::size_t> hi_entries_;  // replay sample source
};

void ServeHot::setup() {
  std::vector<Entry> pool = make_pool(cfg_, opts_.seed);
  bmh::EngineConfig config;
  config.threads = std::max(1, opts_.cores - 1);
  config.threads_per_job = 1;
  // Deep enough that an overloaded ladder probe queues instead of being
  // refused: the probe then fails on its p99, and no job fails.
  config.submit_queue_depth = 16384;
  auto engine = std::make_unique<bmh::Engine>(config);
  // Two passes over the pool: the first builds every graph into the cache
  // and yields each entry's reference record; the second warms every
  // worker's scratch space and must reproduce the references exactly.
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<std::future<bmh::JobResult>> futures;
    for (const Entry& e : pool) futures.push_back(engine->submit(bmh::parse_job_spec_line(e.line)));
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const std::string line = bmh::to_json_line(futures[i].get());
      const RecordFacts facts = check_record(line, std::nullopt, report_);
      if (pass == 0) {
        pool[i].reference = facts.stable;
        pool[i].sprank = facts.sprank;
      } else if (facts.stable != pool[i].reference) {
        report_.fail("warm-up record differs from the first run: " + facts.stable);
      }
    }
  }
  pool_ = std::move(pool);
  engine_ = std::move(engine);
}

PhaseStats ServeHot::run_phase(const char* name, double rate, double seconds,
                               std::uint64_t stream) {
  // The seeded arrival schedule: exponential gaps, and entries dealt in two
  // steps from shuffled decks: a size from a deck that holds each size
  // `weights` times, then an entry of that size from a deck that holds each
  // once. Every phase then has the weights' mix of sizes, and of families
  // and algorithms within a size, up to its last, partial decks; the seed
  // decides only the order. Independent draws would let the count of the
  // rare large jobs vary by a tenth or more between seeds, and move p99
  // within their latencies with it.
  std::mt19937_64 rng(mix_seed(opts_.seed, stream));
  auto uniform = [&rng] { return static_cast<double>(rng() >> 11) * 0x1.0p-53; };
  struct Deck {
    std::vector<std::size_t> cards;
    std::size_t dealt = 0;
  };
  auto deal = [&uniform](Deck& deck) {
    if (deck.dealt == 0)
      for (std::size_t i = deck.cards.size() - 1; i > 0; --i)
        std::swap(deck.cards[i],
                  deck.cards[static_cast<std::size_t>(uniform() * static_cast<double>(i + 1))]);
    const std::size_t card = deck.cards[deck.dealt];
    deck.dealt = (deck.dealt + 1) % deck.cards.size();
    return card;
  };
  Deck sizes;
  std::vector<Deck> entries(cfg_.sizes.size());
  for (std::size_t s = 0; s < cfg_.sizes.size(); ++s)
    sizes.cards.insert(sizes.cards.end(), static_cast<std::size_t>(cfg_.weights[s]), s);
  for (std::size_t i = 0; i < pool_.size(); ++i) entries[pool_[i].size_index].cards.push_back(i);
  std::vector<std::pair<double, std::size_t>> arrivals;
  for (double t = 0;;) {
    t += -std::log(1.0 - uniform()) / rate;
    if (t >= seconds) break;
    arrivals.emplace_back(t, deal(entries[deal(sizes)]));
  }

  std::vector<Slot> slots(arrivals.size());
  std::atomic<std::size_t> completed{0};
  std::size_t submitted = 0;
  const std::uint64_t start = now_ns() + 2'000'000;  // first due time, 2 ms out
  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    Slot& slot = slots[k];
    slot.due_ns = start + static_cast<std::uint64_t>(arrivals[k].first * 1e9);
    // Sleep while the due time is far, spin for the last stretch.
    for (std::uint64_t now = now_ns(); now < slot.due_ns; now = now_ns())
      if (slot.due_ns - now > 200'000)
        std::this_thread::sleep_for(std::chrono::nanoseconds(slot.due_ns - now - 150'000));
    const std::uint64_t t0 = now_ns();
    timings_.late_ms.push_back(static_cast<double>(t0 - slot.due_ns) * 1e-6);
    bmh::JobSpec job = bmh::parse_job_spec_line(pool_[arrivals[k].second].line);
    const std::uint64_t t1 = now_ns();
    std::function<void(bmh::JobResult&&)> done = [&slot, &completed](bmh::JobResult&& r) {
      const std::uint64_t r0 = now_ns();
      slot.record = bmh::to_json_line(r);
      slot.done_ns = now_ns();
      slot.render_us = static_cast<double>(slot.done_ns - r0) * 1e-3;
      completed.fetch_add(1, std::memory_order_release);
    };
    const bool accepted = engine_->try_submit(std::move(job), std::move(done));
    const std::uint64_t t2 = now_ns();
    timings_.parse_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    timings_.submit_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
    if (accepted) ++submitted;
    else slot.refused = true;
  }
  const std::uint64_t arrivals_end = start + static_cast<std::uint64_t>(seconds * 1e9);
  PhaseStats stats;
  stats.rate = rate;
  stats.backlog = submitted - completed.load(std::memory_order_acquire);
  // Every accepted job completes; a drain this slow means the engine hung.
  const std::uint64_t give_up = now_ns() + 120'000'000'000ull;
  while (completed.load(std::memory_order_acquire) < submitted) {
    if (now_ns() > give_up) throw std::runtime_error("serve-hot: jobs never completed");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  std::uint64_t last_done = arrivals_end;
  for (std::size_t k = 0; k < slots.size(); ++k) {
    const Slot& slot = slots[k];
    const Entry& entry = pool_[arrivals[k].second];
    ++stats.attempted;
    // A refused or failed job misses any latency limit.
    constexpr double kMissed = std::numeric_limits<double>::infinity();
    if (slot.refused) {
      ++stats.refused;
      stats.latency_ms.push_back(kMissed);
      continue;
    }
    const std::size_t violations = report_.violations.size();
    const RecordFacts facts = check_record(slot.record, entry.sprank, report_);
    if (facts.ok && facts.stable != entry.reference)
      report_.fail("record differs from its reference: " + facts.stable);
    if (report_.violations.size() != violations) {
      ++stats.failed;
      stats.latency_ms.push_back(kMissed);
      continue;
    }
    stats.latency_ms.push_back(static_cast<double>(slot.done_ns - slot.due_ns) * 1e-6);
    last_done = std::max(last_done, slot.done_ns);
    quality_.push_back(facts.quality);
    kernels_.add(facts);
    timings_.render_us.push_back(slot.render_us);
    timings_.record_bytes += static_cast<double>(slot.record.size());
    ++timings_.records;
    if (std::string_view(name) == "hi") hi_entries_.push_back(arrivals[k].second);
  }
  const std::size_t done = stats.attempted - stats.refused - stats.failed;
  stats.completed_per_s = static_cast<double>(done) / (static_cast<double>(last_done - start) * 1e-9);
  report_.attempted += stats.attempted;
  report_.failed += stats.refused + stats.failed;
  const std::string prefix = std::string(name) + ".";
  report_.detail[prefix + "rate_jobs_per_s"] = rate;
  report_.detail[prefix + "jobs"] = static_cast<double>(stats.attempted);
  report_.detail[prefix + "p50_ms"] = stats.p50();
  report_.detail[prefix + "p99_ms"] = stats.p99();
  report_.detail[prefix + "backlog"] = static_cast<double>(stats.backlog);
  report_.detail[prefix + "refused"] = static_cast<double>(stats.refused);
  return stats;
}

void ServeHot::run() {
  std::vector<double> setup_times;
  auto timed_setup = [&] {
    const std::uint64_t start = now_ns();
    setup();
    setup_times.push_back(seconds_since(start));
  };
  timed_setup();
  std::uint64_t digest = fnv1a("serve-hot");
  for (const Entry& e : pool_) digest = fnv1a(e.reference, digest);
  report_.digest = digest;

  const bmh::obs::Snapshot before = engine_->metrics();
  const bmh::Engine::Stats stats_before = engine_->stats();
  const double t = opts_.seconds;
  const std::uint64_t phases_start = now_ns();
  const PhaseStats lo = run_phase("lo", cfg_.lo_rate, 0.5 * t, 1);
  (void)run_phase("hi", cfg_.hi_rate, 0.1 * t, 2);
  // Memory and the serving layers are read over lo and hi only: the
  // ladder's failing probes overload the engine on purpose.
  report_.set("peak_rss_mb", peak_rss_mb());
  if (opts_.trace) serving_layers(before, stats_before, seconds_since(phases_start));

  // Binary search over the frozen ladder for the highest passing rung; the
  // probes share the last 40% of the run.
  const int probes = static_cast<int>(std::ceil(std::log2(cfg_.ladder_rungs + 1)));
  const double probe_s = 0.4 * t / probes;
  int pass = -1, fail = cfg_.ladder_rungs;
  PhaseStats passed, failed;
  for (int probe = 0; probe < probes && fail - pass > 1; ++probe) {
    const int rung = (pass + fail) / 2;
    const double rate = cfg_.ladder_base * std::pow(cfg_.ladder_step, rung);
    const std::string name = "ladder" + std::to_string(probe);
    PhaseStats s = run_phase(name.c_str(), rate, probe_s, 10 + static_cast<std::uint64_t>(probe));
    const bool ok = s.refused == 0 && s.failed == 0 && s.p99() <= cfg_.limit_ms &&
                    static_cast<double>(s.backlog) <= rate * cfg_.limit_ms * 1e-3;
    report_.detail[name + ".pass"] = ok ? 1 : 0;
    (ok ? pass : fail) = rung;
    (ok ? passed : failed) = std::move(s);
  }
  report_.detail["ladder.max_rung"] = pass;
  // Between the highest passing rung and the failing rung above it, the
  // rate at which p99 reaches the limit is interpolated on log p99: the
  // rung alone would move in whole ladder steps.
  double max_rate = pass >= 0 ? passed.completed_per_s : 0;
  if (pass >= 0 && fail == pass + 1 && failed.p99() > cfg_.limit_ms &&
      std::isfinite(failed.p99())) {
    const double x = std::log(cfg_.limit_ms / passed.p99()) / std::log(failed.p99() / passed.p99());
    max_rate = passed.rate * std::pow(failed.rate / passed.rate, std::clamp(x, 0.0, 1.0));
  }

  // The gated latency is lo's p50: on a shared host, processor speed drifts
  // by a tenth or more between runs, and queueing at hi multiplies that
  // drift several-fold. lo's p99 moved two to three times as much as the
  // kernels' speed, so it is not gated either; both phases' p99 stay in the
  // detail line.
  report_.set("p50_ms", lo.p50());
  report_.set("jobs_per_s", max_rate);
  report_.set("quality_mean", mean(quality_));
  kernels_.report(report_);

  char rates[160];
  std::snprintf(rates, sizeof rates, "lo=%g hi=%g ladder=%g*%g^k,k<%d limit_ms=%g", cfg_.lo_rate,
                cfg_.hi_rate, cfg_.ladder_base, cfg_.ladder_step, cfg_.ladder_rungs, cfg_.limit_ms);
  report_.config["rates"] = rates;
  report_.config["threads_x_threads_per_job"] =
      std::to_string(engine_->threads()) + "x1 + 1 pacer";
  report_.config["pool_entries"] = std::to_string(pool_.size());

  if (opts_.trace) trace_layers();

  // Two more set-ups, timed and discarded, make setup_s a median of three.
  // They run last: a torn-down engine leaves memory in the allocator that
  // the next one does not fully reuse, and the served phases' high-water
  // mark must not depend on that.
  for (int round = 0; round < 2; ++round) {
    engine_.reset();
    release_freed_memory();
    timed_setup();
  }
  report_.set("setup_s", median(setup_times));
}

void ServeHot::serving_layers(const bmh::obs::Snapshot& before,
                              const bmh::Engine::Stats& stats_before, double seconds) {
  engine_layer_metrics({snapshot_delta(engine_->metrics(), before)},
                       {stats_delta(engine_->stats(), stats_before)},
                       engine_->threads() * seconds, report_);
  report_.set("engine.submit_us_p50", quantile(timings_.submit_us, 0.50));
  report_.set("engine.submit_us_p99", quantile(timings_.submit_us, 0.99));
  report_.set("job.parse_us_p50", quantile(timings_.parse_us, 0.50));
  report_.set("bench.gen_late_ms_p99", quantile(timings_.late_ms, 0.99));
  report_.set("json.render_us_p50", quantile(timings_.render_us, 0.50));
  report_.set("json.bytes_per_record",
              timings_.records > 0 ? timings_.record_bytes / static_cast<double>(timings_.records) : 0);
}

void ServeHot::trace_layers() {
  // The graph layer is bypassed while serving (all hits); time it on the
  // pool's distinct graphs so the layer still has a number here.
  std::vector<double> build_ms;
  double build_edges = 0, build_s = 0;
  std::shared_ptr<const bmh::BipartiteGraph> largest;
  for (std::size_t i = 0; i < pool_.size(); i += std::size(kAlgorithms)) {
    const bmh::JobSpec job = bmh::parse_job_spec_line(pool_[i].line);
    const std::uint64_t t0 = now_ns();
    const bmh::BipartiteGraph g = bmh::build_graph(job.input, *job.seed);
    const double s = seconds_since(t0);
    build_ms.push_back(s * 1e3);
    build_s += s;
    build_edges += static_cast<double>(g.num_edges());
    if (!largest || g.num_edges() > largest->num_edges())
      largest = engine_->cache()->get_or_build(job.input, *job.seed);
  }
  report_.set("graph.build_ms_p50", median(build_ms));
  report_.set("graph.build_medges_per_s", build_s > 0 ? build_edges / build_s * 1e-6 : 0);

  // The replay sample: the first arrivals of the hi phase of each size, as
  // many of each, in arrival order. The large jobs, rare among arrivals, are
  // then in the sample, and the sprank share (a sum over it) stays
  // comparable with the seed's figure for 16k jobs.
  std::vector<ReplayJob> sample;
  std::vector<std::size_t> taken(cfg_.sizes.size());
  const std::size_t per_size = cfg_.replay_jobs / cfg_.sizes.size();
  for (std::size_t i = 0; i < hi_entries_.size() && sample.size() < cfg_.replay_jobs; ++i)
    if (taken[pool_[hi_entries_[i]].size_index]++ < per_size)
      sample.push_back({bmh::parse_job_spec_line(pool_[hi_entries_[i]].line)});
  ReplayContext ctx;
  ctx.threads = 1;
  traced_replay(*engine_, std::move(sample), ctx, opts_, report_);
  measure_speedups(*largest, opts_, report_);
}

} // namespace

void run_serve_hot(const Options& opts, Report& report) {
  ServeHot workload(opts, report);
  workload.run();
}

} // namespace perfbench
