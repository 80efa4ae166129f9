// batch-cold: closed batches of distinct instances through Engine::run.
//
// Every job names its own instance (pinned, derived seeds), so every graph is
// a cache miss: graph build, the cache miss path and the store spill are the
// largest part of the first phase. A restart phase then runs the same batch
// on a new Engine over the store the first phase filled, so every graph is an
// mmap load. The two phases use the same layers two ways, so a gain in one
// that costs the other shows; each phase's throughput and each part's share
// of its job time are in the detail line. Kinds are mixed (match,
// undirected-match, analyze). Queue wait here is batch size, so only
// throughput and per-job engine time are taken.

#include <filesystem>
#include <iterator>
#include <memory>
#include <random>

#include "graph/serialize.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

struct BatchColdConfig {
  int batch_jobs;             ///< jobs per batch (one cycle = build + restart)
  std::vector<int> sizes;     ///< vertex counts instances draw from
  int warm_jobs;              ///< set-up batch, distinct from measured ones
  std::size_t replay_jobs;    ///< traced replay sample
};

BatchColdConfig config_for(const Options& opts) {
  if (opts.tiny) return {24, {256, 512}, 6, 8};
  return {160, {4096, 8192, 16384}, 160, 40};
}

/// The spec lines of one batch; `stream` keeps every batch's instances
/// distinct from every other batch's.
std::vector<std::string> make_batch(const BatchColdConfig& cfg, std::uint64_t seed,
                                    std::uint64_t stream, int jobs) {
  std::mt19937_64 rng(mix_seed(seed, stream));
  auto uniform = [&rng] { return static_cast<double>(rng() >> 11) * 0x1.0p-53; };
  std::vector<std::string> lines;
  for (int i = 0; i < jobs; ++i) {
    const int n = cfg.sizes[static_cast<std::size_t>(uniform() * static_cast<double>(cfg.sizes.size()))];
    const std::string graph_seed = std::to_string(rng() % 1000000000);
    // No source gives the traffic mix of a cold batch, so it is assumed even:
    // one family in four and one kind in five, each equally likely.
    std::string input = "gen:";
    switch (rng() % 4) {
      case 0: input += "er:n=" + std::to_string(n) + ",deg=" + std::to_string(4 + rng() % 5); break;
      case 1: input += "powerlaw:n=" + std::to_string(n) + ",avg=8"; break;
      case 2: input += "planted:n=" + std::to_string(n) + ",extra=3"; break;
      default: input += "road:n=" + std::to_string(n); break;
    }
    input += ",seed=" + graph_seed;
    static const char* const kinds[] = {
        "kind=match algo=two_sided quality=1", "kind=match algo=one_sided quality=1",
        "kind=undirected-match algo=one_out", "kind=analyze algo=sprank",
        "kind=analyze algo=dm"};
    const std::string kind = kinds[rng() % 5];
    lines.push_back("name=b" + std::to_string(stream) + "." + std::to_string(i) + " " + kind +
                    " input=" + input + " seed=" + std::to_string(rng() % 1000000000));
  }
  return lines;
}

struct Phase {
  double seconds = 0;
  std::vector<std::string> records;
  bmh::obs::Snapshot snapshot;
  bmh::Engine::Stats stats;
};

class BatchCold {
public:
  BatchCold(const Options& opts, Report& report)
      : opts_(opts), report_(report), cfg_(config_for(opts)) {}

  void run();

private:
  /// Parses `lines` and runs them as one batch on a new engine over `store`.
  Phase run_batch(const std::vector<std::string>& lines, const std::string& store);
  void trace_layers(const std::vector<std::string>& lines);

  const Options& opts_;
  Report& report_;
  BatchColdConfig cfg_;
  std::vector<double> parse_us_, render_us_;
  double record_bytes_ = 0;
  std::uint64_t records_ = 0;
};

bmh::EngineConfig engine_config(const Options& opts, const std::string& store) {
  bmh::EngineConfig config;
  config.threads = opts.cores;
  config.threads_per_job = 1;
  config.graph_store_dir = store;
  return config;
}

Phase BatchCold::run_batch(const std::vector<std::string>& lines, const std::string& store) {
  Phase phase;
  phase.records.resize(lines.size());
  const std::uint64_t start = now_ns();
  std::vector<bmh::JobSpec> jobs;
  jobs.reserve(lines.size());
  for (const std::string& line : lines) {
    const std::uint64_t t0 = now_ns();
    jobs.push_back(bmh::parse_job_spec_line(line));
    parse_us_.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  bmh::Engine engine(engine_config(opts_, store));
  engine.run(jobs, [&](const bmh::JobResult& r) {
    const std::uint64_t t0 = now_ns();
    phase.records[r.index] = bmh::to_json_line(r);
    render_us_.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  });
  phase.seconds = seconds_since(start);
  phase.snapshot = engine.metrics();
  phase.stats = engine.stats();
  return phase;
}

void BatchCold::run() {
  // Set-up: a warm-up batch of instances no measured batch uses, over a
  // scratch store, so lazy process start-up is done before timing. Five
  // rounds: one round is half a second of disk writes, and three left the
  // median spread by a quarter between runs.
  const std::string warm_store = opts_.work_dir + "/warm-store";
  report_.set("setup_s",
              timed_setups([&] { std::filesystem::remove_all(warm_store); }, [&] {
                const Phase warm = run_batch(
                    make_batch(cfg_, opts_.seed, 1'000'000, cfg_.warm_jobs), warm_store);
                for (const std::string& record : warm.records)
                  (void)check_record(record, std::nullopt, report_);
              }, 5));
  std::filesystem::remove_all(warm_store);
  parse_us_.clear();
  render_us_.clear();

  std::vector<bmh::obs::Snapshot> snapshots;
  std::vector<bmh::Engine::Stats> stats;
  std::vector<double> quality;
  double build_s = 0, restart_s = 0, jobs = 0, mb_written = 0;
  // Engine time per phase (build, restart) and part of a job (ns): the
  // regime check, which part dominates each phase.
  static const char* const parts[] = {"graph_acquire", "stage_scale", "stage_match",
                                      "stage_analyze", "stage_convert"};
  double part_ns[2][std::size(parts)] = {}, job_ns[2] = {0, 0};
  KernelRates kernels;
  std::uint64_t digest = fnv1a("batch-cold");
  std::vector<std::string> first_batch;
  double last_cycle_s = 0;
  int cycles = 0;
  // Whole cycles until the run's time is spent (at least one).
  while (cycles == 0 || build_s + restart_s + last_cycle_s <= opts_.seconds) {
    const std::vector<std::string> lines =
        make_batch(cfg_, opts_.seed, static_cast<std::uint64_t>(cycles), cfg_.batch_jobs);
    if (cycles == 0) first_batch = lines;
    const std::string store = opts_.work_dir + "/store-" + std::to_string(cycles);
    // Each phase's engine is gone when run_batch returns; its freed memory
    // goes back too, as a restarted process's would.
    const Phase build = run_batch(lines, store);
    release_freed_memory();
    for (const auto& entry : std::filesystem::directory_iterator(store))
      if (entry.is_regular_file()) mb_written += static_cast<double>(entry.file_size()) * 1e-6;
    const Phase restart = run_batch(lines, store);
    release_freed_memory();
    std::filesystem::remove_all(store);

    for (std::size_t i = 0; i < lines.size(); ++i) {
      report_.attempted += 2;
      const std::size_t violations = report_.violations.size();
      const RecordFacts facts = check_record(build.records[i], std::nullopt, report_);
      const RecordFacts again = check_record(restart.records[i], std::nullopt, report_);
      if (facts.ok && again.ok && facts.stable != again.stable)
        report_.fail("restart record differs from the build record: " + again.stable);
      if (report_.violations.size() != violations) {
        report_.failed += 2;
        continue;
      }
      if (cycles == 0) digest = fnv1a(facts.stable, digest);
      if (facts.quality >= 0) quality.push_back(facts.quality);
      kernels.add(facts);
      kernels.add(again);
      for (const std::string* r : {&build.records[i], &restart.records[i]}) {
        record_bytes_ += static_cast<double>(r->size());
        ++records_;
      }
    }
    build_s += build.seconds;
    restart_s += restart.seconds;
    last_cycle_s = build.seconds + restart.seconds;
    jobs += static_cast<double>(lines.size());
    for (int p = 0; p < 2; ++p) {
      const Phase& phase = p == 0 ? build : restart;
      for (std::size_t k = 0; k < std::size(parts); ++k)
        part_ns[p][k] +=
            static_cast<double>(phase.snapshot.histogram_merged("worker", parts[k]).sum_ns);
      job_ns[p] += static_cast<double>(phase.snapshot.histogram_merged("worker", "job").sum_ns);
      snapshots.push_back(phase.snapshot);
      stats.push_back(phase.stats);
    }
    ++cycles;
  }
  report_.digest = digest;

  bmh::obs::Snapshot all;
  for (const bmh::obs::Snapshot& s : snapshots)
    all.domains.insert(all.domains.end(), s.domains.begin(), s.domains.end());
  const bmh::obs::HistogramData job = all.histogram_merged("worker", "job");
  report_.set("p50_ms", job.p50_ns() * 1e-6);
  report_.detail["p99_ms"] = job.p99_ns() * 1e-6;
  report_.set("jobs_per_s", 2 * jobs / (build_s + restart_s));
  report_.set("quality_mean", mean(quality));
  kernels.report(report_);
  report_.detail["cycles"] = cycles;
  report_.detail["build_jobs_per_s"] = jobs / build_s;
  report_.detail["restart_jobs_per_s"] = jobs / restart_s;
  for (int p = 0; p < 2; ++p)
    for (std::size_t k = 0; k < std::size(parts); ++k)
      report_.detail[std::string(p == 0 ? "build_" : "restart_") + parts[k] + "_share"] =
          job_ns[p] > 0 ? part_ns[p][k] / job_ns[p] : 0;
  report_.config["threads_x_threads_per_job"] = std::to_string(opts_.cores) + "x1";
  report_.config["batch_jobs"] = std::to_string(cfg_.batch_jobs);

  if (!opts_.trace) return;
  engine_layer_metrics(snapshots, stats, opts_.cores * (build_s + restart_s), report_);
  report_.set("graph_store.mb_written", mb_written);
  report_.set("job.parse_us_p50", quantile(parse_us_, 0.5));
  report_.set("json.render_us_p50", quantile(render_us_, 0.5));
  report_.set("json.bytes_per_record",
              records_ > 0 ? record_bytes_ / static_cast<double>(records_) : 0);
  trace_layers(first_batch);
}

void BatchCold::trace_layers(const std::vector<std::string>& lines) {
  std::vector<ReplayJob> sample;
  for (std::size_t i = 0; i < lines.size() && sample.size() < cfg_.replay_jobs; ++i)
    sample.push_back({bmh::parse_job_spec_line(lines[i])});
  ReplayContext ctx;
  ctx.build_and_spill = true;
  ctx.spill_dir = opts_.work_dir + "/replay";
  std::filesystem::create_directories(ctx.spill_dir);
  // The engine side runs the sample cold too: a new engine over a new
  // store, its workers first warmed on the set-up batch's instances.
  const std::string store = opts_.work_dir + "/sample-store";
  {
    bmh::Engine engine(engine_config(opts_, store));
    std::vector<bmh::JobSpec> warm;
    for (const std::string& line : make_batch(cfg_, opts_.seed, 1'000'000, cfg_.warm_jobs))
      warm.push_back(bmh::parse_job_spec_line(line));
    engine.run(warm, [](const bmh::JobResult&) {});
    traced_replay(engine, std::move(sample), ctx, opts_, report_);
  }
  std::filesystem::remove_all(store);

  // The restart side of the store: mmap-load what the replay spilled.
  std::vector<double> load_ms;
  std::shared_ptr<const bmh::BipartiteGraph> largest;
  for (std::size_t i = 0; i < cfg_.replay_jobs && i < lines.size(); ++i) {
    const std::string path = ctx.spill_dir + "/replay-" + std::to_string(i) + ".bmhg";
    const std::uint64_t t0 = now_ns();
    auto g = std::make_shared<const bmh::BipartiteGraph>(bmh::load_graph_mapped(path));
    load_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    if (!largest || g->num_edges() > largest->num_edges()) largest = g;
  }
  report_.set("graph_store.load_ms_p50", median(load_ms));
  measure_speedups(*largest, opts_, report_);
}

} // namespace

void run_batch_cold(const Options& opts, Report& report) {
  BatchCold workload(opts, report);
  workload.run();
}

} // namespace perfbench
