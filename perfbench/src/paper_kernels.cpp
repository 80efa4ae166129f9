// paper-kernels: the paper's Figs. 3-4 regime. One engine worker runs each
// job with every core inside it (threads_per_job = cores), repeating
// TwoSidedMatch and OneSidedMatch (Sinkhorn-Knopp, 5 iterations, no quality
// pass) on one suite instance built during set-up. The instance's CSR+CSC is
// larger than four times the last-level cache, so the kernels stream from
// memory. This is the only workload where OpenMP runs inside a job; the
// engine, cache and store do almost nothing here. Quality is measured
// against sprank, computed once in set-up, outside the timed loop.

#include <memory>

#include "harness.hpp"
#include "matching/hopcroft_karp.hpp"

namespace perfbench {

namespace {

struct PaperConfig {
  const char* instance;
  double scale;
};

PaperConfig config_for(const Options& opts) {
  if (opts.tiny) return {"audikw_1_like", 0.2};
  return {"audikw_1_like", 10};
}

} // namespace

void run_paper_kernels(const Options& opts, Report& report) {
  const PaperConfig cfg = config_for(opts);
  char input[128];
  std::snprintf(input, sizeof input, "suite:%s:scale=%g,seed=%llu", cfg.instance, cfg.scale,
                static_cast<unsigned long long>(mix_seed(opts.seed, 1) % 1000000));
  const bmh::GraphSpec spec = bmh::parse_graph_spec(input);
  const std::string lines[2] = {
      std::string("name=two input=") + input + " algo=two_sided scaling=sk iters=5 quality=0 seed=" +
          std::to_string(mix_seed(opts.seed, 2) % 1000000),
      std::string("name=one input=") + input + " algo=one_sided scaling=sk iters=5 quality=0 seed=" +
          std::to_string(mix_seed(opts.seed, 3) % 1000000)};

  // Set-up, three times: a new cache and engine, and the instance built into
  // the cache (one shard, so the whole budget can hold it). The previous
  // round is torn down outside the timing.
  std::unique_ptr<bmh::GraphCache> cache;
  std::unique_ptr<bmh::Engine> engine;
  std::shared_ptr<const bmh::BipartiteGraph> graph;
  std::vector<double> build_s;
  auto teardown = [&] {
    graph.reset();
    engine.reset();
    cache.reset();
  };
  report.set("setup_s", timed_setups(teardown, [&] {
    bmh::GraphCache::Options cache_options;
    cache_options.max_bytes = std::size_t{8} << 30;
    cache_options.shards = 1;
    cache = std::make_unique<bmh::GraphCache>(cache_options);
    bmh::EngineConfig config;
    config.threads = 1;
    config.threads_per_job = opts.cores;
    config.graph_cache = cache.get();
    engine = std::make_unique<bmh::Engine>(config);
    const std::uint64_t build_start = now_ns();
    graph = cache->get_or_build(spec, 0);
    build_s.push_back(seconds_since(build_start));
  }));

  const std::uint64_t sprank_start = now_ns();
  const std::int64_t sprank = bmh::sprank(*graph);
  report.detail["sprank_s"] = seconds_since(sprank_start);
  const std::size_t llc = llc_bytes();
  report.config["instance"] = input;
  report.config["instance_csr_csc_bytes"] = std::to_string(graph->memory_bytes());
  report.config["llc_bytes_x4"] = std::to_string(4 * llc);
  report.config["instance_exceeds_4x_llc"] = graph->memory_bytes() > 4 * llc ? "yes" : "no";
  report.config["threads_x_threads_per_job"] = "1x" + std::to_string(opts.cores);

  // Warm-up: one job per algorithm; their records are the references every
  // later repetition must reproduce.
  std::string reference[2];
  std::uint64_t digest = fnv1a("paper-kernels");
  for (int a = 0; a < 2; ++a) {
    const std::string record = bmh::to_json_line(engine->submit(bmh::parse_job_spec_line(lines[a])).get());
    reference[a] = check_record(record, sprank, report).stable;
    digest = fnv1a(reference[a], digest);
  }
  report.digest = digest;

  const bmh::obs::Snapshot before = engine->metrics();
  const bmh::Engine::Stats stats_before = engine->stats();
  std::vector<double> latency_ms, quality, parse_us, submit_us, render_us;
  KernelRates kernels;
  double record_bytes = 0;
  const std::uint64_t start = now_ns();
  std::uint64_t jobs = 0;
  // Whole (two_sided, one_sided) pairs, so both kernels weigh equally in
  // every figure however many pairs fit in the run.
  while (jobs % 2 == 1 || jobs < 2 || seconds_since(start) < opts.seconds) {
    const int a = static_cast<int>(jobs++ % 2);
    const std::uint64_t t0 = now_ns();
    bmh::JobSpec job = bmh::parse_job_spec_line(lines[a]);
    const std::uint64_t t1 = now_ns();
    std::future<bmh::JobResult> future = engine->submit(std::move(job));
    submit_us.push_back(static_cast<double>(now_ns() - t1) * 1e-3);
    const bmh::JobResult result = future.get();
    const std::uint64_t t2 = now_ns();
    const std::string record = bmh::to_json_line(result);
    const std::uint64_t t3 = now_ns();
    latency_ms.push_back(static_cast<double>(t3 - t0) * 1e-6);
    parse_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    render_us.push_back(static_cast<double>(t3 - t2) * 1e-3);
    record_bytes += static_cast<double>(record.size());
    ++report.attempted;
    const std::size_t violations = report.violations.size();
    const RecordFacts facts = check_record(record, sprank, report);
    if (facts.ok && facts.stable != reference[a])
      report.fail("repeated job's record differs from its first run: " + facts.stable);
    if (report.violations.size() != violations) {
      ++report.failed;
      continue;
    }
    quality.push_back(static_cast<double>(facts.cardinality) / static_cast<double>(sprank));
    kernels.add(facts);
  }
  const double loop_s = seconds_since(start);

  // Few jobs fit in a run: p99 is the slowest job.
  report.set("p50_ms", median(latency_ms));
  report.detail["p99_ms"] = quantile(latency_ms, 0.99);
  report.set("jobs_per_s", static_cast<double>(jobs) / loop_s);
  report.set("quality_mean", mean(quality));
  kernels.report(report);
  report.detail["jobs"] = static_cast<double>(jobs);

  if (!opts.trace) return;
  engine_layer_metrics({snapshot_delta(engine->metrics(), before)},
                       {stats_delta(engine->stats(), stats_before)}, loop_s, report);
  report.set("engine.submit_us_p50", quantile(submit_us, 0.50));
  report.set("engine.submit_us_p99", quantile(submit_us, 0.99));
  report.set("job.parse_us_p50", quantile(parse_us, 0.5));
  report.set("json.render_us_p50", quantile(render_us, 0.5));
  report.set("json.bytes_per_record", record_bytes / static_cast<double>(jobs));
  report.set("graph.build_ms_p50", median(build_s) * 1e3);
  report.set("graph.build_medges_per_s",
             static_cast<double>(graph->num_edges()) / median(build_s) * 1e-6);

  std::vector<ReplayJob> sample;
  for (int rep = 0; rep < 2; ++rep)
    for (const std::string& line : lines) sample.push_back({bmh::parse_job_spec_line(line)});
  ReplayContext ctx;
  ctx.threads = opts.cores;
  traced_replay(*engine, std::move(sample), ctx, opts, report);
  measure_speedups(*graph, opts, report);
}

} // namespace perfbench
