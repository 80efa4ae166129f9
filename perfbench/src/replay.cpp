// The traced replay: each sampled job re-run layer by layer through the
// library's public functions, in the order the engine's pipelines call them,
// with a span around every call. The spans live in the benchmark's own files;
// the program is not instrumented for this.

#include <omp.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>

#include "analysis/dulmage_mendelsohn.hpp"
#include "core/karp_sipser_mt.hpp"
#include "core/one_sided.hpp"
#include "core/two_sided.hpp"
#include "engine/graph_store.hpp"
#include "graph/serialize.hpp"
#include "graph/transform.hpp"
#include "harness.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/karp_sipser.hpp"
#include "scaling/sinkhorn_knopp.hpp"
#include "undirected/matching.hpp"

namespace perfbench {

namespace {

/// Restores the ambient OpenMP thread count on scope exit.
class OmpThreads {
public:
  explicit OmpThreads(int threads) : saved_(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ~OmpThreads() { omp_set_num_threads(saved_); }
  OmpThreads(const OmpThreads&) = delete;
  OmpThreads& operator=(const OmpThreads&) = delete;

private:
  int saved_;
};

bool uses_scaling(const bmh::PipelineConfig& config) {
  const bool scaled_algorithm =
      config.algorithm == "two_sided" || config.algorithm == "one_sided";
  return scaled_algorithm && config.scaling != bmh::ScalingMethod::kNone &&
         config.scaling_iterations > 0;
}

// Bytes each kernel touches, computed from array sizes (cache misses are
// ignored, so these are lower bounds on traffic). Sinkhorn-Knopp runs three
// sweeps per iteration (column sums, row sums, the error pass), each reading
// a 4-byte index and a gathered 8-byte multiplier per edge plus one 8-byte
// pointer and one 8-byte multiplier per vertex.
double sk_bytes(const bmh::BipartiteGraph& g, int iterations) {
  const double e = static_cast<double>(g.num_edges());
  const double v = static_cast<double>(g.num_rows()) + static_cast<double>(g.num_cols());
  return iterations * (3 * 12 * e + 3 * 16 * v / 2);
}

// Karp-Sipser-MT works on the unified choice array alone: it reads the
// choices, counts and updates in-degrees, and writes both match arrays —
// four 4-byte passes over rows + columns.
double ksmt_bytes(const bmh::BipartiteGraph& g) {
  return 4.0 * 4.0 * (static_cast<double>(g.num_rows()) + static_cast<double>(g.num_cols()));
}

/// Counts the replay collects alongside its spans.
struct ReplayCounts {
  bmh::KarpSipserStats ks;
  std::uint64_t sk_calls = 0;
  std::uint64_t sk_iterations = 0;
  double sk_bytes = 0;     ///< computed from array sizes
  double ksmt_bytes = 0;   ///< computed from array sizes
  double build_edges = 0;  ///< edges of the graphs build_graph made
};

struct Scratch {
  bmh::Workspace ws;
  bmh::ScalingResult scaling;
  bmh::TwoSidedChoices choices;
  std::vector<bmh::vid_t> unified;
  bmh::Matching matching;
  bmh::UndirectedGraph undirected;
  bmh::UndirectedMatching undirected_matching;
};

/// Re-runs one job at a time, layer by layer, keeping its scratch warm
/// across jobs the way an engine worker's workspace is.
class Replayer {
public:
  Replayer(const ReplayContext& ctx, bmh::Engine& engine) : ctx_(ctx), engine_(engine) {
    // An empty store the cold path probes before it builds, as the cache
    // probes the engine's store on a miss.
    if (ctx.build_and_spill)
      probe_store_ = std::make_unique<bmh::GraphStore>(ctx.spill_dir + "/probe");
  }

  /// Replays `job` (sample position `index`), recording spans into `tracer`
  /// when it is enabled, and checks the result against the job's record
  /// when that is known. Returns the wall seconds.
  double run(const ReplayJob& job, std::size_t index, Tracer& tracer, ReplayCounts& counts,
             Report& report);

private:
  const ReplayContext& ctx_;
  bmh::Engine& engine_;
  Scratch scratch_;
  std::unique_ptr<bmh::GraphStore> probe_store_;
};

double Replayer::run(const ReplayJob& job, std::size_t index, Tracer& tracer,
                     ReplayCounts& counts, Report& report) {
  const ReplayContext& ctx = ctx_;
  Scratch& s = scratch_;
  if (!job.spec.seed) throw std::logic_error("replay: jobs must pin their seed");
  const std::uint64_t seed = *job.spec.seed;
  const std::uint64_t start = now_ns();
  const bmh::PipelineConfig& config = job.spec.pipeline;
  tracer.set_job(index + 1);
  Tracer::Scope job_span(tracer, "job");

  std::shared_ptr<const bmh::BipartiteGraph> cached;
  std::optional<bmh::BipartiteGraph> built;
  if (ctx.build_and_spill) {
    // The cold acquire path: key, store probe (a miss), build, spill.
    std::string key;
    {
      Tracer::Scope span(tracer, "graph_cache.key");
      key = bmh::canonical_graph_key(job.spec.input, seed);
    }
    {
      Tracer::Scope span(tracer, "graph_store.probe");
      (void)probe_store_->try_load(key);
    }
    {
      Tracer::Scope span(tracer, "graph.build");
      built.emplace(bmh::build_graph(job.spec.input, seed));
    }
    counts.build_edges += static_cast<double>(built->num_edges());
    const std::string path = ctx.spill_dir + "/replay-" + std::to_string(index) + ".bmhg";
    std::filesystem::remove(path);
    Tracer::Scope span(tracer, "graph_store.spill");
    bmh::save_graph(*built, path, key);
  } else {
    Tracer::Scope span(tracer, "graph_cache.get_or_build");
    cached = engine_.cache()->get_or_build(job.spec.input, seed);
  }
  const bmh::BipartiteGraph& g = built ? *built : *cached;

  std::int64_t cardinality = -1, sprank = -1;
  bool valid = true;
  switch (job.spec.kind) {
    case bmh::JobKind::kMatch: {
      const std::string& algo = config.algorithm;
      if (algo != "two_sided" && algo != "one_sided" && algo != "karp_sipser")
        throw std::logic_error("replay: unsupported algorithm " + algo);
      if (uses_scaling(config)) {
        if (config.scaling != bmh::ScalingMethod::kSinkhornKnopp)
          throw std::logic_error("replay: only Sinkhorn-Knopp scaling is replayed");
        Tracer::Scope span(tracer, "scaling.sk");
        bmh::scale_sinkhorn_knopp_ws(
            g, {config.scaling_iterations, config.scaling_tolerance}, s.ws, s.scaling);
      } else {
        Tracer::Scope span(tracer, "scaling.identity");
        bmh::identity_scaling_ws(g, s.ws, s.scaling, /*compute_error=*/false);
      }
      if (uses_scaling(config)) {
        ++counts.sk_calls;
        counts.sk_iterations += static_cast<std::uint64_t>(s.scaling.iterations);
        counts.sk_bytes += sk_bytes(g, s.scaling.iterations);
      }
      if (algo == "two_sided") {
        {
          Tracer::Scope span(tracer, "core.choice");
          bmh::sample_two_sided_choices_ws(g, s.scaling, seed, s.choices);
        }
        {
          Tracer::Scope span(tracer, "core.unify");
          bmh::unify_choices(g.num_rows(), g.num_cols(), s.choices.rchoice,
                             s.choices.cchoice, s.unified);
        }
        Tracer::Scope span(tracer, "core.ksmt");
        bmh::karp_sipser_mt_ws(g.num_rows(), g.num_cols(), s.unified, nullptr, s.ws,
                               s.matching);
        counts.ksmt_bytes += ksmt_bytes(g);
      } else if (algo == "one_sided") {
        Tracer::Scope span(tracer, "core.one_sided");
        bmh::one_sided_from_scaling_ws(g, s.scaling, seed, s.ws, s.matching);
      } else {
        bmh::KarpSipserStats ks;
        {
          Tracer::Scope span(tracer, "matching.karp_sipser");
          bmh::karp_sipser_ws(g, seed, &ks, s.ws, s.matching);
        }
        counts.ks.phase1_matches += ks.phase1_matches;
        counts.ks.phase2_matches += ks.phase2_matches;
      }
      {
        Tracer::Scope span(tracer, "matching.validate");
        valid = bmh::is_valid_matching(g, s.matching);
      }
      cardinality = s.matching.cardinality();
      if (config.compute_quality) {
        Tracer::Scope span(tracer, "matching.sprank");
        sprank = bmh::sprank_ws(g, s.ws);
      }
      break;
    }
    case bmh::JobKind::kUndirectedMatch: {
      if (config.algorithm != "one_out")
        throw std::logic_error("replay: unsupported undirected algorithm " + config.algorithm);
      {
        Tracer::Scope span(tracer, "undirected.convert");
        if (g.square() && bmh::is_pattern_symmetric(g))
          s.undirected.assign_symmetric_view(g);
        else
          s.undirected.assign_bipartite_union(g);
      }
      {
        Tracer::Scope span(tracer, "undirected.one_out");
        const int iterations =
            config.scaling == bmh::ScalingMethod::kNone ? 0 : config.scaling_iterations;
        bmh::undirected_one_out_match_ws(s.undirected, iterations, seed, s.ws,
                                         s.undirected_matching);
      }
      {
        Tracer::Scope span(tracer, "undirected.validate");
        valid = bmh::is_valid_matching(s.undirected, s.undirected_matching);
      }
      cardinality = s.undirected_matching.cardinality();
      break;
    }
    case bmh::JobKind::kAnalyze: {
      if (config.algorithm == "dm") {
        Tracer::Scope span(tracer, "analysis.dm");
        const bmh::DmDecomposition dm = bmh::dulmage_mendelsohn(g);
        (void)bmh::fine_decomposition(g);
        (void)bmh::has_total_support(g);
        (void)bmh::is_fully_indecomposable(g);
        sprank = dm.sprank;
      } else if (config.algorithm == "sprank") {
        Tracer::Scope span(tracer, "analysis.sprank");
        sprank = bmh::sprank_ws(g, s.ws);
      } else {
        throw std::logic_error("replay: unsupported analysis " + config.algorithm);
      }
      break;
    }
  }

  if (!valid) report.fail("replay produced an invalid matching for " + job.spec.input.spec);
  if ((job.cardinality >= 0 && cardinality != job.cardinality) ||
      (job.sprank >= 0 && sprank >= 0 && sprank != job.sprank))
    report.fail("replay differs from the engine record for " + job.spec.input.spec + " (" +
                config.algorithm + "): cardinality " + std::to_string(cardinality) + " vs " +
                std::to_string(job.cardinality) + ", sprank " + std::to_string(sprank) +
                " vs " + std::to_string(job.sprank));
  return seconds_since(start);
}

} // namespace

void traced_replay(bmh::Engine& engine, std::vector<ReplayJob> jobs, const ReplayContext& ctx,
                   const Options& opts, Report& report) {
  OmpThreads threads(ctx.threads);
  Replayer replayer(ctx, engine);
  Tracer tracer;
  ReplayCounts counts, uncounted;
  for (std::size_t i = 0; i < jobs.size(); ++i)  // warm-up, unchecked
    (void)replayer.run(jobs[i], i, tracer, uncounted, report);
  // Job by job: the engine's own run (its job time from metrics), then the
  // replay untraced and traced, so a drift in processor speed over the
  // sample touches all three alike.
  double engine_job_ms = 0, traced_s = 0, untraced_s = 0;
  std::vector<double> coverage;  // per job: replay self time over engine job time
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ReplayJob& job = jobs[i];
    const std::uint64_t before = engine.metrics().histogram_merged("worker", "job").sum_ns;
    const bmh::JobResult result = engine.submit(job.spec).get();
    const std::uint64_t after = engine.metrics().histogram_merged("worker", "job").sum_ns;
    const double job_ms = static_cast<double>(after - before) * 1e-6;
    engine_job_ms += job_ms;
    const RecordFacts facts = check_record(bmh::to_json_line(result), std::nullopt, report);
    job.cardinality = facts.cardinality;
    job.sprank = facts.sprank;
    untraced_s += replayer.run(job, i, tracer, uncounted, report);
    const double self_before = tracer.self_ms("");
    tracer.set_enabled(true);
    traced_s += replayer.run(job, i, tracer, counts, report);
    tracer.set_enabled(false);
    if (job_ms > 0) coverage.push_back((tracer.self_ms("") - self_before) / job_ms);
  }

  report.set("bench.trace_overhead_ratio", untraced_s > 0 ? traced_s / untraced_s : 0);
  // The median over jobs, so one job the host stalled on one side only (a
  // preempted processor, a write-back pause in a cold spill) does not
  // decide the figure.
  report.set("bench.replay_coverage", median(coverage));
  report.set("matching.sprank_share",
             engine_job_ms > 0 ? tracer.self_ms("matching.sprank") / engine_job_ms : 0);

  auto p50 = [&](const char* span) { return median(tracer.durations_ms(span)); };
  auto total_s = [&](const char* span) {
    double sum = 0;
    for (const double ms : tracer.durations_ms(span)) sum += ms * 1e-3;
    return sum;
  };
  report.set("scaling.sk_ms_p50", p50("scaling.sk"));
  report.set("core.choice_ms_p50", p50("core.choice"));
  report.set("core.ksmt_ms_p50", p50("core.ksmt"));
  report.set("core.one_sided_ms_p50", p50("core.one_sided"));
  report.set("matching.sprank_ms_p50", p50("matching.sprank"));
  report.set("matching.karp_sipser_ms_p50", p50("matching.karp_sipser"));
  report.set("analysis.dm_ms_p50", p50("analysis.dm"));
  report.set("analysis.sprank_ms_p50", p50("analysis.sprank"));
  report.set("undirected.convert_ms_p50", p50("undirected.convert"));
  report.set("undirected.one_out_ms_p50", p50("undirected.one_out"));
  if (ctx.build_and_spill) {
    report.set("graph.build_ms_p50", p50("graph.build"));
    const double build_s = total_s("graph.build");
    report.set("graph.build_medges_per_s", build_s > 0 ? counts.build_edges / build_s * 1e-6 : 0);
    report.set("graph_store.spill_ms_p50", p50("graph_store.spill"));
  }
  report.set("matching.ks_phase1_matches", counts.ks.phase1_matches);
  report.set("matching.ks_phase2_matches", counts.ks.phase2_matches);
  report.set("scaling.iterations",
             counts.sk_calls > 0 ? static_cast<double>(counts.sk_iterations) /
                                       static_cast<double>(counts.sk_calls)
                                 : 0);
  const double sk_s = total_s("scaling.sk"), ksmt_s = total_s("core.ksmt");
  report.set("scaling.gb_per_s_computed", sk_s > 0 ? counts.sk_bytes / sk_s * 1e-9 : 0);
  report.set("core.ksmt_gb_per_s_computed", ksmt_s > 0 ? counts.ksmt_bytes / ksmt_s * 1e-9 : 0);

  // The bandwidth ceiling: one array of at least four times the last-level
  // cache, read by every core the run may use.
  const std::size_t llc = llc_bytes();
  const std::size_t probe_bytes =
      opts.tiny ? (std::size_t{16} << 20) : std::max<std::size_t>(4 * llc + (4 << 20), 256u << 20);
  const double stream = stream_read_gb_per_s(probe_bytes, opts.cores);
  report.set("bench.stream_gb_per_s", stream);
  report.set("scaling.roofline_ratio",
             stream > 0 ? report.values["scaling.gb_per_s_computed"] / stream : 0);
  report.config["stream_probe_bytes"] = std::to_string(probe_bytes);

  tracer.write_chrome(opts.trace_out);
}

void measure_speedups(const bmh::BipartiteGraph& g, const Options& opts, Report& report) {
  Scratch s;
  const std::uint64_t seed = mix_seed(opts.seed, 99);
  auto timed = [&](int threads, auto&& kernel) {
    OmpThreads guard(threads);
    std::vector<double> times;
    for (int rep = 0; rep < 3; ++rep) {
      const std::uint64_t start = now_ns();
      kernel();
      times.push_back(seconds_since(start));
    }
    return median(times);
  };
  auto speedup = [&](auto&& kernel) {
    const double one = timed(1, kernel), all = timed(opts.cores, kernel);
    return all > 0 ? one / all : 0;
  };
  auto sk = [&] { bmh::scale_sinkhorn_knopp_ws(g, {5, 0.0}, s.ws, s.scaling); };
  report.set("scaling.speedup_tN", speedup(sk));
  bmh::sample_two_sided_choices_ws(g, s.scaling, seed, s.choices);
  bmh::unify_choices(g.num_rows(), g.num_cols(), s.choices.rchoice, s.choices.cchoice,
                     s.unified);
  report.set("core.ksmt_speedup_tN", speedup([&] {
               bmh::karp_sipser_mt_ws(g.num_rows(), g.num_cols(), s.unified, nullptr, s.ws,
                                      s.matching);
             }));
  report.set("core.one_sided_speedup_tN", speedup([&] {
               bmh::one_sided_from_scaling_ws(g, s.scaling, seed, s.ws, s.matching);
             }));
  report.config["speedup_graph_edges"] = std::to_string(g.num_edges());
}

} // namespace perfbench
