#pragma once
// Shared pieces of the repository benchmark: options, the metric tables, the
// result report, the span recorder, record checks and machine probes. The
// harness reaches the program only through its public headers.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;             ///< smoke-test sizes
  std::string work_dir;          ///< scratch space inside the checkout
  std::string trace_out;         ///< Chrome trace-event JSON path
  int cores = 1;                 ///< processors the run may keep busy
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The metrics a --trace 0 run prints (every workload prints all of them).
const std::vector<MetricDef>& end_to_end_metrics();
/// The metrics a --trace 1 run prints; layers a workload never runs read 0.
const std::vector<MetricDef>& per_layer_metrics();

/// Everything one run reports: metric values, the job tally, correctness
/// violations, the record digest and the configuration fingerprint.
struct Report {
  std::map<std::string, double> values;
  std::map<std::string, std::string> config;  ///< workload settings, as text
  std::map<std::string, double> detail;        ///< per-phase figures behind the metrics
  std::vector<std::string> violations;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;

  void set(const std::string& name, double value) { values[name] = value; }
  void fail(std::string why);
  [[nodiscard]] bool correct() const { return violations.empty(); }
};

// ----------------------------------------------------------------- stats ---

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// SplitMix64: derives independent seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

std::uint64_t fnv1a(std::string_view text, std::uint64_t hash = 1469598103934665603ull);

// --------------------------------------------------------------- records ---

/// The facts the benchmark checks in one rendered record.
struct RecordFacts {
  bool ok = false;
  std::optional<bool> valid;
  std::int64_t cardinality = -1;
  std::int64_t sprank = -1;
  std::int64_t edges = -1;
  double quality = -1;
  double scale_match_seconds = 0;  ///< "scale" + "match" stage timings
  std::string algorithm;
  std::string stable;  ///< the record without its index and timing fields
};

/// Per-job kernel throughput of the TwoSided and OneSided records a workload
/// produced: edges over the record's scale + match stage time. Reported as
/// two_sided_medges_per_s / one_sided_medges_per_s, the median over jobs
/// (a job a preempted processor slowed is one outlier, not a shift).
struct KernelRates {
  std::vector<double> two_sided, one_sided;
  void add(const RecordFacts& facts);
  void report(Report& report) const;
};

/// Parses and checks one record: ok and valid true, cardinality <= sprank
/// (the record's own, else `known_sprank` when given). Violations go to
/// `report`; returns the facts (default facts when the line did not parse).
RecordFacts check_record(std::string_view line, std::optional<std::int64_t> known_sprank,
                         Report& report);

// ---------------------------------------------------------------- tracing ---

/// In-memory span recorder for the traced replay (single thread). Spans keep
/// a name, start, end, parent and the id of the job they belong to.
class Tracer {
public:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int32_t parent;  ///< index of the enclosing span, -1 for a root
    std::uint64_t job;
  };

  class Scope {
  public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Tracer& tracer_;
    std::int32_t index_ = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  void set_job(std::uint64_t job) { job_ = job; }

  /// Durations (ms) of every span with this name.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;
  /// Summed self time (duration minus the time its children cover), in ms,
  /// of spans with this name; all non-root spans under a "job" root when
  /// `name` is empty.
  [[nodiscard]] double self_ms(std::string_view name) const;

  /// Writes the spans as Chrome trace-event JSON (viewable in Perfetto).
  void write_chrome(const std::string& path) const;

private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  std::uint64_t job_ = 0;
};

// ---------------------------------------------------------------- replay ---

/// One job of the traced replay (its spec pins the seed), with what the
/// engine's record for it said.
struct ReplayJob {
  bmh::JobSpec spec;
  std::int64_t cardinality = -1;
  std::int64_t sprank = -1;
};

/// How the replay obtains each job's graph: from the engine's cache (what a
/// warm engine does) or by building and spilling it to `spill_dir` (what a
/// cold engine over a store does). `threads` is the OpenMP budget per job.
struct ReplayContext {
  bool build_and_spill = false;
  std::string spill_dir;
  int threads = 1;
};

/// The traced replay of a sample of a workload's jobs. After one warm-up
/// pass, each job runs through `engine` (its job time read from the
/// engine's metrics), then is replayed layer by layer through the library's
/// public functions, untraced and traced. The replay must reproduce the
/// engine record's cardinality and sprank. Fills the span-derived per-layer
/// metrics, bench.trace_overhead_ratio (traced over untraced replay time),
/// bench.replay_coverage (per job, summed layer self time over the
/// engine's job time; the median over jobs), matching.sprank_share and the bandwidth probe, and writes the
/// spans as a Chrome trace.
void traced_replay(bmh::Engine& engine, std::vector<ReplayJob> jobs, const ReplayContext& ctx,
                   const Options& opts, Report& report);

/// scaling.speedup_tN, core.ksmt_speedup_tN and core.one_sided_speedup_tN on
/// `g`: kernel time at 1 thread over kernel time at `opts.cores` threads.
void measure_speedups(const bmh::BipartiteGraph& g, const Options& opts, Report& report);

// ---------------------------------------------------------- engine layer ---

/// What an engine recorded between two of its snapshots (counters and
/// histograms of matching domains subtracted), so set-up work is left out.
bmh::obs::Snapshot snapshot_delta(const bmh::obs::Snapshot& after,
                                  const bmh::obs::Snapshot& before);
bmh::Engine::Stats stats_delta(const bmh::Engine::Stats& after,
                               const bmh::Engine::Stats& before);

/// Fills the engine / graph_cache / graph_store per-layer metrics from the
/// metric snapshots and stats of the engines a workload ran.
/// `worker_seconds` is workers x the wall time they were offered work (for
/// worker_busy_ratio).
void engine_layer_metrics(const std::vector<bmh::obs::Snapshot>& snapshots,
                          const std::vector<bmh::Engine::Stats>& stats,
                          double worker_seconds, Report& report);

// --------------------------------------------------------------- machine ---

double peak_rss_mb();
/// Hands memory the allocator keeps after an engine is torn down back to
/// the system, so a set-up round or a simulated restart does not inflate
/// the next one's high-water mark (glibc only; a no-op elsewhere).
void release_freed_memory();
std::size_t llc_bytes();
/// Read bandwidth (GB/s) over one array of `bytes`, `threads` threads,
/// median of three passes.
double stream_read_gb_per_s(std::size_t bytes, int threads);

/// Prints the per-phase detail line, the configuration fingerprint line and
/// the final result line.
void print_detail(const Report& report);
void print_fingerprint(const Options& opts, const Report& report);
void print_result(const Options& opts, const Report& report);

/// Every workload's setup_s: the median of `rounds` timed calls of `setup`,
/// each after an untimed `teardown` of the previous round and a
/// release_freed_memory().
double timed_setups(const std::function<void()>& teardown, const std::function<void()>& setup,
                    int rounds = 3);

// ------------------------------------------------------------- workloads ---

void run_serve_hot(const Options& opts, Report& report);
void run_batch_cold(const Options& opts, Report& report);
void run_paper_kernels(const Options& opts, Report& report);

} // namespace perfbench
