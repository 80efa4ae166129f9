// bmh_perfbench — one workload of the repository benchmark per process.
//
//   bmh_perfbench --workload serve-hot|batch-cold|paper-kernels --seed N
//                 --seconds S --trace 0|1 [--tiny] [--work-dir DIR]
//
// Prints a configuration fingerprint line, then, as the last line, one JSON
// object {correct, attempted, failed, metrics}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exits 1 when any output
// check fails. perfbench/run.py builds this binary and is the entry point.

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.hpp"

namespace {

/// The processors this process may run on, as nproc counts them (the
/// affinity mask, which taskset and cpusets narrow); the online count when
/// the mask cannot be read.
int usable_cores() {
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0 && CPU_COUNT(&mask) > 0)
    return CPU_COUNT(&mask);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bmh_perfbench: %s\nusage: bmh_perfbench --workload "
               "serve-hot|batch-cold|paper-kernels --seed N --seconds S --trace 0|1 "
               "[--tiny] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

perfbench::Options parse_args(int argc, char** argv) {
  perfbench::Options opts;
  opts.work_dir = ".bench_build/perfbench-work";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") opts.workload = value();
    else if (arg == "--seed") opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--seconds") opts.seconds = std::strtod(value().c_str(), nullptr);
    else if (arg == "--trace") opts.trace = value() == "1";
    else if (arg == "--tiny") opts.tiny = true;
    else if (arg == "--work-dir") opts.work_dir = value();
    else usage(("unknown argument " + arg).c_str());
  }
  if (opts.workload.empty()) usage("--workload is required");
  if (!(opts.seconds > 0)) usage("--seconds must be positive");
  opts.cores = usable_cores();
  return opts;
}

} // namespace

int main(int argc, char** argv) {
  perfbench::Options opts = parse_args(argc, argv);
  // An engine worker builds graphs with the ambient OpenMP team size, not
  // with threads_per_job. Where jobs run on one thread each, the ambient
  // size must be 1 too, or the workers' graph builds would spread over every
  // core. libgomp reads OMP_NUM_THREADS once at start-up: set it and start
  // again.
  const char* omp = std::getenv("OMP_NUM_THREADS");
  if (opts.workload != "paper-kernels" && (omp == nullptr || std::string(omp) != "1")) {
    setenv("OMP_NUM_THREADS", "1", 1);
    execv("/proc/self/exe", argv);
    std::perror("bmh_perfbench: re-exec with OMP_NUM_THREADS=1");
    return 1;
  }
  opts.trace_out = opts.work_dir + "/trace-" + opts.workload + ".json";
  opts.work_dir += "/" + opts.workload + "-" + std::to_string(::getpid());
  perfbench::Report report;
  // Layers a workload never runs read 0 in the traced result.
  for (const perfbench::MetricDef& def : perfbench::per_layer_metrics())
    report.set(def.name, 0);
  try {
    std::filesystem::create_directories(opts.work_dir);
    if (opts.workload == "serve-hot") perfbench::run_serve_hot(opts, report);
    else if (opts.workload == "batch-cold") perfbench::run_batch_cold(opts, report);
    else if (opts.workload == "paper-kernels") perfbench::run_paper_kernels(opts, report);
    else usage(("unknown workload " + opts.workload).c_str());
    std::filesystem::remove_all(opts.work_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bmh_perfbench: %s\n", e.what());
    std::error_code ignored;
    std::filesystem::remove_all(opts.work_dir, ignored);
    return 1;
  }
  if (report.values.count("peak_rss_mb") == 0) report.set("peak_rss_mb", perfbench::peak_rss_mb());
  perfbench::print_detail(report);
  perfbench::print_fingerprint(opts, report);
  perfbench::print_result(opts, report);
  return report.correct() ? 0 : 1;
}
