/// Pins the matched pairs, not just their count. The engine goldens record
/// cardinalities and quality, so a kernel change that swaps pairs but keeps
/// |M| passes them; this test digests every job's matching (and SK's
/// multipliers) of the sweep, KSMT and demo batches at 1 and 4 threads
/// against tests/data/pair_digests.txt.
///
/// That file is captured from the commit before a kernel change, never from
/// the change it pins: build this test there and copy the table it writes
/// to <gtest TempDir>/pair_digests.txt.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bmh.hpp"
#include "util/hash.hpp"

namespace bmh {
namespace {

constexpr std::uint64_t kBatchSeed = 1;

template <typename T>
std::string digest(const std::vector<T>& v) {
  const std::string_view bytes(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fnv1a64(bytes)));
  return hex;
}

/// One job's table line: the matching's digest (row_match, or the mate
/// array of an undirected job) and, when the job asks for Sinkhorn-Knopp
/// iterations, the digests of SK's dr and dc on its graph (whether or not
/// its algorithm reads them).
std::string digest_line(const std::string& label, const JobSpec& job,
                        const BipartiteGraph& g, std::uint64_t seed, int threads) {
  PipelineConfig config = job.pipeline;
  config.options.seed = seed;
  config.options.threads = threads;
  Workspace ws;
  PipelineResult result;
  std::ostringstream line;
  line << label;
  if (job.kind == JobKind::kUndirectedMatch) {
    run_undirected_pipeline_ws(g, config, ws, result);
    line << " mate=" << digest(ws.obj<UndirectedMatching>("und.matching").mate);
    return line.str();
  }
  run_pipeline_ws(g, config, ws, result);
  line << " row=" << digest(result.matching.row_match);
  if (config.scaling == ScalingMethod::kSinkhornKnopp && config.scaling_iterations > 0) {
    const ThreadCountGuard guard(threads);
    const ScalingResult s =
        scale_sinkhorn_knopp(g, {config.scaling_iterations, config.scaling_tolerance});
    line << " dr=" << digest(s.dr) << " dc=" << digest(s.dc);
  }
  return line.str();
}

struct LabeledJobs {
  std::string file;
  std::vector<JobSpec> jobs;
};

std::vector<LabeledJobs> pinned_batches() {
  const std::string dir = BMH_TEST_DATA_DIR;
  return {{"sweep_jobs", parse_job_spec_file(dir + "/sweep_jobs.txt")},
          {"ksmt_jobs", parse_job_spec_file(dir + "/ksmt_jobs.txt")},
          {"demo", demo_batch()}};
}

TEST(PairDigests, MatchTheCapturedTable) {
  std::map<std::string, std::string> expected;
  {
    std::ifstream in(std::string(BMH_TEST_DATA_DIR) + "/pair_digests.txt");
    ASSERT_TRUE(in) << "tests/data/pair_digests.txt is missing";
    for (std::string line; std::getline(in, line);)
      if (!line.empty()) expected[line.substr(0, line.find(' '))] = line;
  }

  std::ostringstream table;
  std::size_t jobs = 0;
  for (const auto& [file, batch] : pinned_batches())
    for (std::size_t index = 0; index < batch.size(); ++index) {
      const JobSpec& job = batch[index];
      const std::string label = file + "/" + job.name;
      const std::uint64_t seed = job.seed.value_or(derive_job_seed(kBatchSeed, index));
      const BipartiteGraph g = build_graph(job.input, seed);
      const std::string line = digest_line(label, job, g, seed, 1);
      table << line << '\n';
      ++jobs;
      EXPECT_EQ(line, expected[label]) << "one thread";
      EXPECT_EQ(digest_line(label, job, g, seed, 4), line) << "four threads";
    }
  EXPECT_EQ(jobs, expected.size()) << "the table pins jobs that no batch runs";

  const std::string path = ::testing::TempDir() + "pair_digests.txt";
  std::ofstream(path) << table.str();
  if (::testing::Test::HasFailure()) std::printf("this build's table: %s\n", path.c_str());
}

} // namespace
} // namespace bmh
