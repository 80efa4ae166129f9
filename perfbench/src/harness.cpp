#include "harness.hpp"

#include <malloc.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

// ---------------------------------------------------------------- metrics ---

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"quality_mean", "ratio"},
      {"p50_ms", "ms"},
      {"jobs_per_s", "1/s"},
      {"two_sided_medges_per_s", "Medges/s"},
      {"one_sided_medges_per_s", "Medges/s"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"engine.submit_us_p50", "us"},
      {"engine.submit_us_p99", "us"},
      {"engine.queue_wait_ms_p50", "ms"},
      {"engine.queue_wait_ms_p99", "ms"},
      {"engine.job_ms_p50", "ms"},
      {"engine.job_ms_p99", "ms"},
      {"engine.graph_acquire_ms_p50", "ms"},
      {"engine.graph_acquire_ms_p99", "ms"},
      {"engine.stage_scale_ms_p50", "ms"},
      {"engine.stage_match_ms_p50", "ms"},
      {"engine.stage_analyze_ms_p50", "ms"},
      {"engine.stage_convert_ms_p50", "ms"},
      {"engine.worker_busy_ratio", "ratio"},
      {"engine.jobs_run", "count"},
      {"engine.jobs_failed", "count"},
      {"job.parse_us_p50", "us"},
      {"graph_cache.hit_ratio", "ratio"},
      {"graph_cache.misses", "count"},
      {"graph_cache.evictions", "count"},
      {"graph_cache.race_discards", "count"},
      {"graph.build_ms_p50", "ms"},
      {"graph.build_medges_per_s", "Medges/s"},
      {"graph_store.spills", "count"},
      {"graph_store.hits", "count"},
      {"graph_store.io_errors", "count"},
      {"graph_store.content_errors", "count"},
      {"graph_store.spill_ms_p50", "ms"},
      {"graph_store.load_ms_p50", "ms"},
      {"graph_store.mb_written", "MB"},
      {"scaling.sk_ms_p50", "ms"},
      {"scaling.iterations", "count"},
      {"scaling.gb_per_s_computed", "GB/s"},
      {"scaling.roofline_ratio", "ratio"},
      {"scaling.speedup_tN", "ratio"},
      {"core.choice_ms_p50", "ms"},
      {"core.ksmt_ms_p50", "ms"},
      {"core.one_sided_ms_p50", "ms"},
      {"core.ksmt_gb_per_s_computed", "GB/s"},
      {"core.ksmt_speedup_tN", "ratio"},
      {"core.one_sided_speedup_tN", "ratio"},
      {"matching.sprank_ms_p50", "ms"},
      {"matching.sprank_share", "ratio"},
      {"matching.karp_sipser_ms_p50", "ms"},
      {"matching.ks_phase1_matches", "count"},
      {"matching.ks_phase2_matches", "count"},
      {"analysis.dm_ms_p50", "ms"},
      {"analysis.sprank_ms_p50", "ms"},
      {"undirected.convert_ms_p50", "ms"},
      {"undirected.one_out_ms_p50", "ms"},
      {"json.render_us_p50", "us"},
      {"json.bytes_per_record", "bytes"},
      {"bench.gen_late_ms_p99", "ms"},
      {"bench.stream_gb_per_s", "GB/s"},
      {"bench.trace_overhead_ratio", "ratio"},
      {"bench.replay_coverage", "ratio"},
  };
  return defs;
}

void Report::fail(std::string why) {
  // Keep the first few messages; the count is what matters beyond that.
  if (violations.size() < 20) std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  violations.push_back(std::move(why));
}

// ------------------------------------------------------------------ stats ---

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(std::string_view text, std::uint64_t hash) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

// ---------------------------------------------------------------- records ---

namespace {

/// Just enough JSON to read a record: a flat object whose values are
/// strings, numbers, booleans, null, or nested arrays/objects (kept raw).
class RecordParser {
public:
  explicit RecordParser(std::string_view text) : s_(text) {}

  template <typename OnField>
  void parse_object(OnField&& on_field) {
    skip_ws();
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return finish();
    }
    for (;;) {
      skip_ws();
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      const std::size_t start = pos_;
      skip_value();
      on_field(key, s_.substr(start, pos_ - start));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return finish();
    }
  }

  static std::string unquote(std::string_view raw) {
    RecordParser p(raw);
    return p.parse_string();
  }

private:
  void finish() {
    skip_ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing characters after record");
  }
  [[nodiscard]] char peek() const {
    if (pos_ >= s_.size()) throw std::runtime_error("record ends early");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) throw std::runtime_error(std::string("expected '") + c + "' in record");
    ++pos_;
  }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t')) ++pos_;
  }
  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        throw std::runtime_error("control character in record string");
      if (c == '\\') {
        const char e = peek();
        ++pos_;
        if (e == 'u') {
          if (pos_ + 4 > s_.size()) throw std::runtime_error("bad escape in record");
          pos_ += 4;
          out += '?';
        } else if (std::string_view("\"\\/bfnrt").find(e) != std::string_view::npos) {
          out += e;
        } else {
          throw std::runtime_error("bad escape in record");
        }
      } else {
        out += c;
      }
    }
  }
  void skip_value() {
    const char c = peek();
    if (c == '"') {
      (void)parse_string();
    } else if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++pos_;
      skip_ws();
      if (peek() == close) {
        ++pos_;
        return;
      }
      for (;;) {
        skip_ws();
        if (c == '{') {
          (void)parse_string();
          skip_ws();
          expect(':');
          skip_ws();
        }
        skip_value();
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(close);
        return;
      }
    } else if (s_.compare(pos_, 4, "true") == 0 || s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
    } else {
      const std::size_t start = pos_;
      while (pos_ < s_.size() && std::string_view("+-.eE0123456789").find(s_[pos_]) !=
                                     std::string_view::npos)
        ++pos_;
      if (pos_ == start) throw std::runtime_error("bad value in record");
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

double to_number(std::string_view raw) {
  const std::string text(raw);
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') throw std::runtime_error("bad number in record");
  return v;
}

bool to_bool(std::string_view raw) {
  if (raw == "true") return true;
  if (raw == "false") return false;
  throw std::runtime_error("expected a boolean in record");
}

/// Sums the "scale" and "match" entries of a record's "stages" array.
double scale_match_seconds(std::string_view stages) {
  double total = 0;
  for (const char* stage : {"\"stage\":\"scale\",\"seconds\":", "\"stage\":\"match\",\"seconds\":"}) {
    const std::size_t at = stages.find(stage);
    if (at == std::string_view::npos) continue;
    const std::size_t from = at + std::string_view(stage).size();
    const std::size_t to = stages.find('}', from);
    total += to_number(stages.substr(from, to - from));
  }
  return total;
}

/// Parses one JSON record line; throws std::runtime_error when malformed.
RecordFacts inspect_record(std::string_view line) {
  RecordFacts facts;
  bool saw_ok = false;
  RecordParser(line).parse_object([&](const std::string& key, std::string_view raw) {
    if (key == "ok") {
      facts.ok = to_bool(raw);
      saw_ok = true;
    } else if (key == "valid") {
      facts.valid = to_bool(raw);
    } else if (key == "cardinality") {
      facts.cardinality = static_cast<std::int64_t>(to_number(raw));
    } else if (key == "sprank") {
      facts.sprank = static_cast<std::int64_t>(to_number(raw));
    } else if (key == "edges") {
      facts.edges = static_cast<std::int64_t>(to_number(raw));
    } else if (key == "quality") {
      facts.quality = to_number(raw);
    } else if (key == "algorithm") {
      facts.algorithm = RecordParser::unquote(raw);
    } else if (key == "stages") {
      facts.scale_match_seconds = scale_match_seconds(raw);
    }
  });
  if (!saw_ok) throw std::runtime_error("record has no \"ok\" field");

  // The timing-free identity of the record: drop the leading job index (it
  // depends on arrival order) and the trailing wall-clock fields.
  std::string_view body = line;
  if (body.substr(0, 7) == "{\"job\":") {
    const std::size_t comma = body.find(',');
    body = body.substr(comma + 1);
  } else {
    body = body.substr(1);
  }
  const std::size_t timings = body.find(",\"stages\":");
  if (timings != std::string_view::npos) body = body.substr(0, timings + 1);
  facts.stable.assign(1, '{');
  facts.stable.append(body.substr(0, body.size() - 1));
  facts.stable += '}';
  return facts;
}

} // namespace

void KernelRates::add(const RecordFacts& facts) {
  if (!(facts.scale_match_seconds > 0)) return;
  const double rate = static_cast<double>(facts.edges) / facts.scale_match_seconds * 1e-6;
  if (facts.algorithm == "two_sided") two_sided.push_back(rate);
  if (facts.algorithm == "one_sided") one_sided.push_back(rate);
}

void KernelRates::report(Report& report) const {
  report.set("two_sided_medges_per_s", median(two_sided));
  report.set("one_sided_medges_per_s", median(one_sided));
}

RecordFacts check_record(std::string_view line, std::optional<std::int64_t> known_sprank,
                         Report& report) {
  RecordFacts facts;
  try {
    facts = inspect_record(line);
  } catch (const std::exception& e) {
    report.fail(std::string("unparsable record (") + e.what() + "): " +
                std::string(line.substr(0, 200)));
    return RecordFacts{};
  }
  if (!facts.ok) {
    report.fail("job failed: " + std::string(line.substr(0, 300)));
    return facts;
  }
  if (facts.valid.has_value() && !*facts.valid)
    report.fail("invalid matching: " + std::string(line.substr(0, 300)));
  const std::int64_t sprank = facts.sprank >= 0 ? facts.sprank : known_sprank.value_or(-1);
  if (sprank >= 0 && facts.cardinality > sprank)
    report.fail("cardinality above sprank: " + std::string(line.substr(0, 300)));
  return facts;
}

// ---------------------------------------------------------------- tracing ---

Tracer::Scope::Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<std::int32_t>(tracer_.spans_.size());
  tracer_.spans_.push_back({name, now_ns(), 0, tracer_.open_, tracer_.job_});
  tracer_.open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
  span.end_ns = now_ns();
  tracer_.open_ = span.parent;
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  return out;
}

double Tracer::self_ms(std::string_view name) const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  auto under_job = [&](std::size_t i) {
    std::int32_t p = spans_[i].parent;
    if (p < 0) return false;
    while (spans_[static_cast<std::size_t>(p)].parent >= 0)
      p = spans_[static_cast<std::size_t>(p)].parent;
    return std::string_view(spans_[static_cast<std::size_t>(p)].name) == "job";
  };
  double total_ns = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const bool match = name.empty() ? under_job(i) : name == spans_[i].name;
    if (!match) continue;
    const std::uint64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    total_ns += static_cast<double>(dur - std::min(dur, child_ns[i]));
  }
  return total_ns * 1e-6;
}

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write trace to %s\n", path.c_str());
    return;
  }
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"job\":%llu,\"span\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",\n", s.name, static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<unsigned long long>(s.job), i, s.parent);
    out << buf;
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

// ----------------------------------------------------------- engine layer ---

bmh::obs::Snapshot snapshot_delta(const bmh::obs::Snapshot& after,
                                  const bmh::obs::Snapshot& before) {
  bmh::obs::Snapshot out = after;
  for (bmh::obs::DomainSnapshot& d : out.domains) {
    const bmh::obs::DomainSnapshot* base = nullptr;
    for (const bmh::obs::DomainSnapshot& b : before.domains)
      if (b.name == d.name && b.instance == d.instance) base = &b;
    if (base == nullptr) continue;
    for (auto& [name, value] : d.counters) value -= base->counter_or(name, 0);
    for (auto& [name, hist] : d.histograms) {
      const bmh::obs::HistogramData* h = base->histogram(name);
      if (h == nullptr) continue;
      for (std::size_t b = 0; b < hist.buckets.size(); ++b) hist.buckets[b] -= h->buckets[b];
      hist.count -= h->count;
      hist.sum_ns -= h->sum_ns;
    }
  }
  return out;
}

bmh::Engine::Stats stats_delta(const bmh::Engine::Stats& after,
                               const bmh::Engine::Stats& before) {
  bmh::Engine::Stats out = after;
  out.jobs_run -= before.jobs_run;
  out.jobs_failed -= before.jobs_failed;
  out.cold_builds -= before.cold_builds;
  out.cache.hits -= before.cache.hits;
  out.cache.misses -= before.cache.misses;
  out.cache.evictions -= before.cache.evictions;
  out.cache.race_discards -= before.cache.race_discards;
  out.cache.store_hits -= before.cache.store_hits;
  out.cache.store_spills -= before.cache.store_spills;
  return out;
}

void engine_layer_metrics(const std::vector<bmh::obs::Snapshot>& snapshots,
                          const std::vector<bmh::Engine::Stats>& stats,
                          double worker_seconds, Report& report) {
  bmh::obs::Snapshot all;
  for (const bmh::obs::Snapshot& s : snapshots)
    all.domains.insert(all.domains.end(), s.domains.begin(), s.domains.end());
  auto hist = [&](const char* metric) { return all.histogram_merged("worker", metric); };
  const bmh::obs::HistogramData queue = hist("queue_wait"), job = hist("job"),
                                acquire = hist("graph_acquire");
  report.set("engine.queue_wait_ms_p50", queue.p50_ns() * 1e-6);
  report.set("engine.queue_wait_ms_p99", queue.p99_ns() * 1e-6);
  report.set("engine.job_ms_p50", job.p50_ns() * 1e-6);
  report.set("engine.job_ms_p99", job.p99_ns() * 1e-6);
  report.set("engine.graph_acquire_ms_p50", acquire.p50_ns() * 1e-6);
  report.set("engine.graph_acquire_ms_p99", acquire.p99_ns() * 1e-6);
  report.set("engine.stage_scale_ms_p50", hist("stage_scale").p50_ns() * 1e-6);
  report.set("engine.stage_match_ms_p50", hist("stage_match").p50_ns() * 1e-6);
  report.set("engine.stage_analyze_ms_p50", hist("stage_analyze").p50_ns() * 1e-6);
  report.set("engine.stage_convert_ms_p50", hist("stage_convert").p50_ns() * 1e-6);
  report.set("engine.worker_busy_ratio",
             worker_seconds > 0 ? static_cast<double>(job.sum_ns) * 1e-9 / worker_seconds : 0);

  bmh::Engine::Stats total;
  for (const bmh::Engine::Stats& s : stats) {
    total.jobs_run += s.jobs_run;
    total.jobs_failed += s.jobs_failed;
    total.cache.hits += s.cache.hits;
    total.cache.misses += s.cache.misses;
    total.cache.evictions += s.cache.evictions;
    total.cache.race_discards += s.cache.race_discards;
    total.cache.store_hits += s.cache.store_hits;
    total.cache.store_spills += s.cache.store_spills;
  }
  report.set("engine.jobs_run", static_cast<double>(total.jobs_run));
  report.set("engine.jobs_failed", static_cast<double>(total.jobs_failed));
  const double lookups = static_cast<double>(total.cache.hits + total.cache.misses);
  report.set("graph_cache.hit_ratio",
             lookups > 0 ? static_cast<double>(total.cache.hits) / lookups : 0);
  report.set("graph_cache.misses", static_cast<double>(total.cache.misses));
  report.set("graph_cache.evictions", static_cast<double>(total.cache.evictions));
  report.set("graph_cache.race_discards", static_cast<double>(total.cache.race_discards));
  report.set("graph_store.spills", static_cast<double>(total.cache.store_spills));
  report.set("graph_store.hits", static_cast<double>(total.cache.store_hits));
  std::uint64_t io_errors = 0, content_errors = 0;
  for (const bmh::obs::DomainSnapshot& d : all.domains) {
    if (d.name != "graph_store") continue;
    io_errors += d.counter_or("io_errors");
    content_errors += d.counter_or("content_errors");
  }
  report.set("graph_store.io_errors", static_cast<double>(io_errors));
  report.set("graph_store.content_errors", static_cast<double>(content_errors));
}

// ---------------------------------------------------------------- machine ---

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

void release_freed_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

double timed_setups(const std::function<void()>& teardown, const std::function<void()>& setup,
                    int rounds) {
  std::vector<double> times;
  for (int round = 0; round < rounds; ++round) {
    teardown();
    release_freed_memory();
    const std::uint64_t start = now_ns();
    setup();
    times.push_back(seconds_since(start));
  }
  return median(times);
}

std::size_t llc_bytes() {
  // The highest cache level sysfs lists for cpu0 is the last-level cache.
  std::size_t best = 0;
  int best_level = -1;
  for (int index = 0; index < 8; ++index) {
    const std::string base = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_in(base + "/level"), size_in(base + "/size");
    int level = 0;
    std::string size;
    if (!(level_in >> level) || !(size_in >> size)) continue;
    std::size_t bytes = std::strtoull(size.c_str(), nullptr, 10);
    if (!size.empty() && size.back() == 'K') bytes <<= 10;
    if (!size.empty() && size.back() == 'M') bytes <<= 20;
    if (level >= best_level) {
      best_level = level;
      best = bytes;
    }
  }
  if (best == 0) {
    const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (l3 > 0) best = static_cast<std::size_t>(l3);
  }
  return best;
}

namespace {

std::string filesystem_type(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994ul: return "tmpfs";
    case 0xEF53ul: return "ext4";
    case 0x794c7630ul: return "overlayfs";
    case 0x58465342ul: return "xfs";
    case 0x9123683Eul: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

} // namespace

double stream_read_gb_per_s(std::size_t bytes, int threads) {
  const std::size_t n = bytes / sizeof(double);
  std::vector<double> a(n);
#pragma omp parallel for schedule(static) num_threads(threads)
  for (std::size_t i = 0; i < n; ++i) a[i] = static_cast<double>(i & 7);
  std::vector<double> rates;
  double sink = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const std::uint64_t start = now_ns();
    double sum = 0;
#pragma omp parallel for schedule(static) num_threads(threads) reduction(+ : sum)
    for (std::size_t i = 0; i < n; ++i) sum += a[i];
    rates.push_back(static_cast<double>(n * sizeof(double)) / seconds_since(start) * 1e-9);
    sink += sum;
  }
  if (sink < 0) std::fprintf(stderr, "%f\n", sink);  // keeps the sums observable
  return median(rates);
}

// ----------------------------------------------------------------- output ---

namespace {

std::string json_text(const std::string& text) {
  std::string out(1, '"');
  out += bmh::json_escape(text);
  out += '"';
  return out;
}

std::string env_omp() {
  std::string out;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::string_view(*e).rfind("OMP_", 0) == 0) {
      if (!out.empty()) out += ' ';
      out += *e;
    }
  return out.empty() ? "(unset)" : out;
}

} // namespace

void print_detail(const Report& report) {
  std::ostringstream out;
  out << "{\"detail\":{";
  bool first = true;
  for (const auto& [key, value] : report.detail) {
    out << (first ? "" : ",") << json_text(key) << ":" << bmh::json_number(value);
    first = false;
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
}

void print_fingerprint(const Options& opts, const Report& report) {
  std::ostringstream out;
  out << "{\"fingerprint\":{";
  out << "\"workload\":" << json_text(opts.workload);
  out << ",\"seed\":" << opts.seed;
  out << ",\"seconds\":" << bmh::json_number(opts.seconds);
  out << ",\"trace\":" << (opts.trace ? 1 : 0);
  out << ",\"tiny\":" << (opts.tiny ? "true" : "false");
  out << ",\"cores\":" << opts.cores;
  out << ",\"hardware_threads\":" << std::thread::hardware_concurrency();
  out << ",\"llc_bytes\":" << llc_bytes();
  out << ",\"compiler\":" << json_text(__VERSION__);
  out << ",\"cxx_flags\":" << json_text(PERFBENCH_CXX_FLAGS);
  out << ",\"build_type\":" << json_text(PERFBENCH_BUILD_TYPE);
  out << ",\"omp_env\":" << json_text(env_omp());
  out << ",\"obs\":" << json_text(bmh::obs::kEnabled ? "on" : "off");
  out << ",\"work_dir_filesystem\":"
      << json_text(filesystem_type(std::filesystem::path(opts.work_dir).parent_path()));
  for (const auto& [key, value] : report.config) out << "," << json_text(key) << ":" << json_text(value);
  out << ",\"digest\":" << json_text([&] {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(report.digest));
    return std::string(buf);
  }());
  out << "}}";
  std::printf("%s\n", out.str().c_str());
}

void print_result(const Options& opts, const Report& report) {
  std::ostringstream out;
  out << "{\"correct\":" << (report.correct() ? "true" : "false");
  out << ",\"attempted\":" << report.attempted << ",\"failed\":" << report.failed;
  out << ",\"metrics\":{";
  const auto& defs = opts.trace ? per_layer_metrics() : end_to_end_metrics();
  bool first = true;
  for (const MetricDef& def : defs) {
    const auto it = report.values.find(def.name);
    if (it == report.values.end())
      throw std::logic_error(std::string("metric not measured: ") + def.name);
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(it->second) ? it->second : 0.0);
    out << (first ? "" : ",") << "\"" << def.name << "\":{\"value\":" << value
        << ",\"unit\":\"" << def.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

} // namespace perfbench
