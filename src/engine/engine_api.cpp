#include "engine/engine_api.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <exception>
#include <map>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "core/workspace.hpp"
#include "engine/graph_store.hpp"
#include "graph/serialize.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/threading.hpp"

namespace bmh {

std::uint64_t derive_job_seed(std::uint64_t batch_seed, std::size_t index) noexcept {
  return Rng(batch_seed).fork(static_cast<std::uint64_t>(index)).next();
}

const char* to_string(ErrorKind kind) noexcept {
  switch (kind) {
    case ErrorKind::kNone: return "";
    case ErrorKind::kParse: return "parse";
    case ErrorKind::kSourceIo: return "source_io";
    case ErrorKind::kStoreIo: return "store_io";
    case ErrorKind::kBuild: return "build";
    case ErrorKind::kExec: return "exec";
    case ErrorKind::kTimeout: return "timeout";
  }
  return "";
}

JobResult parse_error_result(std::size_t index, std::string name, std::string input,
                             std::string message) {
  JobResult out;
  out.index = index;
  out.name = std::move(name);
  out.input = std::move(input);
  out.ok = false;
  out.error = std::move(message);
  out.error_kind = ErrorKind::kParse;
  return out;
}

namespace {

/// Total tries at acquiring a graph whose failure looked transient: the
/// original attempt plus one retry after a short jittered backoff. Bounded
/// and small on purpose — a worker sleeping in a retry loop is a worker not
/// serving jobs, and persistent failures should surface, not spin.
constexpr int kAcquireAttempts = 2;

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

/// A graph-acquire failure worth one more try: the input exists and the spec
/// is fine, the I/O just failed this instant. Content rejections (a corrupt
/// store file is already healed + rebuilt inside try_load; a malformed spec
/// is invalid_argument) are deterministic and never retried.
[[nodiscard]] bool transient_acquire_error(const std::exception& e) noexcept {
  if (dynamic_cast<const SourceIoError*>(&e) != nullptr) return true;
  if (const auto* f = dynamic_cast<const fp::FailpointError*>(&e); f != nullptr)
    return starts_with(f->site(), "source.");
  return false;
}

/// Maps an escaped exception to its failure domain. `acquire` distinguishes
/// the graph-acquire phase (spec/source/store/build failures) from pipeline
/// execution (everything is exec there — stage code validated its own
/// arguments by then).
[[nodiscard]] ErrorKind classify_error(const std::exception& e,
                                       bool acquire) noexcept {
  if (dynamic_cast<const SourceIoError*>(&e) != nullptr) return ErrorKind::kSourceIo;
  if (dynamic_cast<const GraphFileError*>(&e) != nullptr) return ErrorKind::kStoreIo;
  if (const auto* f = dynamic_cast<const fp::FailpointError*>(&e); f != nullptr) {
    const std::string& site = f->site();
    if (starts_with(site, "source.")) return ErrorKind::kSourceIo;
    if (starts_with(site, "store.") || starts_with(site, "serialize.") ||
        starts_with(site, "mmap.") || starts_with(site, "cache."))
      return ErrorKind::kStoreIo;
    return ErrorKind::kExec;
  }
  if (!acquire) return ErrorKind::kExec;
  if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr)
    return ErrorKind::kParse;
  return ErrorKind::kBuild;
}

/// One stderr note per process for throwing deliver callbacks — the
/// `callback_errors` counter carries the ongoing tally; repeating the
/// message per job would drown real diagnostics under a hot broken sink.
void warn_callback_error(const char* what) noexcept {
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed))
    std::fprintf(stderr,
                 "bmh: a result callback threw ('%s'); the exception was "
                 "contained — callbacks must not throw, further throws are "
                 "counted silently (worker.callback_errors)\n",
                 what);
}

} // namespace

/// A caller's batch, viewed — the caller blocks in run()/run_collect()
/// until `finished`, so the vector outlives the batch. Workers claim
/// indices with one atomic fetch_add each, so a million-job batch costs a
/// handful of ring descriptors (one per worker), not a million. Single-job
/// submits don't come through here — they ride the slot freelist
/// (SubmitSlot).
struct Engine::Batch {
  const JobSpec* jobs = nullptr;  ///< base of the job array
  std::size_t count = 0;
  std::uint64_t enqueue_ns = 0;   ///< obs::now_ns() when accepted (queue wait)
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  /// Invoked on worker threads, unsynchronized — each caller owns its
  /// ordering (run() reorders by index, run_collect() writes by slot).
  std::function<void(std::size_t, JobResult&&)> deliver;
  std::promise<void> finished;    ///< fulfilled when completed == count
};

/// A worker's pre-resolved instruments: looked up once at thread start (the
/// find-or-create path takes a mutex), then every per-job update is a
/// relaxed atomic through these pointers — the hot path never touches a
/// lock or an allocation. Also carries the per-job scratch execute() hands
/// back to the publish burst in run_job (single-threaded per worker).
struct Engine::WorkerObs {
  obs::MetricDomain* domain = nullptr;
  obs::Counter* jobs_run = nullptr;
  obs::Counter* jobs_failed = nullptr;
  obs::Counter* direct_builds = nullptr;
  // Per-kind slices of jobs_run (their sum), so dashboards can tell a
  // matching-serving engine from an analysis one at a glance.
  obs::Counter* jobs_run_match = nullptr;
  obs::Counter* jobs_run_undirected_match = nullptr;
  obs::Counter* jobs_run_analyze = nullptr;
  // Per-ErrorKind slices of jobs_failed (their sum): "the disk is dying"
  // (store_io) and "clients send garbage" (parse) are different pages.
  obs::Counter* jobs_failed_parse = nullptr;
  obs::Counter* jobs_failed_source_io = nullptr;
  obs::Counter* jobs_failed_store_io = nullptr;
  obs::Counter* jobs_failed_build = nullptr;
  obs::Counter* jobs_failed_exec = nullptr;
  obs::Counter* jobs_failed_timeout = nullptr;
  obs::Counter* io_retries = nullptr;        ///< transient acquire retries taken
  obs::Counter* callback_errors = nullptr;   ///< deliver callbacks that threw
  obs::Histogram* queue_wait = nullptr;
  obs::Histogram* graph_acquire = nullptr;
  obs::Histogram* job = nullptr;
  obs::Histogram* stage_scale = nullptr;
  obs::Histogram* stage_match = nullptr;
  obs::Histogram* stage_augment = nullptr;
  obs::Histogram* stage_analyze = nullptr;
  obs::Histogram* stage_convert = nullptr;
  obs::Gauge* ws_bytes = nullptr;
  // Scratch for the job being executed:
  std::uint64_t graph_acquire_ns = 0;
  bool direct_build = false;
  std::uint32_t job_io_retries = 0;
};

Engine::WorkerObs Engine::resolve_worker_obs(obs::MetricDomain& domain) {
  WorkerObs wo;
  wo.domain = &domain;
  wo.jobs_run = &domain.counter("jobs_run");
  wo.jobs_failed = &domain.counter("jobs_failed");
  wo.direct_builds = &domain.counter("direct_builds");
  wo.jobs_run_match = &domain.counter("jobs_run_match");
  wo.jobs_run_undirected_match = &domain.counter("jobs_run_undirected_match");
  wo.jobs_run_analyze = &domain.counter("jobs_run_analyze");
  wo.jobs_failed_parse = &domain.counter("jobs_failed_parse");
  wo.jobs_failed_source_io = &domain.counter("jobs_failed_source_io");
  wo.jobs_failed_store_io = &domain.counter("jobs_failed_store_io");
  wo.jobs_failed_build = &domain.counter("jobs_failed_build");
  wo.jobs_failed_exec = &domain.counter("jobs_failed_exec");
  wo.jobs_failed_timeout = &domain.counter("jobs_failed_timeout");
  wo.io_retries = &domain.counter("io_retries");
  wo.callback_errors = &domain.counter("callback_errors");
  wo.queue_wait = &domain.histogram("queue_wait");
  wo.graph_acquire = &domain.histogram("graph_acquire");
  wo.job = &domain.histogram("job");
  wo.stage_scale = &domain.histogram("stage_scale");
  wo.stage_match = &domain.histogram("stage_match");
  wo.stage_augment = &domain.histogram("stage_augment");
  wo.stage_analyze = &domain.histogram("stage_analyze");
  wo.stage_convert = &domain.histogram("stage_convert");
  wo.ws_bytes = &domain.gauge("ws_reserved_bytes");
  return wo;
}

/// Resolves the auto-sized knobs before the member init list runs: the ring
/// members are fixed-capacity at construction, so threads and queue depth
/// must be final by the time they initialize.
EngineConfig Engine::resolve(EngineConfig config) {
  int threads = config.threads > 0 ? config.threads : num_procs();
  config.threads = std::max(threads, 1);
  std::size_t depth = config.submit_queue_depth != 0
                          ? config.submit_queue_depth
                          : std::max<std::size_t>(
                                1024, static_cast<std::size_t>(config.threads) * 4);
  config.submit_queue_depth = std::bit_ceil(std::max<std::size_t>(depth, 2));
  return config;
}

Engine::Engine(EngineConfig config)
    : config_(resolve(std::move(config))),
      threads_(config_.threads),
      ring_(2 * config_.submit_queue_depth),
      free_slots_(config_.submit_queue_depth),
      slots_(config_.submit_queue_depth) {
  // The freelist starts full: every slot index is available to producers.
  for (std::uint32_t i = 0; i < slots_.size(); ++i)
    free_slots_.push(std::uint32_t{i});

  if (config_.graph_cache != nullptr) {
    cache_ = config_.graph_cache;
  } else if (config_.graph_cache_mb > 0) {
    GraphCache::Options cache_options;
    cache_options.max_bytes = config_.graph_cache_mb << 20;
    if (!config_.graph_store_dir.empty()) {
      GraphStore::Options store_options;
      store_options.max_bytes = config_.store_budget_mb << 20;
      store_options.fsync = config_.store_fsync;
      owned_store_ =
          std::make_unique<GraphStore>(config_.graph_store_dir, store_options);
      cache_options.store = owned_store_.get();
    }
    owned_cache_ = std::make_unique<GraphCache>(cache_options);
    cache_ = owned_cache_.get();
  }

  // Observability plumbing precedes the threads so the vectors are
  // immutable (and the registry list stable) while the pool runs: one
  // single-writer metric domain and one bounded trace journal per worker,
  // with the cache's and store's multi-writer domains attached alongside —
  // Engine::metrics() reads all of them through one registry.
  worker_domains_.reserve(static_cast<std::size_t>(threads_));
  journals_.reserve(static_cast<std::size_t>(threads_));
  for (int t = 0; t < threads_; ++t) {
    worker_domains_.push_back(&registry_.create_domain("worker", t));
    journals_.push_back(std::make_unique<obs::TraceJournal>());
    // Materialize the worker's instruments now, on the constructing thread:
    // a metrics() snapshot taken before a worker claims its first job must
    // already see the domain's full shape (all counters/histograms at zero),
    // not a partially-populated domain.
    (void)resolve_worker_obs(*worker_domains_.back());
  }
  if (cache_ != nullptr) registry_.attach(&cache_->metric_domain());
  if (GraphStore* st = cache_ != nullptr ? cache_->store() : nullptr; st != nullptr)
    registry_.attach(&st->metric_domain());
  // In failpoint builds the process-wide hit counters ride along in every
  // metrics() snapshot, so a fault-schedule run can be audited from the same
  // exporter as everything else. (The domain is a process singleton; several
  // engines may each attach it to their own registry.)
  if constexpr (fp::kCompiled) registry_.attach(&fp::metric_domain());

  // Each std::thread owns its OpenMP nthreads ICV, so the per-job budget set
  // inside a pipeline never leaks across workers.
  workers_.reserve(static_cast<std::size_t>(threads_));
  for (int t = 0; t < threads_; ++t)
    workers_.emplace_back([this, t] { worker_loop(t); });
}

Engine::~Engine() {
  // release pairs with the workers' acquire loads of stopping_.
  stopping_.store(true, std::memory_order_release);
  // The empty critical section orders the flag against sleepers that are
  // between their ring re-check and the wait — the notify can't land in
  // that window because we hold the mutex they re-check under.
  { LockGuard lock(wake_mutex_); }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

GraphStore* Engine::store() const noexcept {
  return cache_ != nullptr ? cache_->store() : nullptr;
}

/// Post-publish wake protocol, shared by every producer path. The seq_cst
/// fence pairs with the one a worker issues after registering in sleepers_:
/// either the producer observes the registration (and pays the mutex +
/// notify), or the worker's re-check observes the published item — never
/// neither. With no sleepers this is one fence and one relaxed load.
void Engine::wake_one() noexcept {
  // seq_cst: Dekker pairing with the worker's post-registration fence.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_relaxed) > 0) {
    // Empty critical section: a worker between registering and waiting
    // holds wake_mutex_, so our notify is ordered after its wait begins.
    { LockGuard lock(wake_mutex_); }
    work_cv_.notify_one();
  }
}

void Engine::enqueue_and_wait(const std::vector<JobSpec>& jobs,
                              std::function<void(std::size_t, JobResult&&)> deliver) {
  if (jobs.empty()) return;
  auto batch = std::make_shared<Batch>();
  batch->jobs = jobs.data();
  batch->count = jobs.size();
  batch->deliver = std::move(deliver);
  std::future<void> finished = batch->finished.get_future();
  if constexpr (obs::kEnabled) batch->enqueue_ns = obs::now_ns();
  // seq_cst: the drain protocol's pending_submits_ check must totally order
  // against this registration (see worker_loop's stopping branch).
  pending_submits_.fetch_add(1, std::memory_order_seq_cst);
  // Fan out one descriptor per worker that could usefully join the drain;
  // claims inside the batch are fetch_add on Batch::next, so extra
  // descriptors popped after the batch is exhausted are dropped harmlessly.
  const std::size_t fanout =
      std::min<std::size_t>(static_cast<std::size_t>(threads_), batch->count);
  for (std::size_t k = 0; k < fanout; ++k) {
    ring_.push(WorkItem{batch, 0});
    wake_one();
  }
  // release: deregistration must order after the ring publishes above.
  pending_submits_.fetch_sub(1, std::memory_order_release);
  finished.wait();
}

/// Per-worker accumulator for the counters that tolerate batching: the
/// per-kind and per-ErrorKind slices, retry and direct-build tallies. The
/// invariant-bearing trio (jobs_run, jobs_failed, every histogram) still
/// publishes per job under one PublishGuard; these slices flush once per
/// drain run (plus every 64 jobs as a staleness bound), so a hot drain pays
/// one seqlock bracket for the breakdown instead of one per job. Flushed
/// before any blocking caller can observe completion — see run_job and
/// run_item.
struct Engine::WorkerSlices {
  std::uint64_t run_match = 0;
  std::uint64_t run_undirected_match = 0;
  std::uint64_t run_analyze = 0;
  std::uint64_t failed_parse = 0;
  std::uint64_t failed_source_io = 0;
  std::uint64_t failed_store_io = 0;
  std::uint64_t failed_build = 0;
  std::uint64_t failed_exec = 0;
  std::uint64_t failed_timeout = 0;
  std::uint64_t io_retries = 0;
  std::uint64_t direct_builds = 0;
  unsigned since_flush = 0;

  void account(const JobResult& result, const WorkerObs& wo) noexcept {
    switch (result.kind) {
      case JobKind::kMatch: ++run_match; break;
      case JobKind::kUndirectedMatch: ++run_undirected_match; break;
      case JobKind::kAnalyze: ++run_analyze; break;
    }
    if (!result.ok) {
      switch (result.error_kind) {
        case ErrorKind::kParse: ++failed_parse; break;
        case ErrorKind::kSourceIo: ++failed_source_io; break;
        case ErrorKind::kStoreIo: ++failed_store_io; break;
        case ErrorKind::kBuild: ++failed_build; break;
        case ErrorKind::kTimeout: ++failed_timeout; break;
        case ErrorKind::kExec:
        case ErrorKind::kNone: ++failed_exec; break;
      }
    }
    io_retries += wo.job_io_retries;
    if (wo.direct_build) ++direct_builds;
    ++since_flush;
  }

  void flush(WorkerObs& wo) {
    if (since_flush == 0) return;
    obs::PublishGuard guard(*wo.domain);
    if (run_match != 0) wo.jobs_run_match->inc(run_match);
    if (run_undirected_match != 0)
      wo.jobs_run_undirected_match->inc(run_undirected_match);
    if (run_analyze != 0) wo.jobs_run_analyze->inc(run_analyze);
    if (failed_parse != 0) wo.jobs_failed_parse->inc(failed_parse);
    if (failed_source_io != 0) wo.jobs_failed_source_io->inc(failed_source_io);
    if (failed_store_io != 0) wo.jobs_failed_store_io->inc(failed_store_io);
    if (failed_build != 0) wo.jobs_failed_build->inc(failed_build);
    if (failed_exec != 0) wo.jobs_failed_exec->inc(failed_exec);
    if (failed_timeout != 0) wo.jobs_failed_timeout->inc(failed_timeout);
    if (io_retries != 0) wo.io_retries->inc(io_retries);
    if (direct_builds != 0) wo.direct_builds->inc(direct_builds);
    *this = WorkerSlices{};
  }
};

namespace {
/// Staleness bound on the deferred slice counters: a worker in a long drain
/// flushes at least this often, so dashboards never trail by more than a
/// blink even when the ring never runs dry.
constexpr unsigned kSliceFlushEvery = 64;
} // namespace

/// Everything a worker thread owns, reused across every job it ever
/// executes — batches and submits alike: one scratch arena (after its first
/// job of each shape the pipeline hot path performs no heap allocations),
/// its pre-resolved instruments, and the deferred slice counters.
struct Engine::Worker {
  Workspace ws;
  WorkerObs obs;
  WorkerSlices slices;
};

void Engine::worker_loop(int worker) {
  // Re-resolve this worker's instruments (pure find: the constructor already
  // materialized them) and bind its trace journal; from here on every job's
  // accounting is relaxed atomics through WorkerObs — nothing
  // observability-related allocates or locks on the hot path.
  Worker w;
  w.obs = resolve_worker_obs(*worker_domains_[static_cast<std::size_t>(worker)]);
  obs::bind_thread_journal(journals_[static_cast<std::size_t>(worker)].get());

  WorkItem item;
  for (;;) {
    // Drain protocol: once stopping, a submit that already entered
    // (pending_submits_ registered) may hold a claimed-but-unpublished ring
    // position that try_pop cannot see. Only a pop that fails *after* we
    // observed no such producer proves the ring drained; until then keep
    // popping (a producer blocked on a full ring needs us to free slots)
    // and yield. Submits that begin after that final empty observation are
    // the caller racing the destructor's completion, which no object can
    // survive. acquire pairs with the destructor's release store.
    const bool stopping = stopping_.load(std::memory_order_acquire);
    // seq_cst: totally ordered against the producers' registrations.
    const bool final_look = stopping && pending_submits_.load(std::memory_order_seq_cst) == 0;
    if (ring_.try_pop(item)) {
      run_item(item, w);
      continue;
    }
    if (final_look) {
      w.slices.flush(w.obs);
      return;
    }
    if (stopping) {
      std::this_thread::yield();
      continue;
    }
    // Nothing ready: park. Register as a sleeper first, then re-check the
    // ring (Dekker pairing with wake_one's fence) so a publish that raced
    // our pop either sees our registration or is seen by this re-check.
    w.slices.flush(w.obs);
    UniqueLock lock(wake_mutex_);
    // seq_cst registration + fence: Dekker pairing with wake_one()'s fence,
    // so a racing producer either sees the sleeper or is seen by the
    // re-check below. The stopping_ acquire pairs with ~Engine's release.
    sleepers_.fetch_add(1, std::memory_order_seq_cst);    // register sleeper
    std::atomic_thread_fence(std::memory_order_seq_cst);  // pairs wake_one()
    while (!ring_.ready() &&
           // acquire pairs with ~Engine's release store of stopping_
           !stopping_.load(std::memory_order_acquire))
      work_cv_.wait(lock);
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }
}

/// The one dispatch over the two descriptor kinds. Each keeps its own
/// slice-flush rule, because metrics() must be exact once any blocking call
/// returns: a batch flushes once per drain run, before its completion
/// bookkeeping can wake the caller; a submit flushes before delivering
/// whenever the ring has run dry (see run_job).
void Engine::run_item(WorkItem& item, Worker& w) {
  if (item.batch == nullptr) {
    SubmitSlot& slot = slots_[item.slot];
    // Move the submission out and recycle the slot before executing: the
    // engine's submission capacity bounds *queued* jobs, and a slot pinned
    // for a job's whole runtime would halve the effective window.
    const JobSpec job = std::move(slot.job);
    const std::function<void(JobResult&&)> done = std::move(slot.done);
    const std::size_t index = slot.index;
    const std::uint64_t enqueue_ns = slot.enqueue_ns;
    free_slots_.push(std::uint32_t{item.slot});
    run_job(job, index, enqueue_ns, /*flush_if_idle=*/true, w,
            [&](JobResult&& result) {
              if (done) done(std::move(result));
            });
    return;
  }
  // Drain without re-touching any queue state: each claim is one
  // uncontended fetch_add, so a million-job batch costs a million atomic
  // increments against its own counter, not a million ring operations.
  Batch& batch = *item.batch;
  std::size_t drained = 0;
  for (std::size_t i = 0;
       (i = batch.next.fetch_add(1, std::memory_order_relaxed)) < batch.count;
       ++drained)
    run_job(batch.jobs[i], i, batch.enqueue_ns, /*flush_if_idle=*/false, w,
            [&](JobResult&& result) { batch.deliver(i, std::move(result)); });
  if (drained != 0) {
    // Flush the slices *before* the completion bookkeeping: the caller
    // blocked on `finished` reads metrics the moment its future fires, and
    // must see this run's breakdown (the promise's internal synchronization
    // publishes the flushed values).
    w.slices.flush(w.obs);
    // Batched completion: one fetch_add covers every job this worker
    // drained in the run, instead of one per job.
    if (batch.completed.fetch_add(drained, std::memory_order_acq_rel) + drained ==
        batch.count)
      batch.finished.set_value();
  }
  item.batch.reset();  // drop the ref before sleeping on an idle ring
}

/// The one per-job routine both descriptor kinds reach: claim timing,
/// execution, the published counters and the contained delivery.
template <typename Deliver>
void Engine::run_job(const JobSpec& job, std::size_t index, std::uint64_t enqueue_ns,
                     bool flush_if_idle, Worker& w, Deliver&& deliver) {
  WorkerObs& wo = w.obs;
  const std::uint64_t claimed_ns = obs::kEnabled ? obs::now_ns() : 0;
  const std::uint64_t queue_wait_ns =
      claimed_ns > enqueue_ns ? claimed_ns - enqueue_ns : 0;
  obs::record_phase("queue_wait", enqueue_ns, queue_wait_ns);
  wo.graph_acquire_ns = 0;
  wo.direct_build = false;
  wo.job_io_retries = 0;
  JobResult result = execute(job, index, w);
  // One seqlock-bracketed burst publishes the job's invariant-bearing
  // counters: a concurrent metrics() snapshot sees all of it or none of it —
  // jobs_run can never lead its own latency sample or its failure count
  // within one worker domain. The breakdown slices accumulate in w.slices.
  {
    obs::PublishGuard guard(*wo.domain);
    wo.jobs_run->inc();
    if (!result.ok) wo.jobs_failed->inc();
    if constexpr (obs::kEnabled) {
      wo.queue_wait->record(queue_wait_ns);
      wo.graph_acquire->record(wo.graph_acquire_ns);
      wo.job->record(obs::now_ns() - claimed_ns);
      for (const StageStats& st : result.result.stages) {
        if (st.stage == "scale") wo.stage_scale->record_seconds(st.seconds);
        else if (st.stage == "match") wo.stage_match->record_seconds(st.seconds);
        else if (st.stage == "augment") wo.stage_augment->record_seconds(st.seconds);
        else if (st.stage == "analyze") wo.stage_analyze->record_seconds(st.seconds);
        else if (st.stage == "convert") wo.stage_convert->record_seconds(st.seconds);
      }
      wo.ws_bytes->set(static_cast<std::int64_t>(w.ws.bytes_reserved()));
    }
  }
  w.slices.account(result, wo);
  // With `flush_if_idle`, flush before delivering when no more work is
  // immediately ready: the delivery may fulfil a future someone is blocked
  // on, and a caller that serializes — submit, get, read metrics — must see
  // this job's slices. Under open-loop load the ring stays ready and the
  // flush amortizes across the run; kSliceFlushEvery bounds staleness.
  if (w.slices.since_flush >= kSliceFlushEvery || (flush_if_idle && !ring_.ready()))
    w.slices.flush(wo);
  // Containment boundary: deliver runs caller code (run()'s sink, a submit
  // callback) on this pool thread. A throw costs the caller its own
  // notification and nothing else: the counter ticks, one note hits stderr
  // per process, the batch still completes and every other job delivers.
  try {
    deliver(std::move(result));
  } catch (const std::exception& e) {
    wo.callback_errors->inc();
    warn_callback_error(e.what());
  } catch (...) {
    wo.callback_errors->inc();
    warn_callback_error("non-exception throw");
  }
}

JobResult Engine::execute(const JobSpec& job, std::size_t index, Worker& w) {
  BMH_SPAN("job");
  JobResult out;
  out.index = index;
  out.name = job.name;
  out.input = job.input.spec;
  out.kind = job.kind;
  out.algorithm = job.pipeline.algorithm;
  out.seed = job.seed.value_or(derive_job_seed(config_.seed, index));
  // The deadline clock starts when a worker picks the job up (queue wait is
  // the engine's fault, not the job's) and is enforced at the failure
  // boundaries: after acquire and on entry to every pipeline stage.
  const std::int64_t deadline_ns =
      job.timeout_ms > 0
          ? steady_now_ns() + static_cast<std::int64_t>(job.timeout_ms) * 1'000'000
          : 0;
  // Which phase an exception escaped from drives its classification: during
  // acquire a std::invalid_argument is a spec problem (parse) and a generic
  // failure is a build problem; once the pipeline runs, failures are exec.
  bool acquiring = true;
  try {
    // Cache-served graphs are shared immutable state; `shared` keeps the
    // entry alive across the pipeline however the cache evicts. Results are
    // identical with or without the cache — build_graph is deterministic in
    // (spec, effective seed).
    std::shared_ptr<const BipartiteGraph> shared;
    std::optional<BipartiteGraph> local;
    const BipartiteGraph* graph = nullptr;
    const std::uint64_t acquire_start = obs::kEnabled ? obs::now_ns() : 0;
    {
      BMH_SPAN("graph_acquire");
      // Transient-I/O retry: one extra attempt, short jittered backoff. The
      // store tier never needs this (try_load/spill absorb their own
      // failures and fall back to building), but a source read can fail for
      // reasons that pass an instant later. Deterministic failures — spec
      // errors, content rejections — rethrow immediately; see
      // transient_acquire_error.
      for (int attempt = 1;; ++attempt) {
        try {
          if (cache_ != nullptr) {
            shared = cache_->get_or_build(job.input, out.seed);
            graph = shared.get();
          } else {
            local.emplace(build_graph(job.input, out.seed));
            w.obs.direct_build = true;  // counted in run_job's slice tally
            graph = &*local;
          }
          break;
        } catch (const std::exception& e) {
          if (attempt >= kAcquireAttempts || !transient_acquire_error(e)) throw;
          ++w.obs.job_io_retries;
          // Jitter off the job seed: deterministic for a given job, spread
          // across a batch so retries of many jobs don't re-collide.
          const std::uint64_t jitter_us =
              500 + Rng(out.seed).fork(static_cast<std::uint64_t>(attempt)).next() % 1500;
          std::this_thread::sleep_for(std::chrono::microseconds(jitter_us));
        }
      }
    }
    if constexpr (obs::kEnabled) w.obs.graph_acquire_ns = obs::now_ns() - acquire_start;
    out.rows = graph->num_rows();
    out.cols = graph->num_cols();
    out.edges = graph->num_edges();
    if (deadline_ns != 0 && steady_now_ns() >= deadline_ns)
      throw JobTimeoutError("deadline exceeded after graph acquire (timeout_ms=" +
                            std::to_string(job.timeout_ms) + ")");

    PipelineConfig config = job.pipeline;
    config.options.seed = out.seed;
    config.deadline_ns = deadline_ns;
    // The spec's thread budget wins; otherwise the engine-wide per-job one.
    if (config.options.threads <= 0) config.options.threads = config_.threads_per_job;
    acquiring = false;
    // Every kind shares the acquire path above — one pool, one cache, one
    // store — and diverges only in which pipeline body runs.
    switch (job.kind) {
      case JobKind::kMatch:
        run_pipeline_ws(*graph, config, w.ws, out.result);
        break;
      case JobKind::kUndirectedMatch:
        run_undirected_pipeline_ws(*graph, config, w.ws, out.result);
        break;
      case JobKind::kAnalyze:
        run_analyze_pipeline_ws(*graph, config, w.ws, out.result);
        break;
    }
    out.ok = true;
  } catch (const JobTimeoutError& e) {
    out.error = e.what();
    out.error_kind = ErrorKind::kTimeout;
  } catch (const std::exception& e) {
    out.error = e.what();
    out.error_kind = classify_error(e, acquiring);
  } catch (...) {
    // Last-resort containment: whatever escaped (a non-std throw from a
    // user-registered algorithm, say) must not unwind into worker_loop and
    // take the thread — and the whole process — with it.
    out.error = "unknown non-exception throw";
    out.error_kind = acquiring ? ErrorKind::kBuild : ErrorKind::kExec;
  }
  return out;
}

std::future<JobResult> Engine::submit(JobSpec job) {
  auto promise = std::make_shared<std::promise<JobResult>>();
  std::future<JobResult> future = promise->get_future();
  submit(std::move(job), [promise](JobResult&& result) {
    promise->set_value(std::move(result));
  });
  return future;
}

/// Blocking slot acquisition: the backpressure point of the submit path.
/// An empty freelist means submit_capacity() jobs are already queued; wait
/// for a worker to recycle one (workers free a slot the moment they claim
/// its job, before executing, so the wait is bounded by claim latency, not
/// job runtime).
std::uint32_t Engine::acquire_slot_blocking() {
  std::uint32_t slot = 0;
  unsigned spins = 0;
  while (!free_slots_.try_pop(slot)) detail::ring_backoff(spins);
  return slot;
}

/// Fills the slot and publishes its descriptor. The auto derivation index
/// is claimed here — after the point of no return — so a failed try_submit
/// never leaves a hole in the index sequence. The ring push is the blocking
/// form, but holding a freelist slot bounds ring occupancy by construction
/// (slot descriptors <= capacity, batch descriptors <= threads per batch in
/// a 2x-capacity ring), so it only ever spins on a momentary collision.
void Engine::publish_slot(std::uint32_t slot_index, JobSpec&& job,
                          std::function<void(JobResult&&)>&& done,
                          std::optional<std::size_t> index) {
  SubmitSlot& slot = slots_[slot_index];
  slot.job = std::move(job);    // move-assign: reuses the slot's buffers
  slot.done = std::move(done);
  slot.index = index.has_value()
                   ? *index
                   : submit_seq_.fetch_add(1, std::memory_order_relaxed);
  slot.enqueue_ns = obs::kEnabled ? obs::now_ns() : 0;
  ring_.push(WorkItem{nullptr, slot_index});
  wake_one();
}

void Engine::submit(JobSpec job, std::function<void(JobResult&&)> done,
                    std::optional<std::size_t> index) {
  // pending_submits_ brackets the whole call so the destructor's drain
  // waits out a submit that has entered but not yet published (including
  // one blocked on a full ring). The decrement is this call's final touch
  // of the engine, release-ordered against the publish.
  pending_submits_.fetch_add(1, std::memory_order_seq_cst);  // drain ordering
  const std::uint32_t slot = acquire_slot_blocking();
  publish_slot(slot, std::move(job), std::move(done), index);
  // release: deregistration orders after the slot publish above.
  pending_submits_.fetch_sub(1, std::memory_order_release);
}

bool Engine::try_submit(JobSpec&& job, std::function<void(JobResult&&)>&& done,
                        std::optional<std::size_t> index) {
  pending_submits_.fetch_add(1, std::memory_order_seq_cst);  // drain ordering
  std::uint32_t slot = 0;
  if (!free_slots_.try_pop(slot)) {
    // release matches the success path; nothing was published to order.
    pending_submits_.fetch_sub(1, std::memory_order_release);
    return false;  // full: caller keeps job and callback untouched
  }
  publish_slot(slot, std::move(job), std::move(done), index);
  // release: deregistration orders after the slot publish above.
  pending_submits_.fetch_sub(1, std::memory_order_release);
  return true;
}

std::size_t Engine::run(const std::vector<JobSpec>& jobs,
                        const std::function<void(const JobResult&)>& sink) {
  // Out-of-order finishers park here until every lower index has been
  // emitted; in the steady state the window holds at most ~threads records.
  // Locals suffice: every deliver happens-before the batch completes, and
  // this frame outlives the wait.
  Mutex mutex;
  std::map<std::size_t, JobResult> pending;
  std::size_t next_emit = 0;
  std::size_t failed = 0;
  enqueue_and_wait(jobs, [&](std::size_t i, JobResult&& result) {
    LockGuard lock(mutex);
    pending.emplace(i, std::move(result));
    // A throwing sink must not stall or repeat the stream: every ready
    // record is still emitted exactly once, and the first throw is rethrown
    // afterwards for the worker's containment boundary (run_job) to count.
    std::exception_ptr thrown;
    while (!pending.empty() && pending.begin()->first == next_emit) {
      const JobResult& head = pending.begin()->second;
      if (!head.ok) ++failed;
      if (sink) {
        try {
          sink(head);
        } catch (...) {
          if (!thrown) thrown = std::current_exception();
        }
      }
      pending.erase(pending.begin());  // Matching and all — memory stays bounded
      ++next_emit;
    }
    if (thrown) std::rethrow_exception(thrown);
  });
  return failed;
}

std::vector<JobResult> Engine::run_collect(const std::vector<JobSpec>& jobs) {
  std::vector<JobResult> results(jobs.size());
  enqueue_and_wait(jobs, [&](std::size_t i, JobResult&& result) {
    results[i] = std::move(result);
  });
  return results;
}

obs::Snapshot Engine::metrics() const { return registry_.snapshot(); }

std::vector<obs::TraceEvent> Engine::trace_events() const {
  std::vector<obs::TraceEvent> out;
  for (const auto& journal : journals_) {
    std::vector<obs::TraceEvent> events = journal->events();
    out.insert(out.end(), events.begin(), events.end());
  }
  std::sort(out.begin(), out.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              return a.start_ns < b.start_ns;
            });
  return out;
}

Engine::Stats Engine::stats() const {
  // A view over metrics(): the worker counters are read through each
  // domain's seqlock, so every per-worker triple (jobs_run, jobs_failed,
  // direct_builds) is a consistent post-job state — the totals can lag
  // jobs mid-publish on other workers, never show a partial job.
  Stats stats;
  const obs::Snapshot snap = registry_.snapshot();
  stats.jobs_run = snap.counter_total("worker", "jobs_run");
  stats.jobs_failed = snap.counter_total("worker", "jobs_failed");
  stats.cold_builds = snap.counter_total("worker", "direct_builds");
  if (cache_ != nullptr) {
    stats.cache = cache_->stats();
    // Every cache miss either mmap-loaded from the store or ran
    // build_graph, so the cache-attributed cold builds are exactly
    // misses - store_hits — no per-call plumbing needed, and exact under
    // concurrency (each counter increments once per event). With a shared
    // external cache these counters are cache-wide, not per-engine; a
    // GraphStore additionally shared across *caches* can even push its
    // hit count past this cache's misses, so clamp instead of wrapping.
    if (stats.cache.misses > stats.cache.store_hits)
      stats.cold_builds += stats.cache.misses - stats.cache.store_hits;
  }
  return stats;
}

} // namespace bmh
