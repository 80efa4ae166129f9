/// \file bench_micro.cpp
/// \brief google-benchmark microbenchmarks of the library's kernels:
/// scaling sweeps, choice sampling, KarpSipserMT phases, exact solvers,
/// graph assembly. These are the building blocks behind every table.

#include <benchmark/benchmark.h>

#include "bmh.hpp"

namespace {

using namespace bmh;

const BipartiteGraph& er_graph(vid_t n, eid_t deg) {
  static std::map<std::pair<vid_t, eid_t>, BipartiteGraph> cache;
  auto [it, inserted] = cache.try_emplace({n, deg});
  if (inserted) it->second = make_erdos_renyi(n, n, deg * n, 42);
  return it->second;
}

void BM_SinkhornKnoppIteration(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scale_sinkhorn_knopp(g, {1, 0.0}));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_SinkhornKnoppIteration)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

// Five iterations, where reusing the error pass's column sums pays (one
// iteration makes the same sweeps fused or not). Warm workspace, as in the
// engine, so the timing is the kernel's and not the allocator's.
void BM_SinkhornKnopp5(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  Workspace ws;
  ScalingResult s;
  for (auto _ : state) {
    scale_sinkhorn_knopp_ws(g, {5, 0.0}, ws, s);
    benchmark::DoNotOptimize(s.dr.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_SinkhornKnopp5)->Arg(2048)->Arg(1 << 17);

// Twelve graphs shaped like serve-hot's n-vertex pool (six Erdos-Renyi of
// degree 6, six power-law of average degree 8), visited in turn, as an
// engine serving many graphs visits them. Repeating one small graph lets
// the branch predictor learn its degree sequence, which hides the cost of
// mispredicted list exits.
const std::vector<BipartiteGraph>& rotating_graphs(vid_t n) {
  static std::map<vid_t, std::vector<BipartiteGraph>> cache;
  auto [it, inserted] = cache.try_emplace(n);
  if (inserted)
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      it->second.push_back(make_erdos_renyi(n, n, 6LL * n, seed));
      it->second.push_back(make_power_law(n, 8.0, 1.8, seed));
    }
  return it->second;
}

eid_t total_edges(const std::vector<BipartiteGraph>& graphs) {
  eid_t edges = 0;
  for (const BipartiteGraph& g : graphs) edges += g.num_edges();
  return edges;
}

// SK-5 over the rotating graphs with a team of range(1) threads: one, the
// budget of a serving job, and four, where the whole call is one parallel
// region.
void BM_SinkhornKnopp5Rotating(benchmark::State& state) {
  const auto& graphs = rotating_graphs(static_cast<vid_t>(state.range(0)));
  ThreadCountGuard guard(static_cast<int>(state.range(1)));
  Workspace ws;
  ScalingResult s;
  std::size_t next = 0;
  for (auto _ : state) {
    scale_sinkhorn_knopp_ws(graphs[next], {5, 0.0}, ws, s);
    benchmark::DoNotOptimize(s.dr.data());
    next = (next + 1) % graphs.size();
  }
  state.SetItemsProcessed(state.iterations() * total_edges(graphs) /
                          static_cast<std::int64_t>(graphs.size()));
}
BENCHMARK(BM_SinkhornKnopp5Rotating)->Args({2048, 1})->Args({2048, 4});

void BM_RuizIteration(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scale_ruiz(g, {1, 0.0}));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_RuizIteration)->Arg(1 << 17);

void BM_ChoiceSampling(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  const ScalingResult s = scale_sinkhorn_knopp(g, {2, 0.0});
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample_row_choices(g, s.dc, ++seed));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_ChoiceSampling)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_OneSidedEndToEnd(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(one_sided_match(g, 1, ++seed));
  }
}
BENCHMARK(BM_OneSidedEndToEnd)->Arg(1 << 17)->Arg(1 << 20);

// OneSidedMatch at SK-5 over the rotating serve-shaped graphs at one
// thread, as a serving job runs it: scaling and the row sampler (reading
// SK's totals), then the column write.
void BM_OneSidedSK5Rotating(benchmark::State& state) {
  const auto& graphs = rotating_graphs(static_cast<vid_t>(state.range(0)));
  ThreadCountGuard guard(1);
  Workspace ws;
  Matching m;
  std::size_t next = 0;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    one_sided_match_ws(graphs[next], 5, ++seed, ws, m);
    benchmark::DoNotOptimize(m.row_match.data());
    next = (next + 1) % graphs.size();
  }
  state.SetItemsProcessed(state.iterations() * total_edges(graphs) /
                          static_cast<std::int64_t>(graphs.size()));
}
BENCHMARK(BM_OneSidedSK5Rotating)->Arg(2048);

void BM_KarpSipserMT(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  const ScalingResult s = scale_sinkhorn_knopp(g, {1, 0.0});
  const TwoSidedChoices ch = sample_two_sided_choices(g, s, 7);
  const std::vector<vid_t> unified =
      unify_choices(g.num_rows(), g.num_cols(), ch.rchoice, ch.cchoice);
  for (auto _ : state) {
    benchmark::DoNotOptimize(karp_sipser_mt(g.num_rows(), g.num_cols(), unified));
  }
  state.SetItemsProcessed(state.iterations() * (g.num_rows() + g.num_cols()));
}
BENCHMARK(BM_KarpSipserMT)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

// KarpSipserMT on SK-5 choices of the rotating serve-shaped graphs, at one
// thread: the budget of a serving job (BM_KarpSipserMT runs at the ambient
// team size).
void BM_KarpSipserMTRotating(benchmark::State& state) {
  const auto& graphs = rotating_graphs(static_cast<vid_t>(state.range(0)));
  ThreadCountGuard guard(1);
  std::vector<std::vector<vid_t>> choices;
  std::int64_t vertices = 0;
  for (const BipartiteGraph& g : graphs) {
    const ScalingResult s = scale_sinkhorn_knopp(g, {5, 0.0});
    const TwoSidedChoices ch = sample_two_sided_choices(g, s, 7);
    choices.push_back(unify_choices(g.num_rows(), g.num_cols(), ch.rchoice, ch.cchoice));
    vertices += g.num_rows() + g.num_cols();
  }
  Workspace ws;
  Matching m;
  std::size_t next = 0;
  for (auto _ : state) {
    const BipartiteGraph& g = graphs[next];
    karp_sipser_mt_ws(g.num_rows(), g.num_cols(), choices[next], nullptr, ws, m);
    benchmark::DoNotOptimize(m.row_match.data());
    next = (next + 1) % graphs.size();
  }
  state.SetItemsProcessed(state.iterations() * vertices /
                          static_cast<std::int64_t>(graphs.size()));
}
BENCHMARK(BM_KarpSipserMTRotating)->Arg(2048);

void BM_TwoSidedEndToEnd(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(two_sided_match(g, 1, ++seed));
  }
}
BENCHMARK(BM_TwoSidedEndToEnd)->Arg(1 << 17)->Arg(1 << 20);

// TwoSidedMatch at SK-5 on a serve-sized graph: scaling, both samplers
// (reading SK's totals) and KarpSipserMT.
void BM_TwoSidedSK5(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  Workspace ws;
  Matching m;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    two_sided_match_ws(g, 5, ++seed, nullptr, ws, m);
    benchmark::DoNotOptimize(m.row_match.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_TwoSidedSK5)->Arg(2048);

// TwoSidedMatch at SK-5 over the rotating serve-shaped graphs at one
// thread, as a serving job runs it: scaling, both samplers and
// KarpSipserMT.
void BM_TwoSidedSK5Rotating(benchmark::State& state) {
  const auto& graphs = rotating_graphs(static_cast<vid_t>(state.range(0)));
  ThreadCountGuard guard(1);
  Workspace ws;
  Matching m;
  std::size_t next = 0;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    two_sided_match_ws(graphs[next], 5, ++seed, nullptr, ws, m);
    benchmark::DoNotOptimize(m.row_match.data());
    next = (next + 1) % graphs.size();
  }
  state.SetItemsProcessed(state.iterations() * total_edges(graphs) /
                          static_cast<std::int64_t>(graphs.size()));
}
BENCHMARK(BM_TwoSidedSK5Rotating)->Arg(2048);

void BM_SequentialKarpSipser(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(karp_sipser(g, ++seed));
  }
}
BENCHMARK(BM_SequentialKarpSipser)->Arg(1 << 14)->Arg(1 << 17);

void BM_HopcroftKarp(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hopcroft_karp(g));
  }
}
BENCHMARK(BM_HopcroftKarp)->Arg(1 << 14)->Arg(1 << 17);

void BM_Mc21(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mc21(g));
  }
}
BENCHMARK(BM_Mc21)->Arg(1 << 14)->Arg(1 << 17);

void BM_HopcroftKarpWarmStarted(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  const Matching warm = two_sided_match(g, 3, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hopcroft_karp(g, &warm));
  }
}
BENCHMARK(BM_HopcroftKarpWarmStarted)->Arg(1 << 14)->Arg(1 << 17);

void BM_GraphAssembly(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_erdos_renyi(n, n, 8LL * n, ++seed));
  }
  state.SetItemsProcessed(state.iterations() * 8 * n);
}
BENCHMARK(BM_GraphAssembly)->Arg(1 << 14)->Arg(1 << 17);

void BM_CscConstruction(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.transposed());  // exercises build_csc
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_CscConstruction)->Arg(1 << 17);

void BM_MatchingValidation(benchmark::State& state) {
  const auto n = static_cast<vid_t>(state.range(0));
  const BipartiteGraph& g = er_graph(n, 8);
  const Matching m = two_sided_match(g, 1, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(is_valid_matching(g, m));
  }
}
BENCHMARK(BM_MatchingValidation)->Arg(1 << 17);

} // namespace

BENCHMARK_MAIN();
