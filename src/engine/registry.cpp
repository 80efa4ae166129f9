#include "engine/registry.hpp"

#include <utility>

#include "core/k_out.hpp"
#include "core/one_sided.hpp"
#include "core/two_sided.hpp"
#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/karp_sipser.hpp"
#include "matching/mc21.hpp"
#include "matching/push_relabel.hpp"

namespace bmh {

NamedRegistry<MatchingAlgorithm>& matching_algorithms() {
  // The thread budget (AlgorithmOptions::threads) is owned by the pipeline,
  // which guards every stage; entries run at the ambient OpenMP count. They
  // take their options at run time, so one resolved entry serves a whole
  // batch whose seeds differ per job.
  static NamedRegistry<MatchingAlgorithm> registry([](auto& r) {
    // The paper's heuristics: sample from the scaled densities.
    r.add("one_sided", {true, false,
        [](const BipartiteGraph& g, const ScalingResult& s, const AlgorithmOptions& o,
           Workspace& ws, Matching& out) {
          one_sided_from_scaling_ws(g, s, o.seed, ws, out);
        }});
    r.add("two_sided", {true, false,
        [](const BipartiteGraph& g, const ScalingResult& s, const AlgorithmOptions& o,
           Workspace& ws, Matching& out) {
          two_sided_from_scaling_ws(g, s, o.seed, nullptr, ws, out);
        }});
    r.add("k_out", {true, false,
        [](const BipartiteGraph& g, const ScalingResult& s, const AlgorithmOptions& o,
           Workspace& ws, Matching& out) {
          // Pooled subgraph: CSR assembly reuses workspace capacity, keeping
          // warm k_out jobs allocation-free like every other registration.
          BipartiteGraph& sub = ws.obj<BipartiteGraph>("kout.subgraph");
          k_out_subgraph_ws(g, s, o.k, o.seed, ws, sub);
          hopcroft_karp_ws(sub, ws, out);
        }});

    // Cheap baselines (§2.1).
    r.add("karp_sipser", {false, false,
        [](const BipartiteGraph& g, const ScalingResult&, const AlgorithmOptions& o,
           Workspace& ws, Matching& out) { karp_sipser_ws(g, o.seed, nullptr, ws, out); }});
    r.add("greedy", {false, false,
        [](const BipartiteGraph& g, const ScalingResult&, const AlgorithmOptions& o,
           Workspace& ws, Matching& out) {
          match_random_vertices_ws(g, o.seed, ws, out);
        }});
    r.add("greedy_edge", {false, false,
        [](const BipartiteGraph& g, const ScalingResult&, const AlgorithmOptions& o,
           Workspace& ws, Matching& out) {
          match_random_edges_ws(g, o.seed, ws, out);
        }});
    r.add("min_degree", {false, false,
        [](const BipartiteGraph& g, const ScalingResult&, const AlgorithmOptions&,
           Workspace& ws, Matching& out) { match_min_degree_ws(g, ws, out); }});

    // Exact backends.
    r.add("hopcroft_karp", {false, true,
        [](const BipartiteGraph& g, const ScalingResult&, const AlgorithmOptions&,
           Workspace& ws, Matching& out) { hopcroft_karp_ws(g, ws, out); }});
    r.add("mc21", {false, true,
        [](const BipartiteGraph& g, const ScalingResult&, const AlgorithmOptions&,
           Workspace& ws, Matching& out) { mc21_ws(g, ws, out); }});
    r.add("push_relabel", {false, true,
        [](const BipartiteGraph& g, const ScalingResult&, const AlgorithmOptions&,
           Workspace& ws, Matching& out) { push_relabel_ws(g, ws, out); }});
  });
  return registry;
}

NamedRegistry<UndirectedAlgorithmFn>& undirected_algorithms() {
  static NamedRegistry<UndirectedAlgorithmFn> registry([](auto& r) {
    r.add("one_out", [](const UndirectedGraph& g, int scaling_iterations,
                        const AlgorithmOptions& o, Workspace& ws, UndirectedMatching& out,
                        UndirectedRunInfo& info) {
      // Inline undirected_one_out_match_ws so the scaling diagnostics can be
      // reported instead of discarded.
      auto& s = ws.obj<SymmetricScaling>("und.scaling");
      if (scaling_iterations > 0) {
        scale_symmetric_ws(g, scaling_iterations, ws, s);
      } else {
        s.d.assign(static_cast<std::size_t>(g.num_vertices()), 1.0);
        s.iterations = 0;
        s.error = 0.0;
      }
      info.scaling_iterations = s.iterations;
      info.scaling_error = s.error;
      const std::vector<vid_t>& choice = sample_choices_ws(g, s.d, o.seed, ws);
      one_out_karp_sipser_ws(g.num_vertices(), choice, ws, out);
    });
    r.add("greedy", [](const UndirectedGraph& g, int, const AlgorithmOptions& o,
                       Workspace& ws, UndirectedMatching& out, UndirectedRunInfo&) {
      undirected_greedy_ws(g, o.seed, ws, out);
    });
    r.add("two_thirds", [](const UndirectedGraph& g, int, const AlgorithmOptions& o,
                           Workspace& ws, UndirectedMatching& out, UndirectedRunInfo&) {
      undirected_two_thirds_ws(g, o.seed, ws, out);
    });
  });
  return registry;
}

} // namespace bmh
