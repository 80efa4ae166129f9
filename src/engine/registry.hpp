#pragma once
/// \file registry.hpp
/// \brief NamedRegistry<T>: the one name table behind every string a job
/// spec can name, and the algorithm entries it holds.
///
/// The registered names are the library's *stable public identifiers* — job
/// specs, CLI flags, bench tables and JSON results all refer to entries by
/// these strings. Three instances exist, each with its built-ins present
/// from first use:
///
/// matching_algorithms() (kind=match):
///
///   one_sided      OneSidedMatch (Alg. 2, 0.632 guarantee)
///   two_sided      TwoSidedMatch (Alg. 3 + parallel KS of Alg. 4, ~0.866)
///   k_out          k-out generalization (exact solve on the k-out subgraph)
///   karp_sipser    classic sequential Karp-Sipser
///   greedy         random-vertex cheap matching (1/2 guarantee)
///   greedy_edge    random-edge cheap matching (1/2 guarantee)
///   min_degree     static mindegree jump-start (deterministic)
///   hopcroft_karp  exact, O(sqrt(n) tau)
///   mc21           exact, augmenting DFS with lookahead
///   push_relabel   exact, push-relabel transversal
///
/// undirected_algorithms() (kind=undirected-match):
///
///   greedy         random-vertex cheap matching (1/2 guarantee)
///   one_out        symmetric scaling + 1-out choices + undirected KS (§5)
///   two_thirds     maximal + length-3 augmentation (2/3 guarantee)
///
/// graph_sources() (the `SCHEME:` of `input=` specs; see graph_source.hpp).
///
/// New entries plug in with add() without touching any call site:
///
///   matching_algorithms().add("mine", {/*uses_scaling=*/false,
///                                      /*exact=*/false, my_match_fn});
///
/// Entries are never removed. find() copies shared ownership out of the
/// registry's critical section, so a resolved entry stays callable whatever
/// the registry does afterwards; the pipelines cache that handle per
/// workspace and re-resolve a warm job with one string compare.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/workspace.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"
#include "scaling/scaling.hpp"
#include "undirected/matching.hpp"
#include "util/thread_annotations.hpp"

namespace bmh {

/// A thread-safe name -> entry table. Names are unique and non-empty;
/// entries are shared, immutable and never removed.
template <typename T>
class NamedRegistry {
public:
  /// `built_ins` registers the entries present from construction on;
  /// `reserved` lists characters no name may contain.
  explicit NamedRegistry(const std::function<void(NamedRegistry&)>& built_ins = {},
                         std::string reserved = {})
      : reserved_(std::move(reserved)) {
    if (built_ins) built_ins(*this);
  }

  /// Registers `entry` under `name`. Throws std::invalid_argument if the
  /// name is empty, contains a reserved character or is already taken, or
  /// if the entry is null (an empty callable counts as null).
  void add(std::string_view name, std::shared_ptr<const T> entry) {
    const std::string key(name);
    if (key.empty()) throw std::invalid_argument("registry: empty name");
    if (key.find_first_of(reserved_) != std::string::npos)
      throw std::invalid_argument("registry: invalid name '" + key + "'");
    if (entry == nullptr || !holds_target(*entry))
      throw std::invalid_argument("registry: null entry for '" + key + "'");
    LockGuard lock(mutex_);
    if (!entries_.emplace(key, std::move(entry)).second)
      throw std::invalid_argument("registry: '" + key + "' is already registered");
  }

  /// Value form: add(name, {fields...}) for an aggregate entry, add(name,
  /// lambda) for a std::function one.
  template <typename U = T>
    requires(!std::is_abstract_v<U>)
  void add(std::string_view name, std::type_identity_t<U> entry) {
    add(name, std::make_shared<const T>(std::move(entry)));
  }

  /// The entry registered under `name`, or nullptr.
  [[nodiscard]] std::shared_ptr<const T> find(std::string_view name) const {
    LockGuard lock(mutex_);
    const auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : it->second;  // ownership copy
  }

  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const {
    LockGuard lock(mutex_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& entry : entries_) out.push_back(entry.first);
    return out;  // std::map iterates sorted
  }

private:
  static bool holds_target(const T& entry) {
    if constexpr (std::is_constructible_v<bool, const T&>)
      return static_cast<bool>(entry);
    else
      return true;
  }

  std::string reserved_;
  mutable Mutex mutex_;
  std::map<std::string, std::shared_ptr<const T>, std::less<>> entries_
      BMH_GUARDED_BY(mutex_);
};

/// Per-algorithm knobs, uniform across the registries. Fields irrelevant to
/// a given algorithm (e.g. `k` for anything but "k_out", `seed` for the
/// deterministic solvers) are ignored by it.
struct AlgorithmOptions {
  std::uint64_t seed = 1;  ///< RNG seed for randomized algorithms
  int threads = 0;         ///< OpenMP budget, applied by run_pipeline around
                           ///< every stage; 0 = ambient. Direct callers of an
                           ///< entry's `run` set the ambient count themselves
                           ///< (ThreadCountGuard).
  int k = 2;               ///< choices per side for the k-out extension
};

/// Runs a matching algorithm on `g`: scratch comes from `ws` (warm calls are
/// allocation-free for the built-ins) and the result lands in `out` with
/// capacity reused. `scaling` must cover `g` (identity_scaling(g) when the
/// caller did not scale); algorithms that do not sample from the scaled
/// densities ignore it.
using MatchFn = std::function<void(const BipartiteGraph& g, const ScalingResult& scaling,
                                   const AlgorithmOptions& options, Workspace& ws,
                                   Matching& out)>;

/// A matching_algorithms() entry.
struct MatchingAlgorithm {
  bool uses_scaling = false;  ///< samples from the scaled densities; the
                              ///< pipeline skips its scale stage otherwise
  bool exact = false;         ///< the result is always a maximum matching
  MatchFn run;

  explicit operator bool() const noexcept { return static_cast<bool>(run); }
};

/// What an undirected run reports back beyond the matching itself.
struct UndirectedRunInfo {
  int scaling_iterations = 0;  ///< symmetric scaling sweeps actually run
  double scaling_error = 0.0;  ///< error after the last sweep
};

/// An undirected matching algorithm: scratch comes from `ws` (warm calls
/// are allocation-free, like the bipartite registrations), the result lands
/// in `out` with capacity reused. `scaling_iterations` is the pipeline's
/// budget (0 = skip scaling); algorithms that never scale ignore it and
/// leave `info` at its defaults.
using UndirectedAlgorithmFn = std::function<void(
    const UndirectedGraph& g, int scaling_iterations, const AlgorithmOptions& options,
    Workspace& ws, UndirectedMatching& out, UndirectedRunInfo& info)>;

class GraphSource;

/// The process-wide tables, built-ins registered on first access.
[[nodiscard]] NamedRegistry<MatchingAlgorithm>& matching_algorithms();
[[nodiscard]] NamedRegistry<UndirectedAlgorithmFn>& undirected_algorithms();
/// Schemes may not contain ':' (it ends the scheme in a spec). Defined in
/// graph_source.cpp beside the built-in sources.
[[nodiscard]] NamedRegistry<GraphSource>& graph_sources();

} // namespace bmh
