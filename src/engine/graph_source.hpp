#pragma once
/// \file graph_source.hpp
/// \brief Pluggable graph sources: the formats behind `input=` specs.
///
/// A graph spec is `SCHEME:REST`; the scheme names a GraphSource registered
/// in graph_sources() (a NamedRegistry, registry.hpp), which owns parsing,
/// canonical keying and materialization for that family. New sources —
/// future network or database fetchers — plug in with
/// graph_sources().add(scheme, source) without touching the parser, the
/// cache or the store. A scheme may not contain ':'. Built-ins:
///
///   gen:NAME:key=val,...   generator from graph/generators.hpp
///   suite:NAME[:scale=S]   instance from graph/generators_suite.hpp
///   mtx:PATH               Matrix Market file, keyed by its path *text*
///   mm:path=PATH           Matrix Market file, keyed by its *content hash*
///
/// `mtx:` and `mm:` read the same files; they differ only in identity.
/// `mm:` hashes the file bytes (FNV-1a, memoized per (path, mtime, size))
/// into a canonical key of the form `mm:<16 hex digits>`, so the same
/// content yields the same GraphCache/GraphStore key across processes,
/// copies and renames — a restarted server re-serves a real matrix
/// mmap-warm from its first job. `mtx:` keeps the legacy path-text key
/// (cheap, but a moved file is a new key and an edited file a stale one).
///
/// The resolve/render split keeps the cache's warm path allocation-free:
/// resolve() returns a fixed-capacity ResolvedGraphSpec and
/// canonical_graph_key (job.hpp) renders it by appending into a reused
/// string.

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/registry.hpp"
#include "graph/bipartite_graph.hpp"

namespace bmh {

/// Reading a source's backing input failed (missing/unreadable/unparsable
/// file, dead network fetcher) — as opposed to a malformed *spec*, which is
/// std::invalid_argument. The engine classifies this as `source_io` and
/// treats it as transient: worth one bounded retry, never a parse error.
class SourceIoError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// A parsed graph source reference: `spec.scheme` names the GraphSource,
/// the rest is that source's own grammar.
struct GraphSpec {
  std::string scheme = "gen";
  std::string name;                      ///< path, generator name, or instance
  std::map<std::string, double> params;  ///< numeric source parameters
  std::string spec;                      ///< the original spec string
};

/// The resolved inputs a source actually consumes: defaults applied, clamps
/// taken, keys alphabetical; plus the effective seed, whether the instance
/// depends on it, and an optional identity override. build() dispatches on
/// these values and canonical_graph_key renders them, so canonicalization
/// cannot drift from construction. Fixed-capacity on purpose: resolving a
/// generator spec allocates nothing, keeping warm cache lookups heap-free.
struct ResolvedGraphSpec {
  std::array<std::pair<const char*, double>, 4> params{};
  int count = 0;
  bool seeded = false;     ///< the instance depends on the effective seed
  std::uint64_t seed = 0;  ///< pinned spec seed if present, else the job seed
  /// Canonical identity rendered after "SCHEME:" in place of spec.name when
  /// non-empty — content-addressed sources put their hash here. Views either
  /// a string literal or `identity_owner`'s buffer.
  std::string_view identity{};
  /// Keeps `identity`'s backing storage alive while this resolution is in
  /// use (sources may re-hash a changed file concurrently).
  std::shared_ptr<const std::string> identity_owner;

  void add(const char* key, double value) {
    if (static_cast<std::size_t>(count) >= params.size())
      throw std::logic_error("ResolvedGraphSpec: grow the params array before "
                             "giving a source a 5th parameter");
    params[static_cast<std::size_t>(count++)] = {key, value};
  }
  [[nodiscard]] double get(const char* key) const {
    for (int i = 0; i < count; ++i)
      if (std::string_view(params[static_cast<std::size_t>(i)].first) == key)
        return params[static_cast<std::size_t>(i)].second;
    throw std::logic_error(std::string("ResolvedGraphSpec: missing parameter '") +
                           key + "'");
  }
};

/// One spec scheme: parsing, canonical resolution, and materialization.
/// Implementations must be deterministic — build(spec, resolve(spec, seed))
/// yields the same graph for the same resolved values — and thread-safe
/// (resolve/build run concurrently on every worker).
class GraphSource {
public:
  virtual ~GraphSource() = default;

  /// Parses everything after "SCHEME:" into `out` (scheme and spec text are
  /// already set). Throws std::invalid_argument on malformed input.
  virtual void parse(const std::string& rest, GraphSpec& out) const = 0;

  /// Canonicalizes (spec, job seed) into the values build() will consume.
  /// Must not allocate on repeat calls for the same spec (the cache's warm
  /// key path); throws like build() on invalid parameters.
  [[nodiscard]] virtual ResolvedGraphSpec resolve(const GraphSpec& spec,
                                                  std::uint64_t seed) const = 0;

  /// Materializes the graph for a resolution obtained from resolve().
  [[nodiscard]] virtual BipartiteGraph build(const GraphSpec& spec,
                                             const ResolvedGraphSpec& resolved) const = 0;
};

} // namespace bmh
