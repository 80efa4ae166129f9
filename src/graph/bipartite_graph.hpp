#pragma once
/// \file bipartite_graph.hpp
/// \brief Compressed bipartite graph / sparse (0,1)-matrix structure.
///
/// The paper treats a bipartite graph G = (V_R ∪ V_C, E) and its adjacency
/// matrix A interchangeably; so do we. `BipartiteGraph` stores both the
/// row-major view (CSR: for each row vertex, its column neighbours) and the
/// column-major view (CSC: for each column vertex, its row neighbours),
/// because the algorithms sweep both sides:
///   * Sinkhorn–Knopp normalizes columns then rows (Alg. 1),
///   * TwoSidedMatch samples one choice per row *and* per column (Alg. 3).
///
/// The structure is immutable after construction; all algorithms treat it as
/// read-only shared state, which is what makes the OpenMP parallelism in
/// this library race-free by construction. The exceptions are two memos a
/// const graph may fill, neither of which changes an edge or a view of the
/// edges: its structural rank (`known_sprank` / `remember_sprank`), an
/// atomic slot filled once its exact optimum is known, so a graph shared by
/// many jobs is solved at most once; and the sweep schedules
/// (`row_schedule` / `col_schedule`), built on first use.
///
/// Storage is pluggable: the four CSR/CSC arrays are `std::span` views over
/// either heap vectors owned by the graph (every constructed or assigned
/// graph — the historical behaviour, byte for byte) or an external read-only
/// region the graph merely keeps alive (a memory-mapped store file, see
/// graph/serialize.hpp). The storage choice is invisible to the algorithm
/// layer: every accessor below returns the same span types either way, and
/// `memory_bytes()` accounts whichever backing is active. Mutating
/// operations (`assign_csr`) convert an externally backed graph to owned
/// storage first, so the immutable mapped bytes are never written.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "util/thread_annotations.hpp"
#include "util/types.hpp"

namespace bmh {

/// Vertices per sweep block: the unit of work the scheduled kernels' team
/// members claim in turn (TeamMemory::claim).
inline constexpr vid_t kSweepBlock = 512;

/// Degrees at or above this cap sort as one class at a block's tail; one
/// mispredicted loop exit per list is already amortised over such lists.
inline constexpr eid_t kSweepDegreeCap = 16;

/// The number of sweep blocks over `n` vertices.
[[nodiscard]] constexpr vid_t sweep_block_count(vid_t n) noexcept {
  return (n + kSweepBlock - 1) / kSweepBlock;
}

/// Block `b` of a sweep schedule: its vertices, in sweep order.
[[nodiscard]] inline std::span<const vid_t> sweep_block(std::span<const vid_t> schedule,
                                                        vid_t b) noexcept {
  const auto begin = static_cast<std::size_t>(b) * kSweepBlock;
  return schedule.subspan(begin, std::min<std::size_t>(kSweepBlock, schedule.size() - begin));
}

/// Visits a sweep block's lists in order, two at a time where it can: two
/// consecutive lists of equal degree d < kSweepDegreeCap go to
/// `pair(u, v, d)`, every other list to `one(u)`. A kernel that walks the
/// two lists of a pair in lockstep overlaps their dependent add chains and
/// still adds each list in adjacency order. A run of odd length ends with
/// one list alone, and no pair spans two blocks. `ptr` is the side's offset
/// array (row_ptr for rows, col_ptr for columns).
template <typename Pair, typename One>
void visit_list_pairs(std::span<const vid_t> block, std::span<const eid_t> ptr, Pair&& pair,
                      One&& one) {
  const auto degree = [ptr](vid_t u) { return ptr[u + 1] - ptr[u]; };
  std::size_t k = 0;
  for (; k + 1 < block.size(); ++k) {
    const vid_t u = block[k];
    const vid_t v = block[k + 1];
    const eid_t d = degree(u);
    if (d < kSweepDegreeCap && degree(v) == d) {
      pair(u, v, d);
      ++k;
    } else {
      one(u);
    }
  }
  if (k < block.size()) one(block[k]);
}

class BipartiteGraph {
public:
  /// Read-only external backing for a graph whose arrays live outside the
  /// object. `keepalive` owns the bytes (e.g. a MappedFile); the four spans
  /// must stay valid for as long as it does. `resident_bytes` is what
  /// `memory_bytes()` reports for the arrays — for a mapped store file, the
  /// file size the mapping can page in (what a cache should account).
  struct ExternalStorage {
    std::span<const eid_t> row_ptr;
    std::span<const vid_t> col_idx;
    std::span<const eid_t> col_ptr;
    std::span<const vid_t> row_idx;
    std::shared_ptr<const void> keepalive;
    std::size_t resident_bytes = 0;
  };

  BipartiteGraph();

  /// Constructs from ready-made CSR arrays; the CSC view is derived.
  /// `row_ptr` has `num_rows+1` entries; `col_idx` holds column ids in
  /// [0, num_cols). Column ids within a row need not be sorted; duplicates
  /// must have been removed by the caller (GraphBuilder does both).
  BipartiteGraph(vid_t num_rows, vid_t num_cols,
                 std::vector<eid_t> row_ptr, std::vector<vid_t> col_idx);

  /// Constructs a graph viewing external CSR *and* CSC arrays (both are
  /// given: the point of external backing is loading without rebuilding).
  /// Both orientations are fully validated — sizes, monotone offsets, id
  /// ranges, and the CSC being the exact transpose of the CSR in canonical
  /// layout (row ids per column sorted ascending, as this library always
  /// emits) — so a corrupt or forged region is rejected
  /// (std::invalid_argument) rather than served. Validation reads the
  /// arrays but never copies them.
  BipartiteGraph(vid_t num_rows, vid_t num_cols, ExternalStorage storage);

  // Spans view the storage variant, so copies/moves rebind them rather than
  // letting the defaults alias the source object's vectors.
  BipartiteGraph(const BipartiteGraph& other);
  BipartiteGraph(BipartiteGraph&& other) noexcept;
  BipartiteGraph& operator=(const BipartiteGraph& other);
  BipartiteGraph& operator=(BipartiteGraph&& other) noexcept;
  ~BipartiteGraph() = default;

  /// In-place re-initialization from CSR arrays, reusing the capacity of all
  /// four internal vectors — the pooled-construction path: a graph object
  /// kept in a Workspace can be rebuilt every call without heap traffic once
  /// its buffers have grown to the working-set size (GraphBuilder::build_into
  /// drives this). Input requirements match the constructor; the spans are
  /// validated *before* any member is touched, so on throw the graph is
  /// unchanged. The derived CSC view is identical to the constructor's. An
  /// externally backed graph switches to (fresh) owned storage. The sprank
  /// memo is cleared, since the new edges may have a different rank.
  void assign_csr(vid_t num_rows, vid_t num_cols,
                  std::span<const eid_t> row_ptr, std::span<const vid_t> col_idx);

  [[nodiscard]] vid_t num_rows() const noexcept { return num_rows_; }
  [[nodiscard]] vid_t num_cols() const noexcept { return num_cols_; }
  [[nodiscard]] eid_t num_edges() const noexcept {
    return row_ptr_.empty() ? 0 : row_ptr_.back();
  }
  [[nodiscard]] bool square() const noexcept { return num_rows_ == num_cols_; }

  /// Column neighbours of row vertex `i` (the nonzero columns of row i).
  [[nodiscard]] std::span<const vid_t> row_neighbors(vid_t i) const noexcept {
    return {col_idx_.data() + row_ptr_[i],
            static_cast<std::size_t>(row_ptr_[i + 1] - row_ptr_[i])};
  }

  /// Row neighbours of column vertex `j` (the nonzero rows of column j).
  [[nodiscard]] std::span<const vid_t> col_neighbors(vid_t j) const noexcept {
    return {row_idx_.data() + col_ptr_[j],
            static_cast<std::size_t>(col_ptr_[j + 1] - col_ptr_[j])};
  }

  [[nodiscard]] eid_t row_degree(vid_t i) const noexcept {
    return row_ptr_[i + 1] - row_ptr_[i];
  }
  [[nodiscard]] eid_t col_degree(vid_t j) const noexcept {
    return col_ptr_[j + 1] - col_ptr_[j];
  }

  /// Raw arrays, exposed for kernels that index edges directly.
  [[nodiscard]] std::span<const eid_t> row_ptr() const noexcept { return row_ptr_; }
  [[nodiscard]] std::span<const vid_t> col_idx() const noexcept { return col_idx_; }
  [[nodiscard]] std::span<const eid_t> col_ptr() const noexcept { return col_ptr_; }
  [[nodiscard]] std::span<const vid_t> row_idx() const noexcept { return row_idx_; }

  /// Resident bytes backing the four CSR/CSC arrays — heap capacity for
  /// owned storage, the external region's resident_bytes (file size) for
  /// mapped storage — plus the two sweep schedules (4 bytes per row and per
  /// column), charged before they are built. Either way, the cost a cache
  /// accounts for keeping this graph around, and an upper bound for it over
  /// the graph's lifetime.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  /// True when the arrays live in heap vectors owned by this object; false
  /// for an external (e.g. memory-mapped) backing.
  [[nodiscard]] bool owns_storage() const noexcept {
    return std::holds_alternative<OwnedStorage>(storage_);
  }

  /// The memoized structural rank, or kNil while unknown. A fresh, loaded
  /// or reassigned graph reads kNil; copies and moves carry the memo along.
  [[nodiscard]] vid_t known_sprank() const noexcept {
    // Relaxed: the slot publishes no other data, and every writer stores
    // the same deterministic value, so any value read is the right one.
    return sprank_memo_.load(std::memory_order_relaxed);
  }

  /// Records `sprank` as this graph's structural rank. Only exact library
  /// solvers may call this: every later reader trusts the value. Concurrent
  /// writers store the same value, so the race is benign.
  void remember_sprank(vid_t sprank) const noexcept {
    sprank_memo_.store(sprank, std::memory_order_relaxed);
  }

  /// The sweep schedules: every row (column) id once, block by block of
  /// kSweepBlock ids, each block holding the same ids as the natural order
  /// but sorted by min(degree, kSweepDegreeCap), stably. Sweeping lists of
  /// equal length back to back makes each list's loop exit predictable; a
  /// kernel that still sums every list in adjacency order computes the
  /// same bits as a natural-order sweep. Built on first use (4 bytes per
  /// vertex per side, which memory_bytes charges in advance), at most once
  /// per graph object even when several threads ask at once; never built
  /// at load.
  /// Copies and moves do not carry it (the new owner builds its own), and
  /// assign_csr, assignment and being moved from drop it, keeping the
  /// buffer's capacity for the pooled rebuild path.
  [[nodiscard]] std::span<const vid_t> row_schedule() const {
    return schedule(row_schedule_, num_rows_, row_ptr_);
  }
  [[nodiscard]] std::span<const vid_t> col_schedule() const {
    return schedule(col_schedule_, num_cols_, col_ptr_);
  }

  /// True iff edge (i, j) exists. O(deg) scan; intended for tests/examples.
  [[nodiscard]] bool has_edge(vid_t i, vid_t j) const noexcept;

  /// The transpose graph: rows become columns and vice versa.
  [[nodiscard]] BipartiteGraph transposed() const;

  /// Structural equality (same dims and same sorted adjacency).
  [[nodiscard]] bool structurally_equal(const BipartiteGraph& other) const;

private:
  // No default member initializers: NSDMIs of a nested class are parsed only
  // once the enclosing class is complete, which would leave the storage
  // variant believing OwnedStorage is not default-constructible. The empty
  // graph's canonical {0} row_ptr/col_ptr come from reset_empty() instead.
  struct OwnedStorage {
    std::vector<eid_t> row_ptr;
    std::vector<vid_t> col_idx;
    std::vector<eid_t> col_ptr;
    std::vector<vid_t> row_idx;
  };

  /// One side's lazily built sweep order; `ready` publishes `order`.
  struct SweepSchedule {
    std::vector<vid_t> order;
    std::atomic<bool> ready;  // starts false: C++20 value-initializes atomics
  };

  std::span<const vid_t> schedule(SweepSchedule& s, vid_t n, std::span<const eid_t> ptr) const;
  /// Drops both schedules (capacity kept). Needs exclusive access.
  void forget_schedules() noexcept;

  static void validate_csr(vid_t num_rows, vid_t num_cols,
                           std::span<const eid_t> row_ptr,
                           std::span<const vid_t> col_idx);
  static void validate_external(vid_t num_rows, vid_t num_cols,
                                const ExternalStorage& storage);
  void rebind_views() noexcept;
  void reset_empty();
  void build_csc();
  /// Takes the dimensions as parameters (rather than members) so assign_csr
  /// can defer committing num_rows_/num_cols_ until every allocation is done.
  void build_csc_serial(vid_t num_rows, vid_t num_cols);

  vid_t num_rows_ = 0;
  vid_t num_cols_ = 0;
  std::variant<OwnedStorage, ExternalStorage> storage_;
  std::span<const eid_t> row_ptr_;
  std::span<const vid_t> col_idx_;
  std::span<const eid_t> col_ptr_;
  std::span<const vid_t> row_idx_;
  mutable std::atomic<vid_t> sprank_memo_{kNil};
  mutable SweepSchedule row_schedule_;
  mutable SweepSchedule col_schedule_;
  mutable Mutex schedule_mutex_;  // serializes first builds
};

} // namespace bmh
