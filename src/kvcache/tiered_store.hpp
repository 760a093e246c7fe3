// Two-tier placement model over a KVStore: a bounded fast tier (GPU HBM in
// the paper) backed by an unbounded slow tier (CPU memory over PCIe). The
// simulation keeps all data in RAM; this class tracks *placement* and
// accounts the bytes that would cross the interconnect (Fig. 5 offload /
// fetch arrows), which feeds the latency model.
//
// Placement is indexed by token position: one byte per token per head
// (slow, fast or in flight) plus two counters (fast-resident and in-flight
// tokens), so every placement query and transition is O(1) with no
// hashing, and the ordered scans (fast_positions, cancel_all_fetches) walk
// positions ascending without a sort.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "kvcache/kv_store.hpp"
#include "obs/trace.hpp"
#include "util/common.hpp"
#include "util/thread_safety.hpp"

namespace ckv {

/// Bytes of one stored K or V element: fp16, as in the paper. The tiered
/// stores, the ledger and the scheduler's byte math all count at it.
inline constexpr Index kKVElementBytes = 2;

/// Byte-accurate transfer counters for one head's traffic.
struct TransferStats {
  std::int64_t bytes_to_fast = 0;    ///< slow -> fast (PCIe H2D in the paper)
  std::int64_t bytes_to_slow = 0;    ///< fast -> slow (offload after prefill/decode)
  std::int64_t fetch_events = 0;     ///< number of ensure_resident calls that moved data
  std::int64_t tokens_fetched = 0;   ///< tokens demand-moved slow -> fast
  /// Subset of tokens_fetched whose copy was already in flight when the
  /// demand path asked for it: the speculative fetch landed on the demand
  /// critical path, so the caller still owes its (engine-modeled)
  /// remaining completion time — landing is not free, only its PCIe bytes
  /// were pre-counted at issue.
  std::int64_t demand_landed = 0;
  std::int64_t tokens_offloaded = 0; ///< tokens moved fast -> slow
  /// Async prefetch traffic (begin_fetch/cancel_fetch). Issued fetches
  /// count their PCIe bytes in bytes_to_fast at issue time — the copy
  /// occupies the wire whether or not the data ends up used — so canceled
  /// fetches are wasted traffic, not refunded traffic.
  std::int64_t tokens_prefetch_issued = 0;
  std::int64_t tokens_prefetch_canceled = 0;
  /// tokens_prefetch_canceled attributed by cause, indexed by
  /// obs::FetchCancelReason; the entries always sum to the total above.
  std::int64_t tokens_prefetch_canceled_by[obs::kFetchCancelReasonCount] = {};

  void merge(const TransferStats& other) noexcept;
};

/// Shared fast-tier byte counter. Serving attaches one ledger to every
/// TieredKVStore of every admitted session so the scheduler reads global
/// HBM residency in O(1) instead of re-summing per-head sets each tick.
/// Resident bytes and reserved (in-flight fetch) bytes are tracked
/// separately: an async slow->fast copy holds its destination bytes from
/// issue to completion/cancel, so the global budget invariant must cover
/// `total_bytes()`, not just what already landed.
///
/// Counters are atomic because one ledger may be shared by selectors whose
/// heads run concurrently on the worker pool (TinyTransformer's per-head
/// region); relaxed ordering suffices — additions are commutative, and
/// readers (the scheduler tick) only run between parallel regions.
class FastTierLedger {
 public:
  FastTierLedger() = default;
  // Atomics are not copyable; a ledger is, by value-snapshot (movers like
  // BatchScheduler construction copy before any store is attached).
  FastTierLedger(const FastTierLedger& other) noexcept
      : bytes_(other.bytes()), reserved_(other.reserved_bytes()) {}
  FastTierLedger& operator=(const FastTierLedger& other) noexcept {
    bytes_.store(other.bytes(), std::memory_order_relaxed);
    reserved_.store(other.reserved_bytes(), std::memory_order_relaxed);
    return *this;
  }

  void add(std::int64_t bytes) noexcept {
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void add_reserved(std::int64_t bytes) noexcept {
    reserved_.fetch_add(bytes, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }
  /// Bytes reserved by in-flight slow->fast fetches (not yet resident).
  [[nodiscard]] std::int64_t reserved_bytes() const noexcept {
    return reserved_.load(std::memory_order_relaxed);
  }
  /// Resident + reserved: what budget enforcement must bound.
  [[nodiscard]] std::int64_t total_bytes() const noexcept {
    return bytes() + reserved_bytes();
  }

 private:
  std::atomic<std::int64_t> bytes_{0};
  std::atomic<std::int64_t> reserved_{0};
};

/// Placement tracker. Token KV entries live on the slow tier by default;
/// `ensure_resident` pulls missing ones into the fast tier (evicting by
/// explicit calls only — eviction policy belongs to the caller, e.g. the
/// cluster-granularity cache of §IV-D).
///
/// Concurrency contract: *single-owner*. A TieredKVStore belongs to one
/// session's selector; the scheduler's parallel fan-out steps sessions
/// concurrently but never shares a store between them — the only
/// cross-session state is the attached FastTierLedger, whose counters are
/// commutative atomics. The placement array, its counters and the
/// transfer stats are CKV_GUARDED_BY an ExclusiveContext (compile-time
/// capability, no runtime lock): every mutation path must claim exclusive
/// ownership, so a future refactor that shares a store across workers
/// fails the clang -Wthread-safety CI leg instead of corrupting
/// reservation accounting.
class TieredKVStore {
 public:
  explicit TieredKVStore(Index head_dim);

  /// Appends a token on the fast tier (where it is produced) without
  /// counting transfer bytes; call offload_to_slow to move it out.
  void append(std::span<const float> key, std::span<const float> value);

  /// Appends a block of tokens on the fast tier (prefill output).
  void append_block(const Matrix& keys, const Matrix& values);

  /// Marks tokens [begin, end) as slow-tier resident, accounting offload
  /// traffic for those currently fast-resident.
  void offload_to_slow(Index begin, Index end);

  /// Offloads an explicit position list (scheduler preemption path).
  /// Accounts offload traffic for the ones that were fast-resident and
  /// returns how many actually moved.
  Index offload_positions(std::span<const Index> positions);

  /// Ensures the given tokens are fast-resident; counts transfer bytes for
  /// the ones that were not. Returns the number of tokens actually moved.
  /// A position with an in-flight fetch is completed instead (the demand
  /// path waits for the issued copy; no bytes are re-counted).
  Index ensure_resident(std::span<const Index> positions);

  // ---- asynchronous slow -> fast fetches (cluster prefetch) ----
  //
  // An in-flight position is neither slow-only nor fast-resident: its copy
  // was issued and its destination bytes are reserved (ledger
  // reserved_bytes) until complete_fetch lands it or cancel_fetch drops
  // it. PCIe traffic is accounted at issue time. The placement array is
  // the only record of a fetch in flight: callers address fetches by
  // position and keep no copy of their own.

  /// Issues an async fetch for each position that is neither fast-resident
  /// nor already in flight. Returns the number of fetches issued. Throws
  /// std::invalid_argument for a position outside [0, size()).
  Index begin_fetch(std::span<const Index> positions);

  /// Lands in-flight fetches: the positions become fast-resident (bytes
  /// move reserved -> resident on the ledger). Positions with no in-flight
  /// fetch are ignored. Returns the number landed.
  Index complete_fetch(std::span<const Index> positions);

  /// Drops in-flight fetches without landing them; their reserved bytes
  /// are freed and the issued traffic is counted as wasted, attributed to
  /// `reason` (prediction miss by default — budget enforcement and session
  /// release pass their own cause). Returns the number canceled.
  Index cancel_fetch(std::span<const Index> positions,
                     obs::FetchCancelReason reason =
                         obs::FetchCancelReason::kMisprediction);

  /// Cancels every in-flight fetch, in ascending position order: the
  /// preemption / teardown path, and ClusterKVEngine's per-step resolve of
  /// the speculation its selection did not land. O(1) with nothing in
  /// flight.
  Index cancel_all_fetches(obs::FetchCancelReason reason =
                               obs::FetchCancelReason::kSessionRelease);

  [[nodiscard]] bool is_in_flight(Index position) const;
  [[nodiscard]] Index in_flight_count() const noexcept;
  /// Bytes reserved by in-flight fetches.
  [[nodiscard]] std::int64_t in_flight_bytes() const noexcept;

  /// Drops the given tokens from the fast tier (no byte traffic: the slow
  /// tier always holds the authoritative copy in this model).
  ///
  /// drop_from_fast, complete_fetch, cancel_fetch, is_fast_resident and
  /// is_in_flight treat a position outside [0, size()) as absent (nothing
  /// to drop, land or cancel; not resident, not in flight) rather than
  /// throwing; the entry points that move bytes (offload_*,
  /// ensure_resident, begin_fetch) reject it.
  void drop_from_fast(std::span<const Index> positions);

  [[nodiscard]] bool is_fast_resident(Index position) const;
  [[nodiscard]] Index fast_resident_count() const noexcept;
  [[nodiscard]] Index size() const noexcept { return store_.size(); }

  /// Fast-resident token positions, ascending (preemption victim scan): an
  /// ordered walk of the placement array.
  [[nodiscard]] std::vector<Index> fast_positions() const;

  /// Bytes of one token's KV entry (key + value) at kKVElementBytes.
  [[nodiscard]] Index token_bytes() const noexcept;

  /// Bytes currently held on the fast tier.
  [[nodiscard]] std::int64_t fast_resident_bytes() const noexcept;

  /// Attaches (or detaches, with nullptr) a shared residency ledger. The
  /// current residency *and* in-flight reservation are credited on attach
  /// and debited on detach, so the ledger stays equal to the sum of its
  /// attached stores' fast + reserved bytes (detaching a store with live
  /// fetches — session release — implicitly cancels their reservation).
  void attach_ledger(FastTierLedger* ledger) noexcept;

  /// Read-only: tokens enter only through append/append_block, which keep
  /// the per-position placement array the same length as the store.
  [[nodiscard]] const KVStore& store() const noexcept { return store_; }
  [[nodiscard]] const TransferStats& stats() const noexcept {
    const ExclusiveLock own(owner_);
    return stats_;
  }

 private:
  /// Where one token's KV currently lives. kInFlight: a slow->fast copy was
  /// issued and its destination bytes are reserved; neither kSlow nor
  /// kFast until it lands or is canceled.
  enum class Placement : std::uint8_t { kSlow, kFast, kInFlight };

  /// Placement of `position`; kSlow (absent) outside [0, size()).
  Placement placement_of(Index position) const CKV_REQUIRES(owner_);

  /// All residency mutations funnel through these three (and begin_fetch)
  /// so the ledger and counters can never drift from the placement array.
  bool mark_fast(Index position) CKV_REQUIRES(owner_);
  bool unmark_fast(Index position) CKV_REQUIRES(owner_);
  /// Clears an in-flight fetch and frees its reservation; false if
  /// `position` has none.
  bool unmark_in_flight(Index position) CKV_REQUIRES(owner_);
  /// Lands one in-flight fetch (reserved -> resident on the ledger);
  /// shared by complete_fetch and the demand path in ensure_resident.
  bool land_fetch(Index position) CKV_REQUIRES(owner_);
  /// Cancel core shared by cancel_fetch and cancel_all_fetches.
  Index cancel_fetch_impl(std::span<const Index> positions,
                          obs::FetchCancelReason reason) CKV_REQUIRES(owner_);

  KVStore store_;
  /// Static stand-in for the owning session (see the class comment).
  mutable ExclusiveContext owner_;
  /// One entry per stored token (always store_.size() long).
  std::vector<Placement> placement_ CKV_GUARDED_BY(owner_);
  Index fast_count_ CKV_GUARDED_BY(owner_) = 0;       ///< kFast entries
  Index in_flight_count_ CKV_GUARDED_BY(owner_) = 0;  ///< kInFlight entries
  TransferStats stats_ CKV_GUARDED_BY(owner_);
  FastTierLedger* ledger_ CKV_GUARDED_BY(owner_) = nullptr;
};

}  // namespace ckv
