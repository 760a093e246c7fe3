// Deterministic bandwidth-contended model of the slow->fast link (PCIe
// gather path in the paper). Fetches are enqueued with byte sizes and a
// priority (demand misses outrank speculative prefetch); each scheduler
// tick drains the queue at link_gbps x elapsed virtual time, so concurrent
// sessions *contend* for the wire and a fetch's completion time comes from
// its queue position instead of an independent bytes/bandwidth division.
//
// Everything here lives on the scheduler's virtual clock and is advanced
// only from the tick's serial phase: drain order is (priority, enqueue
// seq), ids are a monotone counter, and no host time or randomness enters,
// so the serving columns stay byte-identical at any worker count (the
// determinism contract of docs/PERFORMANCE.md). The scheduler prices the
// queue's demand occupancy with LatencyModel::contended_fetch_ms, the
// formula of clusterkv_step's transfer term: a lone session on a link
// with headroom bills exactly that term, and contention stretches it.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "util/common.hpp"

namespace ckv {

class TransferEngine {
 public:
  /// Drain classes, strongest first: every queued demand byte crosses the
  /// wire before any speculative byte (a miss stalls a decode step; a
  /// prefetch only loses its overlap window).
  enum class Priority : std::uint8_t { kDemand = 0, kSpeculative = 1 };

  /// A fully drained request, reported once by drain_until. start_ms is
  /// when the link first touched the request, end_ms when its last byte
  /// crossed — both derived from queue position, not request size alone.
  struct Completion {
    std::uint64_t id = 0;
    Index client = 0;
    Priority priority = Priority::kSpeculative;
    double bytes = 0.0;
    double start_ms = 0.0;
    double end_ms = 0.0;
    /// Wire attempts consumed beyond the first (fault-hook retries).
    Index attempts = 0;
    /// True when the fault hook exhausted its retries: the bytes crossed
    /// the wire but the transfer is reported dead — a typed error the
    /// caller degrades on, never a crash.
    bool failed = false;
  };

  /// Deterministic wire-fault oracle: returns true when demand request
  /// `id` (for session `client`) fails its `attempt`-th transfer. Must be
  /// a pure function of its arguments (FaultInjector::wire_fails) — the
  /// engine calls it from the drain loop in queue order.
  using FaultHook =
      std::function<bool(std::uint64_t id, Index client, Index attempt)>;

  /// Outcome of resolving a speculative request against the selection that
  /// consumed it (see resolve_spec).
  struct SpecResolution {
    /// Selected bytes the prediction covered but the wire had not finished
    /// copying — the caller re-enqueues these as demand traffic (the copy
    /// must still complete, now on the stall-critical path).
    double late_hit_bytes = 0.0;
    /// Mispredicted bytes that never drained: dropped from the queue, so
    /// the wire capacity they reserved is refunded to later requests.
    double refunded_bytes = 0.0;
  };

  /// link_gbps > 0: the modeled slow->fast bandwidth (GB/s; bytes/1e6 per
  /// virtual millisecond, the same unit convention as LatencyModel).
  explicit TransferEngine(double link_gbps);

  /// Queues `bytes` for `client` (a session/request id, echoed back on the
  /// completion) and returns the request id (ids start at 1; 0 is never
  /// issued and can serve as a "no request" sentinel).
  std::uint64_t enqueue(Index client, Priority priority, double bytes);

  /// Drops a queued or partially drained request (preemption / session
  /// release). Returns the un-drained bytes refunded to the queue; 0 when
  /// the id is unknown or already fully drained and reported.
  double cancel(std::uint64_t id);

  /// Resolves a speculative request once the next selection reveals which
  /// of its bytes were hits (`hit_bytes <= the request's total`). Drained
  /// capacity covers hits first: any hit shortfall is late (see
  /// SpecResolution), the never-drained remainder is refunded waste. The
  /// request is removed either way.
  SpecResolution resolve_spec(std::uint64_t id, double hit_bytes);

  /// Installs (or clears, with nullptr) the wire-fault oracle. A demand
  /// request whose drain completes while the hook reports failure resets
  /// its progress and re-queues at the back of the demand class, up to
  /// `max_retries` extra attempts; exhaustion emits a Completion with
  /// `failed = true`. Speculative traffic never consults the hook (a lost
  /// prefetch is already just a missed overlap).
  void set_fault_hook(FaultHook hook, Index max_retries);

  /// Scales the effective link rate (brownout modeling): capacity, busy
  /// time and backlog estimates all see rate x factor until changed.
  /// factor 1 restores the nominal wire exactly.
  void set_rate_factor(double factor);

  /// Advances the link clock to `now_ms`, spending (now_ms - clock) x rate
  /// bytes of capacity on the queue in (priority, enqueue seq) order, and
  /// returns the requests that finished, in drain order. Idle capacity is
  /// lost, not banked: a quiet tick does not let a later tick exceed the
  /// wire rate. Partially drained requests keep their progress (capacity
  /// carry-over across ticks happens per request, via bytes_drained).
  std::vector<Completion> drain_until(double now_ms);

  // ---- queries (all O(queue)) ----

  /// Un-drained bytes currently queued (both priorities).
  [[nodiscard]] double queued_bytes() const noexcept;
  /// Un-drained bytes queued at one priority.
  [[nodiscard]] double queued_bytes(Priority priority) const noexcept;
  /// Requests with un-drained bytes still in the queue.
  [[nodiscard]] Index queue_depth() const noexcept;
  /// Virtual-ms until the wire would finish every queued demand byte
  /// (demand preempts speculative, so only demand backlog counts).
  [[nodiscard]] double demand_backlog_ms() const noexcept;
  [[nodiscard]] double drained_bytes_total() const noexcept {
    return drained_bytes_total_;
  }
  /// Virtual milliseconds the wire spent actively transferring.
  [[nodiscard]] double busy_ms_total() const noexcept { return busy_ms_total_; }
  [[nodiscard]] double clock_ms() const noexcept { return clock_ms_; }
  /// Effective drain rate (nominal x the current brownout factor).
  [[nodiscard]] double rate_bytes_per_ms() const noexcept {
    return rate_bytes_per_ms_ * rate_factor_;
  }
  /// Wire-level retries the fault hook has triggered so far.
  [[nodiscard]] Index wire_retries_total() const noexcept {
    return wire_retries_total_;
  }
  /// Demand requests reported failed after exhausting wire retries.
  [[nodiscard]] Index wire_failures_total() const noexcept {
    return wire_failures_total_;
  }

 private:
  struct Request {
    std::uint64_t id = 0;
    Index client = 0;
    Priority priority = Priority::kSpeculative;
    double bytes = 0.0;
    double drained = 0.0;
    double start_ms = -1.0;  ///< first-drain time (-1 while untouched)
    Index attempts = 0;      ///< wire retries consumed (fault hook)
  };

  [[nodiscard]] std::deque<Request>& queue_for(Priority priority) noexcept {
    return priority == Priority::kDemand ? demand_ : spec_;
  }
  /// Linear scan of both queues plus the landed-speculation list; returns
  /// nullptr when the id is gone. Deterministic by construction (ids and
  /// queue order are insertion order).
  [[nodiscard]] Request* find(std::uint64_t id) noexcept;
  void erase(std::uint64_t id) noexcept;

  double rate_bytes_per_ms_;
  double rate_factor_ = 1.0;
  double clock_ms_ = 0.0;
  std::uint64_t next_id_ = 1;
  std::deque<Request> demand_;
  std::deque<Request> spec_;
  /// Speculative requests whose bytes fully drained but whose hit/waste
  /// split is unknown until the next selection resolves them.
  std::deque<Request> landed_spec_;
  double drained_bytes_total_ = 0.0;
  double busy_ms_total_ = 0.0;
  FaultHook fault_hook_;
  Index fault_max_retries_ = 0;
  Index wire_retries_total_ = 0;
  Index wire_failures_total_ = 0;
};

}  // namespace ckv
