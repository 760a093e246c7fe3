// The method-agnostic selection interface. Every KV compression method —
// ClusterKV, Quest, InfiniGen, H2O, StreamingLLM, Full KV — implements
// KVSelector for a single attention head; the decode engine, metrics and
// benches only speak this interface.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "tensor/matrix.hpp"
#include "util/common.hpp"

namespace ckv {

class FastTierLedger;

/// Outcome of one selection call plus the work/traffic accounting the
/// latency model consumes.
struct SelectionResult {
  /// Token positions to attend, ascending, deduplicated.
  std::vector<Index> indices;

  /// Representation-scoring work: number of (representation . q) products
  /// performed (centroids for ClusterKV, pages for Quest, tokens for
  /// InfiniGen, 0 for Full KV / static policies).
  Index representations_scored = 0;

  /// Tokens whose KV had to be fetched from the slow tier this step
  /// (demand fetches plus prefetch hits — identical with prefetch on or
  /// off, since prefetch only changes when bytes cross, never whether).
  Index tokens_fetched = 0;

  /// Tokens served from the fast-tier cache this step.
  Index tokens_cache_hit = 0;

  /// The subset of tokens_fetched whose copy was already in flight from a
  /// speculative prefetch (latency overlapped the previous step's compute).
  Index tokens_prefetch_hit = 0;

  /// Speculative fetches issued this step for the *next* step's predicted
  /// selection (0 for methods without async prefetch).
  Index tokens_prefetch_issued = 0;
};

/// Per-head selection policy. Lifecycle: one observe_prefill, then an
/// alternation of select / observe_decode as tokens are generated.
class KVSelector {
 public:
  virtual ~KVSelector() = default;

  KVSelector() = default;
  KVSelector(const KVSelector&) = delete;
  KVSelector& operator=(const KVSelector&) = delete;

  /// Human-readable method name ("ClusterKV", "Quest", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Consumes the prompt's keys/values after prefill (N x d each).
  virtual void observe_prefill(const Matrix& keys, const Matrix& values) = 0;

  /// True when this method can build its prefill state incrementally via
  /// observe_prefill_chunk. Chunk-oblivious methods keep the default; the
  /// decode engine then defers their state construction to one whole-prompt
  /// observe_prefill call when the last chunk lands (latency is still
  /// billed per chunk by the scheduler, so the timing model is identical).
  [[nodiscard]] virtual bool supports_chunked_prefill() const { return false; }

  /// Consumes one contiguous slice of the prompt's KV during chunked
  /// prefill. Called with strictly consecutive slices; `last_chunk` marks
  /// the final one, after which the selector must be ready for select() /
  /// observe_decode(). The default only accepts a single whole-prompt
  /// chunk (it forwards to observe_prefill); callers must gate on
  /// supports_chunked_prefill() before splitting the prompt.
  virtual void observe_prefill_chunk(const Matrix& keys, const Matrix& values,
                                     bool last_chunk);

  /// Consumes one generated token's key/value during decoding.
  virtual void observe_decode(std::span<const float> key,
                              std::span<const float> value) = 0;

  /// Chooses at most `budget` token positions for the given query.
  /// Must be callable repeatedly with different queries/budgets without
  /// mutating logical state (caching layers may update internal stats).
  virtual SelectionResult select(std::span<const float> query, Index budget) = 0;

  /// Attention probabilities feedback for methods that need it (H2O's
  /// cumulative attention scores). indices/probabilities are parallel.
  virtual void observe_attention(std::span<const Index> indices,
                                 std::span<const float> probabilities);

  /// False for methods that permanently evict (H2O, StreamingLLM): evicted
  /// tokens can never reappear in select() results (Fig. 1b family).
  [[nodiscard]] virtual bool is_recallable() const { return true; }

  /// Number of tokens this selector currently knows about.
  [[nodiscard]] virtual Index context_size() const = 0;

  // ---- fast-tier residency (multi-session serving) ----
  //
  // The serving scheduler arbitrates one HBM byte budget across sessions.
  // Methods with a tiered store (ClusterKV) report and release their fast
  // residency; everything else pins the whole context in HBM, which is
  // exactly why compressed methods admit more concurrent sessions.

  /// Tokens of this head's KV currently resident on the fast tier.
  [[nodiscard]] virtual Index fast_resident_tokens() const { return context_size(); }

  /// Offloads reclaimable fast-tier KV (everything but the irreducible
  /// working set: sinks, pending decode tokens) to the slow tier. Returns
  /// tokens moved; methods without a tiered store have nothing to release.
  virtual Index release_fast_tier() { return 0; }

  /// Drops in-flight speculative fetches only (their reserved bytes are
  /// freed; resident KV and the cache window are untouched). Budget
  /// enforcement tries this before any real preemption — speculation is
  /// the cheapest thing to take back. The reason attributes the wasted
  /// traffic (enforcement by default: that is the only external caller in
  /// the serving stack besides retirement, which passes kSessionRelease).
  /// Returns fetches canceled; 0 for methods without async prefetch.
  virtual Index cancel_prefetches(obs::FetchCancelReason reason =
                                      obs::FetchCancelReason::kEnforcement) {
    (void)reason;
    return 0;
  }

  /// Speculative fetches canceled so far for the given reason (waste
  /// attribution; 0 for methods without async prefetch).
  [[nodiscard]] virtual std::int64_t prefetch_canceled_tokens(
      obs::FetchCancelReason reason) const {
    (void)reason;
    return 0;
  }

  /// Registers a shared fast-tier byte ledger (nullptr detaches). No-op
  /// for methods without tiered placement.
  virtual void attach_fast_tier_ledger(FastTierLedger* ledger);

  /// Graceful degradation (fault injection): while set, the next select()
  /// must not issue any slow-tier traffic — it restricts itself to
  /// fast-resident state and skips speculation. A serving session sets
  /// this for exactly one step when its demand fetch is declared dead, and
  /// clears it right after that step's selection. No-op for methods
  /// without a tiered store (they never fetch, so every step is already
  /// resident).
  virtual void set_degraded_step(bool degraded) { (void)degraded; }
};

/// Creates one selector instance for a given (layer, head); head_dim is
/// the per-head channel count.
using SelectorFactory =
    std::function<std::unique_ptr<KVSelector>(Index layer, Index head, Index head_dim)>;

}  // namespace ckv
