// Async cluster prefetch: deterministic prediction, the in-flight byte
// budget invariant (preemption mid-fetch included), cancel-on-session-
// release, prefetch equivalence (selection identical to sync fetch, only
// latency accounting differs), and the per-step resolve — the store is the
// only record of a speculative fetch, so select() lands the in-flight
// tokens it selects and cancels the rest, across a repair rebuild too. A
// differential test drives the position-indexed residency state of
// ClusterCache and TieredKVStore against a std::set model of the same
// operations and checks that every window token stays fast-resident.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/cluster_cache.hpp"
#include "core/cluster_prefetch.hpp"
#include "core/clusterkv_engine.hpp"
#include "kvcache/tiered_store.hpp"
#include "serve/session.hpp"
#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

namespace ckv {
namespace {

// ---------------------------------------------------------------- predictor

TEST(ClusterPrefetcher, PredictionIsDeterministic) {
  ClusterPrefetchConfig config;
  config.max_clusters = 3;
  ClusterPrefetcher a(config);
  ClusterPrefetcher b(config);

  const std::vector<float> scores{0.1f, 0.9f, 0.4f, 0.8f, 0.2f};
  const std::vector<Index> selected{1};
  a.observe_selection(selected, 5);
  b.observe_selection(selected, 5);
  const auto pa = a.predict(scores, selected);
  const auto pb = b.predict(scores, selected);
  EXPECT_EQ(pa, pb);
  // Best-first by blended score, the selected cluster excluded.
  EXPECT_EQ(pa, (std::vector<Index>{3, 2, 4}));
  // Re-predicting without state changes gives the same answer.
  EXPECT_EQ(a.predict(scores, selected), pa);
}

TEST(ClusterPrefetcher, PriorShiftsRankingDeterministically) {
  ClusterPrefetchConfig config;
  config.max_clusters = 1;
  config.prior_weight = 10.0;  // let the prior dominate similarity
  config.prior_decay = 0.5;
  ClusterPrefetcher prefetcher(config);

  // Cluster 2 keeps being selected; clusters 0/1 never are.
  for (int step = 0; step < 4; ++step) {
    prefetcher.observe_selection(std::vector<Index>{2}, 4);
  }
  // Similarity alone would rank cluster 3 (score 0.9) over 2 (0.1).
  const std::vector<float> scores{0.0f, 0.5f, 0.1f, 0.9f};
  EXPECT_EQ(prefetcher.predict(scores, {}), (std::vector<Index>{2}));
  EXPECT_GT(prefetcher.prior()[2], 0.9);
}

TEST(ClusterPrefetcher, RespectsDepthExclusionAndRebuild) {
  ClusterPrefetchConfig config;
  config.max_clusters = 2;
  ClusterPrefetcher prefetcher(config);
  const std::vector<float> scores{0.9f, 0.8f, 0.7f, 0.6f};

  EXPECT_EQ(prefetcher.predict(scores, {}), (std::vector<Index>{0, 1}));
  const std::vector<Index> exclude{0, 1};
  EXPECT_EQ(prefetcher.predict(scores, exclude), (std::vector<Index>{2, 3}));

  prefetcher.observe_selection(std::vector<Index>{3}, 4);
  EXPECT_GT(prefetcher.prior()[3], 0.0);
  // Repair rebuild: old cluster ids are dead, the prior resets.
  prefetcher.on_rebuild(2);
  ASSERT_EQ(prefetcher.prior().size(), 2u);
  EXPECT_DOUBLE_EQ(prefetcher.prior()[0], 0.0);
  EXPECT_DOUBLE_EQ(prefetcher.prior()[1], 0.0);

  EXPECT_TRUE(ClusterPrefetcher(ClusterPrefetchConfig{}).predict(scores, {}).empty());
  ClusterPrefetchConfig bad;
  bad.prior_decay = 1.0;
  EXPECT_THROW(ClusterPrefetcher{bad}, std::invalid_argument);
}

// --------------------------------------------- tiered-store reservations

TEST(TieredKVStore, FetchLifecycleReservesAndLandsBytes) {
  TieredKVStore store(4);
  Matrix keys(6, 4);
  Matrix values(6, 4);
  store.append_block(keys, values);
  store.offload_to_slow(0, 6);
  FastTierLedger ledger;
  store.attach_ledger(&ledger);
  const Index tb = store.token_bytes();

  const std::vector<Index> positions{0, 1, 2};
  EXPECT_EQ(store.begin_fetch(positions), 3);
  EXPECT_EQ(store.in_flight_count(), 3);
  EXPECT_EQ(store.fast_resident_count(), 0);
  EXPECT_EQ(ledger.bytes(), 0);
  EXPECT_EQ(ledger.reserved_bytes(), 3 * tb);
  EXPECT_EQ(ledger.total_bytes(), 3 * tb);
  EXPECT_EQ(store.stats().tokens_prefetch_issued, 3);
  // Issue accounting happens once: re-issuing in-flight or resident
  // positions moves nothing.
  EXPECT_EQ(store.begin_fetch(positions), 0);
  EXPECT_EQ(store.stats().tokens_prefetch_issued, 3);

  const std::vector<Index> landed{0, 1};
  EXPECT_EQ(store.complete_fetch(landed), 2);
  EXPECT_TRUE(store.is_fast_resident(0));
  EXPECT_FALSE(store.is_in_flight(0));
  EXPECT_EQ(ledger.bytes(), 2 * tb);
  EXPECT_EQ(ledger.reserved_bytes(), tb);
  // Bytes were counted at issue; landing adds no new transfer traffic.
  EXPECT_EQ(store.stats().bytes_to_fast, 3 * tb);
  EXPECT_EQ(store.stats().tokens_fetched, 0);  // no demand moves

  const std::vector<Index> dropped{2};
  EXPECT_EQ(store.cancel_fetch(dropped), 1);
  EXPECT_EQ(ledger.reserved_bytes(), 0);
  EXPECT_EQ(store.stats().tokens_prefetch_canceled, 1);
}

// Regression pin: a demand fetch that catches an in-flight speculative
// copy used to report 0 moved tokens and leave tokens_fetched untouched,
// so callers billed zero transfer time for a copy that may have just been
// issued. It now counts as a demand fetch (under the demand_landed split)
// while its PCIe bytes stay counted once, at issue.
TEST(TieredKVStore, EnsureResidentCountsLandedInFlightAsDemand) {
  TieredKVStore store(4);
  Matrix keys(3, 4);
  Matrix values(3, 4);
  store.append_block(keys, values);
  store.offload_to_slow(0, 3);
  const std::vector<Index> p0{0};
  store.begin_fetch(p0);
  const auto issued_bytes = store.stats().bytes_to_fast;
  // The demand path catches up with the issued copy: it lands and counts
  // as a demand-moved token, but its bytes are not re-counted.
  EXPECT_EQ(store.ensure_resident(p0), 1);
  EXPECT_TRUE(store.is_fast_resident(0));
  EXPECT_EQ(store.in_flight_count(), 0);
  EXPECT_EQ(store.stats().bytes_to_fast, issued_bytes);
  EXPECT_EQ(store.stats().tokens_fetched, 1);
  EXPECT_EQ(store.stats().demand_landed, 1);

  // A plain demand fetch is not a landing: the split stays disjoint.
  const std::vector<Index> p1{1};
  EXPECT_EQ(store.ensure_resident(p1), 1);
  EXPECT_EQ(store.stats().tokens_fetched, 2);
  EXPECT_EQ(store.stats().demand_landed, 1);
  EXPECT_EQ(store.stats().bytes_to_fast, issued_bytes + store.token_bytes());

  // merge() carries the new counter.
  TransferStats merged;
  merged.merge(store.stats());
  merged.merge(store.stats());
  EXPECT_EQ(merged.demand_landed, 2);
  EXPECT_EQ(merged.tokens_fetched, 4);
}

TEST(TieredKVStore, CancelAllAndDetachClearReservation) {
  TieredKVStore store(4);
  Matrix keys(4, 4);
  Matrix values(4, 4);
  store.append_block(keys, values);
  store.offload_to_slow(0, 4);
  FastTierLedger ledger;
  store.attach_ledger(&ledger);
  const std::vector<Index> all{0, 1, 2, 3};
  store.begin_fetch(all);
  EXPECT_GT(ledger.reserved_bytes(), 0);
  EXPECT_EQ(store.cancel_all_fetches(), 4);
  EXPECT_EQ(ledger.reserved_bytes(), 0);
  // Nothing left in flight: a second sweep cancels nothing and counts
  // nothing.
  EXPECT_EQ(store.cancel_all_fetches(), 0);
  EXPECT_EQ(store.stats().tokens_prefetch_canceled, 4);

  // Detach with live fetches: the reservation leaves the ledger with the
  // store (session-release path).
  store.begin_fetch(all);
  EXPECT_GT(ledger.reserved_bytes(), 0);
  store.attach_ledger(nullptr);
  EXPECT_EQ(ledger.bytes(), 0);
  EXPECT_EQ(ledger.reserved_bytes(), 0);
}

// ------------------------------------------- differential residency model

void sort_unique(std::vector<Index>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

// ClusterCache's window restated over std::set: the resident set is
// rebuilt from the window's entries on every query, as an oracle for the
// per-position reference counts the real cache keeps.
class SetCacheModel {
 public:
  explicit SetCacheModel(Index depth) : depth_(depth) {}

  [[nodiscard]] std::set<Index> resident() const {
    std::set<Index> out;
    for (const std::vector<Index>& entry : window_) {
      out.insert(entry.begin(), entry.end());
    }
    return out;
  }

  ClusterCache::StepResult step(const std::vector<Index>& selected) {
    ClusterCache::StepResult r;
    const std::set<Index> before = resident();
    for (const Index t : selected) {
      if (before.contains(t)) {
        ++r.hits;
      } else {
        ++r.misses;
        r.missing_tokens.push_back(t);
      }
    }
    window_.push_front(selected);
    while (static_cast<Index>(window_.size()) > depth_) {
      window_.pop_back();
    }
    const std::set<Index> after = resident();
    std::set_difference(before.begin(), before.end(), after.begin(), after.end(),
                        std::back_inserter(r.evicted_tokens));
    sort_unique(r.missing_tokens);
    hits += r.hits;
    misses += r.misses;
    ++steps;
    return r;
  }

  void clear_window() { window_.clear(); }

  std::int64_t hits = 0;
  std::int64_t misses = 0;
  Index steps = 0;

 private:
  Index depth_;
  std::deque<std::vector<Index>> window_;
};

// TieredKVStore's placement bookkeeping restated over two std::sets.
struct SetStoreModel {
  explicit SetStoreModel(Index token_bytes) : tb(token_bytes) {}

  void append(Index count) {
    for (Index i = 0; i < count; ++i) {
      fast.insert(size++);
    }
  }
  Index offload(std::span<const Index> positions) {
    Index moved = 0;
    for (const Index p : positions) {
      if (fast.erase(p) == 1) {
        stats.bytes_to_slow += tb;
        ++stats.tokens_offloaded;
        ++moved;
      }
    }
    return moved;
  }
  Index ensure_resident(std::span<const Index> positions) {
    Index moved = 0;
    for (const Index p : positions) {
      if (in_flight.erase(p) == 1) {
        fast.insert(p);
        ++stats.tokens_fetched;
        ++stats.demand_landed;
        ++moved;
      } else if (fast.insert(p).second) {
        stats.bytes_to_fast += tb;
        ++stats.tokens_fetched;
        ++moved;
      }
    }
    if (moved > 0) {
      ++stats.fetch_events;
    }
    return moved;
  }
  Index begin_fetch(std::span<const Index> positions) {
    Index count = 0;
    for (const Index p : positions) {
      if (fast.contains(p) || !in_flight.insert(p).second) {
        continue;
      }
      stats.bytes_to_fast += tb;
      ++stats.tokens_prefetch_issued;
      ++count;
    }
    return count;
  }
  Index complete_fetch(std::span<const Index> positions) {
    Index landed = 0;
    for (const Index p : positions) {
      if (in_flight.erase(p) == 1) {
        fast.insert(p);
        ++landed;
      }
    }
    return landed;
  }
  Index cancel_fetch(std::span<const Index> positions, obs::FetchCancelReason reason) {
    Index canceled = 0;
    for (const Index p : positions) {
      if (in_flight.erase(p) == 1) {
        ++stats.tokens_prefetch_canceled;
        ++stats.tokens_prefetch_canceled_by[static_cast<int>(reason)];
        ++canceled;
      }
    }
    return canceled;
  }
  Index cancel_all(obs::FetchCancelReason reason) {
    const std::vector<Index> all(in_flight.begin(), in_flight.end());
    return cancel_fetch(all, reason);
  }
  void drop_from_fast(std::span<const Index> positions) {
    for (const Index p : positions) {
      fast.erase(p);
    }
  }

  Index tb;
  Index size = 0;
  std::set<Index> fast;
  std::set<Index> in_flight;
  TransferStats stats;
};

void expect_same_stats(const TransferStats& real, const TransferStats& model) {
  EXPECT_EQ(real.bytes_to_fast, model.bytes_to_fast);
  EXPECT_EQ(real.bytes_to_slow, model.bytes_to_slow);
  EXPECT_EQ(real.fetch_events, model.fetch_events);
  EXPECT_EQ(real.tokens_fetched, model.tokens_fetched);
  EXPECT_EQ(real.demand_landed, model.demand_landed);
  EXPECT_EQ(real.tokens_offloaded, model.tokens_offloaded);
  EXPECT_EQ(real.tokens_prefetch_issued, model.tokens_prefetch_issued);
  EXPECT_EQ(real.tokens_prefetch_canceled, model.tokens_prefetch_canceled);
  for (int r = 0; r < obs::kFetchCancelReasonCount; ++r) {
    EXPECT_EQ(real.tokens_prefetch_canceled_by[r], model.tokens_prefetch_canceled_by[r]);
  }
}

void expect_same_step(const ClusterCache::StepResult& real,
                      const ClusterCache::StepResult& model) {
  EXPECT_EQ(real.missing_tokens, model.missing_tokens);
  EXPECT_EQ(real.evicted_tokens, model.evicted_tokens);
  EXPECT_EQ(real.hits, model.hits);
  EXPECT_EQ(real.misses, model.misses);
}

// The invariant the engine's prefetch resolve rests on: the window never
// holds a token the store does not have fast-resident, so an in-flight
// token is always a window miss.
void expect_window_fast_resident(const ClusterCache& cache, const TieredKVStore& store) {
  for (const Index p : cache.resident_tokens()) {
    EXPECT_TRUE(store.is_fast_resident(p)) << "window token " << p << " not fast";
  }
}

// One seeded operation sequence over a cache + store pair wired the way
// ClusterKVEngine wires them, with the model mirroring every call.
class ResidencyHarness {
 public:
  ResidencyHarness(std::uint64_t seed, Index depth)
      : rng_(seed), depth_(depth), cache_(depth), model_cache_(depth),
        store_(kDim), model_store_(store_.token_bytes()) {
    const Index n = rng_.uniform_int(40, 100);
    clusters_ = rng_.uniform_int(3, 9);
    store_.append_block(Matrix(n, kDim), Matrix(n, kDim));
    model_store_.append(n);
    store_.attach_ledger(&ledger_);
    store_.offload_to_slow(kSinks, n);
    std::vector<Index> clustered(static_cast<std::size_t>(n - kSinks));
    std::iota(clustered.begin(), clustered.end(), kSinks);
    model_store_.offload(clustered);
    relabel_all();
  }

  void run(int operations) {
    for (int op = 0; op < operations && !::testing::Test::HasFailure(); ++op) {
      SCOPED_TRACE("operation " + std::to_string(op));
      const Index kind = rng_.uniform_int(0, 99);
      if (kind < 40) {
        select_step();
      } else if (kind < 62) {
        issue();
      } else if (kind < 68) {
        cache_.clear_window();
        model_cache_.clear_window();
      } else if (kind < 75) {
        // A repair rebuild: clusters regroup, the window's positions stay.
        relabel_all();
      } else if (kind < 84) {
        const Index cause = rng_.uniform_int(0, obs::kFetchCancelReasonCount - 1);
        const auto reason = static_cast<obs::FetchCancelReason>(cause);
        EXPECT_EQ(store_.cancel_all_fetches(reason), model_store_.cancel_all(reason));
      } else if (kind < 88) {
        release();
      } else if (kind < 94) {
        decode_token();
      } else {
        absent_positions();
      }
      expect_same();
    }
  }

 private:
  static constexpr Index kDim = 4;
  static constexpr Index kSinks = 4;

  /// Fresh random cluster labels for every clustered (non-sink) position.
  void relabel_all() {
    labels_.assign(static_cast<std::size_t>(store_.size()), -1);
    for (Index p = kSinks; p < store_.size(); ++p) {
      labels_[static_cast<std::size_t>(p)] = rng_.uniform_int(0, clusters_ - 1);
    }
  }

  [[nodiscard]] std::vector<Index> tokens_of(Index cluster) const {
    std::vector<Index> tokens;
    for (Index p = 0; p < static_cast<Index>(labels_.size()); ++p) {
      if (labels_[static_cast<std::size_t>(p)] == cluster) {
        tokens.push_back(p);
      }
    }
    return tokens;
  }

  void select_step() {
    std::vector<Index> selected;
    const Index picks = rng_.uniform_int(1, 3);
    for (Index i = 0; i < picks; ++i) {
      auto tokens = tokens_of(rng_.uniform_int(0, clusters_ - 1));
      if (tokens.empty()) {
        continue;
      }
      if (i == picks - 1) {  // trimmed last cluster
        tokens.resize(static_cast<std::size_t>(
            rng_.uniform_int(1, static_cast<Index>(tokens.size()))));
      }
      if (rng_.bernoulli(0.2)) {  // a repeated token
        tokens.push_back(tokens[static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<Index>(tokens.size()) - 1))]);
      }
      if (rng_.bernoulli(0.2)) {  // unsorted
        std::reverse(tokens.begin(), tokens.end());
      }
      selected.insert(selected.end(), tokens.begin(), tokens.end());
    }
    const auto real = cache_.step(selected);
    const auto model = model_cache_.step(selected);
    expect_same_step(real, model);
    if (depth_ == 0) {
      EXPECT_TRUE(real.evicted_tokens.empty());
    }
    // Resolve the step against the store exactly as select() does.
    const auto mispredict = obs::FetchCancelReason::kMisprediction;
    EXPECT_EQ(store_.complete_fetch(real.missing_tokens),
              model_store_.complete_fetch(model.missing_tokens));
    EXPECT_EQ(store_.cancel_all_fetches(mispredict), model_store_.cancel_all(mispredict));
    EXPECT_EQ(store_.ensure_resident(real.missing_tokens),
              model_store_.ensure_resident(model.missing_tokens));
    store_.drop_from_fast(real.evicted_tokens);
    model_store_.drop_from_fast(model.evicted_tokens);
  }

  /// One speculative round as select() issues it: every token of a few
  /// predicted clusters (a cluster may repeat), resident or not — the store
  /// skips fast and in-flight positions itself.
  void issue() {
    std::vector<Index> speculative;
    const Index picks = rng_.uniform_int(1, 3);
    for (Index i = 0; i < picks; ++i) {
      const auto tokens = tokens_of(rng_.uniform_int(0, clusters_ - 1));
      speculative.insert(speculative.end(), tokens.begin(), tokens.end());
    }
    EXPECT_EQ(store_.begin_fetch(speculative), model_store_.begin_fetch(speculative));
  }

  void release() {
    const auto enforce = obs::FetchCancelReason::kEnforcement;
    EXPECT_EQ(store_.cancel_all_fetches(enforce), model_store_.cancel_all(enforce));
    std::vector<Index> victims;
    for (const Index p : store_.fast_positions()) {
      if (p >= kSinks) {
        victims.push_back(p);
      }
    }
    EXPECT_EQ(store_.offload_positions(victims), model_store_.offload(victims));
    cache_.clear_window();
    model_cache_.clear_window();
  }

  void decode_token() {
    const std::vector<float> row(static_cast<std::size_t>(kDim), 0.0f);
    store_.append(row, row);
    model_store_.append(1);
    labels_.push_back(rng_.uniform_int(0, clusters_ - 1));
    if (rng_.bernoulli(0.5)) {
      const Index p = store_.size() - 1;
      store_.offload_to_slow(p, p + 1);
      const std::vector<Index> one{p};
      model_store_.offload(one);
    }
  }

  /// Positions outside [0, size()) are absent to the lookups and to the
  /// drop/land/cancel paths; detaching and re-attaching the ledger moves
  /// its bytes out and back.
  void absent_positions() {
    const std::vector<Index> absent{-7, -1, store_.size(), store_.size() + 3};
    store_.drop_from_fast(absent);
    EXPECT_EQ(store_.complete_fetch(absent), 0);
    EXPECT_EQ(store_.cancel_fetch(absent), 0);
    for (const Index p : absent) {
      EXPECT_FALSE(store_.is_fast_resident(p));
      EXPECT_FALSE(store_.is_in_flight(p));
    }
    store_.attach_ledger(nullptr);
    EXPECT_EQ(ledger_.total_bytes(), 0);
    store_.attach_ledger(&ledger_);
  }

  void expect_same() {
    const std::set<Index> resident = model_cache_.resident();
    EXPECT_EQ(cache_.resident_tokens(),
              std::vector<Index>(resident.begin(), resident.end()));
    EXPECT_EQ(cache_.total_hits(), model_cache_.hits);
    EXPECT_EQ(cache_.total_misses(), model_cache_.misses);
    EXPECT_EQ(cache_.steps(), model_cache_.steps);
    expect_window_fast_resident(cache_, store_);

    const Index tb = store_.token_bytes();
    const Index fast = static_cast<Index>(model_store_.fast.size());
    const Index in_flight = static_cast<Index>(model_store_.in_flight.size());
    EXPECT_EQ(store_.size(), model_store_.size);
    EXPECT_EQ(store_.fast_positions(),
              std::vector<Index>(model_store_.fast.begin(), model_store_.fast.end()));
    EXPECT_EQ(store_.fast_resident_count(), fast);
    EXPECT_EQ(store_.fast_resident_bytes(), fast * tb);
    EXPECT_EQ(store_.in_flight_count(), in_flight);
    EXPECT_EQ(store_.in_flight_bytes(), in_flight * tb);
    for (Index p = 0; p < store_.size(); ++p) {
      EXPECT_EQ(store_.is_fast_resident(p), model_store_.fast.contains(p)) << p;
      EXPECT_EQ(store_.is_in_flight(p), model_store_.in_flight.contains(p)) << p;
    }
    EXPECT_EQ(ledger_.bytes(), fast * tb);
    EXPECT_EQ(ledger_.reserved_bytes(), in_flight * tb);
    expect_same_stats(store_.stats(), model_store_.stats);
  }

  Rng rng_;
  Index depth_;
  Index clusters_ = 0;
  std::vector<Index> labels_;  ///< position -> cluster, -1 for sinks
  ClusterCache cache_;
  SetCacheModel model_cache_;
  FastTierLedger ledger_;
  TieredKVStore store_;
  SetStoreModel model_store_;
};

TEST(ResidencyState, MatchesSetModelUnderRandomOperations) {
  for (const Index depth : {0, 1, 2, 3}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE("depth " + std::to_string(depth) + " seed " + std::to_string(seed));
      ResidencyHarness harness(seed * 1000 + static_cast<std::uint64_t>(depth), depth);
      harness.run(200);
      if (HasFailure()) {
        return;
      }
    }
  }
}

// ------------------------------------------------------ engine integration

ClusterKVConfig prefetch_engine_config() {
  ClusterKVConfig config;
  config.sink_tokens = 4;
  config.tokens_per_cluster = 8;
  config.decode_interval = 16;
  config.decode_clusters = 2;
  config.cache_depth = 1;
  config.prefetch_clusters = 3;
  return config;
}

Matrix random_block(Rng& rng, Index rows, Index dim) {
  Matrix m(rows, dim);
  rng.fill_normal(m.flat(), 0.0, 1.0);
  return m;
}

std::vector<float> random_query(Rng& rng, Index dim) {
  std::vector<float> q(static_cast<std::size_t>(dim));
  rng.fill_normal(q, 0.0, 1.0);
  return q;
}

// Selection must be bit-identical with prefetch on or off, with identical
// hit/fetch accounting — prefetch moves *when* bytes cross, not whether.
TEST(ClusterKVEngine, PrefetchEquivalentToSyncFetch) {
  const Index dim = 16;
  auto sync_config = prefetch_engine_config();
  sync_config.prefetch_clusters = 0;
  ClusterKVEngine with(dim, prefetch_engine_config(), Rng(7));
  ClusterKVEngine without(dim, sync_config, Rng(7));

  Rng data(123);
  const Matrix keys = random_block(data, 96, dim);
  const Matrix values = random_block(data, 96, dim);
  with.observe_prefill(keys, values);
  without.observe_prefill(keys, values);

  std::int64_t prefetch_hits = 0;
  for (int step = 0; step < 40; ++step) {
    const auto query = random_query(data, dim);
    const auto a = with.select(query, 24);
    const auto b = without.select(query, 24);
    EXPECT_EQ(a.indices, b.indices) << "step " << step;
    EXPECT_EQ(a.tokens_fetched, b.tokens_fetched) << "step " << step;
    EXPECT_EQ(a.tokens_cache_hit, b.tokens_cache_hit) << "step " << step;
    EXPECT_EQ(b.tokens_prefetch_hit, 0);
    EXPECT_EQ(b.tokens_prefetch_issued, 0);
    prefetch_hits += a.tokens_prefetch_hit;

    const auto kv = random_query(data, dim);
    with.observe_decode(kv, kv);
    without.observe_decode(kv, kv);
  }
  // The prefetcher actually covered some fetches, or the test is vacuous.
  EXPECT_GT(prefetch_hits, 0);
}

// In-flight bytes are part of the budget footprint and survive neither
// preemption nor release: preemption mid-fetch frees the reservation.
TEST(ClusterKVEngine, InFlightBytesCountAndPreemptionCancels) {
  const Index dim = 16;
  ClusterKVEngine engine(dim, prefetch_engine_config(), Rng(3));
  FastTierLedger ledger;
  engine.attach_fast_tier_ledger(&ledger);

  Rng data(9);
  engine.observe_prefill(random_block(data, 80, dim), random_block(data, 80, dim));
  const auto query = random_query(data, dim);
  engine.select(query, 24);

  const auto& store = engine.tiered_store();
  ASSERT_GT(store.in_flight_count(), 0);
  EXPECT_EQ(ledger.reserved_bytes(), store.in_flight_bytes());
  EXPECT_EQ(ledger.bytes(), store.fast_resident_bytes());
  EXPECT_EQ(ledger.total_bytes(),
            store.fast_resident_bytes() + store.in_flight_bytes());

  // Preemption mid-fetch: reserved bytes free together with resident ones;
  // only sinks stay (no pending decode tokens yet).
  const Index released = engine.release_fast_tier();
  EXPECT_GT(released, 0);
  EXPECT_EQ(store.in_flight_count(), 0);
  EXPECT_EQ(ledger.reserved_bytes(), 0);
  EXPECT_EQ(store.fast_resident_count(), engine.sink_count());

  // The engine keeps working after the cancel: the next select refetches
  // on demand and issues fresh prefetches.
  const auto after = engine.select(query, 24);
  EXPECT_GT(after.tokens_fetched, 0);
  EXPECT_GT(after.tokens_prefetch_issued, 0);
}

Index in_flight_selected(const TieredKVStore& store, const std::vector<Index>& flying,
                         const std::vector<Index>& selected) {
  Index count = 0;
  for (const Index p : flying) {
    if (std::binary_search(selected.begin(), selected.end(), p)) {
      EXPECT_TRUE(store.is_fast_resident(p)) << "selected in-flight token " << p;
      ++count;
    }
  }
  return count;
}

std::vector<Index> in_flight_positions(const TieredKVStore& store) {
  std::vector<Index> flying;
  for (Index p = 0; p < store.size(); ++p) {
    if (store.is_in_flight(p)) {
      flying.push_back(p);
    }
  }
  return flying;
}

std::int64_t mispredicted(const TieredKVStore& store) {
  const auto reason = static_cast<int>(obs::FetchCancelReason::kMisprediction);
  return store.stats().tokens_prefetch_canceled_by[reason];
}

// The store is the only record of a speculative fetch, so each select()
// resolves the previous step's speculation against it: in-flight tokens
// the selection takes land as prefetch hits, every other in-flight fetch
// cancels as a misprediction, and every window token stays fast-resident.
TEST(ClusterKVEngine, SelectLandsSelectedInFlightTokensAndCancelsTheRest) {
  const Index dim = 16;
  ClusterKVEngine engine(dim, prefetch_engine_config(), Rng(7));
  const auto& store = engine.tiered_store();
  Rng data(123);
  engine.observe_prefill(random_block(data, 96, dim), random_block(data, 96, dim));

  std::int64_t hits = 0;
  std::int64_t canceled = 0;
  for (int step = 0; step < 40; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const auto flying = in_flight_positions(store);
    const std::int64_t canceled_before = mispredicted(store);
    const auto sel = engine.select(random_query(data, dim), 24);
    const Index landed = in_flight_selected(store, flying, sel.indices);
    EXPECT_EQ(sel.tokens_prefetch_hit, landed);
    EXPECT_EQ(mispredicted(store) - canceled_before,
              static_cast<std::int64_t>(flying.size()) - landed);
    expect_window_fast_resident(engine.cache(), store);
    hits += landed;
    canceled += static_cast<std::int64_t>(flying.size()) - landed;

    const auto kv = random_query(data, dim);
    engine.observe_decode(kv, kv);
  }
  // Both outcomes occurred, or the test is vacuous.
  EXPECT_GT(hits, 0);
  EXPECT_GT(canceled, 0);
}

// A repair rebuild between issue and completion gives the clusters new
// ids but leaves the position-addressed fetches alone: nothing leaks,
// nothing strands, and the next select still lands the in-flight tokens
// it takes as hits.
TEST(ClusterKVEngine, RepairBetweenIssueAndCompletionKeepsInFlightConsistent) {
  const Index dim = 16;
  ClusterKVEngine engine(dim, prefetch_engine_config(), Rng(5));
  FastTierLedger ledger;
  engine.attach_fast_tier_ledger(&ledger);

  Rng data(17);
  engine.observe_prefill(random_block(data, 64, dim), random_block(data, 64, dim));
  // A decode-side clustering flush registers a second batch, so the
  // explicit repair pass below runs (a whole-prompt prefill is one batch).
  for (Index step = 0; step < prefetch_engine_config().decode_interval; ++step) {
    const auto kv = random_query(data, dim);
    engine.observe_decode(kv, kv);
  }
  ASSERT_EQ(engine.pending_count(), 0);  // the flush actually happened

  const auto query = random_query(data, dim);
  engine.select(query, 24);
  const auto& store = engine.tiered_store();
  const auto flying = in_flight_positions(store);
  ASSERT_FALSE(flying.empty());
  const auto reserved_before = ledger.reserved_bytes();

  ASSERT_TRUE(engine.repair_now());
  // The rebuild moved no KV and dropped no fetches: the same tokens are in
  // flight, the reservation is untouched.
  EXPECT_EQ(in_flight_positions(store), flying);
  EXPECT_EQ(ledger.reserved_bytes(), reserved_before);
  expect_window_fast_resident(engine.cache(), store);

  // A wider budget over the same query takes the next-ranked clusters,
  // which are the ones the prefetcher predicted: some in-flight tokens
  // land, the rest cancel, and cache, store and ledger stay in agreement.
  const std::int64_t canceled_before = mispredicted(store);
  const auto sel = engine.select(query, 48);
  const Index landed = in_flight_selected(store, flying, sel.indices);
  EXPECT_GT(landed, 0);
  EXPECT_EQ(sel.tokens_prefetch_hit, landed);
  EXPECT_EQ(mispredicted(store) - canceled_before,
            static_cast<std::int64_t>(flying.size()) - landed);
  expect_window_fast_resident(engine.cache(), store);
  EXPECT_EQ(ledger.reserved_bytes(), store.in_flight_bytes());
  EXPECT_EQ(ledger.bytes(), store.fast_resident_bytes());
}

// A selection between prefill chunks pulls clustered tokens fast and warms
// the prediction prior; the final chunk's repair pass then reassigns every
// cluster id. The pass resets the prior, and later decode steps keep the
// window fast-resident and the ledger equal to the store.
TEST(ClusterKVEngine, FinalChunkRepairKeepsWindowFastResidentAndResetsPrior) {
  const Index dim = 16;
  ClusterKVEngine engine(dim, prefetch_engine_config(), Rng(31));
  FastTierLedger ledger;
  engine.attach_fast_tier_ledger(&ledger);
  Rng data(41);

  // First chunk clusters one batch; a selection *between chunks* pulls
  // clustered tokens fast and warms the prior.
  engine.observe_prefill_chunk(random_block(data, 24, dim),
                               random_block(data, 24, dim), false);
  engine.select(random_query(data, dim), 12);
  ASSERT_EQ(engine.repair_passes(), 0);
  // Short final tail (< tokens_per_cluster): its own batch, then the
  // repair pass re-clusters both batches jointly.
  engine.observe_prefill_chunk(random_block(data, 4, dim),
                               random_block(data, 4, dim), true);
  ASSERT_EQ(engine.repair_passes(), 1);
  for (const double p : engine.prefetcher().prior()) {
    EXPECT_DOUBLE_EQ(p, 0.0) << "stale prior survived the repair pass";
  }

  // Decode selections issue prefetches while some clustered tokens are
  // fast-resident outside the window (left behind by the inter-chunk
  // selection).
  const auto& store = engine.tiered_store();
  Index issued = 0;
  for (int step = 0; step < 6; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const auto kv = random_query(data, dim);
    engine.observe_decode(kv, kv);
    issued += engine.select(random_query(data, dim), 12).tokens_prefetch_issued;
    expect_window_fast_resident(engine.cache(), store);
    EXPECT_EQ(ledger.reserved_bytes(), store.in_flight_bytes());
    EXPECT_EQ(ledger.bytes(), store.fast_resident_bytes());
  }
  EXPECT_GT(issued, 0);
}

// ------------------------------------------------------- session release

TEST(Session, ReleaseAndRetirementCancelInFlightFetches) {
  SessionConfig config;
  config.shape.num_layers = 1;
  config.shape.num_heads = 2;
  config.shape.head_dim = 32;
  config.params.head_dim = 32;
  config.params.num_topics = 16;
  config.engine.budget = 48;
  config.engine.full_attention_layers = 0;

  auto ckv = prefetch_engine_config();
  ckv.sink_tokens = 8;
  ServeRequest request{0, 0.0, 300, 6, 11};
  Session session(request, make_clusterkv_factory(ckv, 21), config);
  FastTierLedger ledger;
  session.attach_fast_tier_ledger(&ledger);
  session.run_prefill(0.0);
  session.decode_next(1.0);
  session.decode_next(2.0);
  ASSERT_GT(ledger.reserved_bytes(), 0);  // prefetches in flight

  // The scheduler's cheap enforcement lever: speculation only.
  const std::int64_t resident_before = ledger.bytes();
  EXPECT_GT(session.cancel_prefetches(), 0);
  EXPECT_EQ(ledger.reserved_bytes(), 0);
  EXPECT_EQ(ledger.bytes(), resident_before);  // resident KV untouched
  EXPECT_EQ(session.preemptions(), 0);         // not a preemption

  // Fresh fetches get issued; session release (ledger detach, the
  // retirement path) drops them with everything else.
  session.decode_next(3.0);
  ASSERT_GT(ledger.reserved_bytes(), 0);
  session.attach_fast_tier_ledger(nullptr);
  EXPECT_EQ(ledger.bytes(), 0);
  EXPECT_EQ(ledger.reserved_bytes(), 0);
}

}  // namespace
}  // namespace ckv
