#include <gtest/gtest.h>

#include "baselines/infinigen.hpp"
#include "baselines/quest.hpp"
#include "kvcache/tiered_store.hpp"
#include "tensor/rng.hpp"

namespace ckv {
namespace {

Matrix random_block(Index rows, Index cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  rng.fill_normal(m.flat(), 0.0, 1.0);
  return m;
}

TEST(TieredStore, KeysKeepAppendOrder) {
  TieredKVStore store(3);
  const auto block = random_block(5, 3, 1);
  store.append_block(block);
  const std::vector<float> k{1.0f, 2.0f, 3.0f};
  store.append(k);
  ASSERT_EQ(store.size(), 6);
  ASSERT_EQ(store.keys().rows(), 6);
  for (Index i = 0; i < 5; ++i) {
    for (Index c = 0; c < 3; ++c) {
      EXPECT_EQ(store.keys().at(i, c), block.at(i, c));
    }
  }
  EXPECT_EQ(store.keys().at(5, 2), 3.0f);
}

// A method stores only the keys it reads, and each reader checks their
// width: the tiered store (ClusterKV clusters them), Quest (page bounds)
// and InfiniGen (its prefill projection).
TEST(KeyWidth, RejectedWhereverAKeyIsRead) {
  const std::vector<float> bad{1.0f, 2.0f};
  const std::vector<float> ok(4, 0.0f);
  TieredKVStore tiered(4);
  EXPECT_THROW(tiered.append(bad), std::invalid_argument);
  EXPECT_THROW(tiered.append_block(Matrix(2, 3)), std::invalid_argument);
  EXPECT_EQ(tiered.size(), 0);

  QuestSelector quest(4, {});
  EXPECT_THROW(quest.observe_decode(bad, ok), std::invalid_argument);
  EXPECT_EQ(quest.context_size(), 0);

  InfiniGenSelector infinigen(4, InfiniGenConfig{.partial_dim = 2});
  EXPECT_THROW(infinigen.observe_prefill(Matrix(8, 3), Matrix(8, 4)),
               std::invalid_argument);
  EXPECT_EQ(infinigen.context_size(), 0);
}

TEST(TieredStore, AppendIsFastResident) {
  TieredKVStore store(4);
  const std::vector<float> x(4, 1.0f);
  store.append(x);
  EXPECT_TRUE(store.is_fast_resident(0));
  EXPECT_EQ(store.fast_resident_count(), 1);
  EXPECT_EQ(store.stats().bytes_to_fast, 0);  // produced in place, no transfer
}

TEST(TieredStore, OffloadAccountsBytes) {
  TieredKVStore store(8);
  const std::vector<float> x(8, 1.0f);
  for (int i = 0; i < 3; ++i) {
    store.append(x);
  }
  store.offload_to_slow(0, 3);
  EXPECT_EQ(store.fast_resident_count(), 0);
  // token_bytes = 2 tensors * 8 channels * 2 bytes = 32.
  EXPECT_EQ(store.token_bytes(), 32);
  EXPECT_EQ(store.stats().bytes_to_slow, 96);
  EXPECT_EQ(store.stats().tokens_offloaded, 3);
}

TEST(TieredStore, EnsureResidentFetchesOnlyMissing) {
  TieredKVStore store(4);
  const std::vector<float> x(4, 1.0f);
  for (int i = 0; i < 4; ++i) {
    store.append(x);
  }
  store.offload_to_slow(0, 4);
  const std::vector<Index> want{1, 2};
  EXPECT_EQ(store.ensure_resident(want), 2);
  EXPECT_EQ(store.stats().tokens_fetched, 2);
  // Second request: already resident, no traffic.
  EXPECT_EQ(store.ensure_resident(want), 0);
  EXPECT_EQ(store.stats().tokens_fetched, 2);
  EXPECT_EQ(store.stats().fetch_events, 1);
}

TEST(TieredStore, DropFromFastIsFree) {
  TieredKVStore store(4);
  const std::vector<float> x(4, 1.0f);
  store.append(x);
  const auto before = store.stats().bytes_to_slow;
  const std::vector<Index> drop{0};
  store.drop_from_fast(drop);
  EXPECT_FALSE(store.is_fast_resident(0));
  EXPECT_EQ(store.stats().bytes_to_slow, before);
}

TEST(TieredStore, DoubleOffloadCountsOnce) {
  TieredKVStore store(4);
  const std::vector<float> x(4, 1.0f);
  store.append(x);
  store.offload_to_slow(0, 1);
  store.offload_to_slow(0, 1);
  EXPECT_EQ(store.stats().tokens_offloaded, 1);
}

TEST(TieredStore, RepeatedEvictRefetchCyclesStaySymmetric) {
  // Offload/fetch churn (the serving preemption pattern) must keep the
  // transfer ledger exact: every byte that went out is matched by the byte
  // that came back, with token counters agreeing at token_bytes() scale.
  TieredKVStore store(8);
  const std::vector<float> x(8, 1.0f);
  for (int i = 0; i < 16; ++i) {
    store.append(x);
  }
  store.offload_to_slow(0, 16);  // initial placement: all slow
  const auto baseline = store.stats();

  std::vector<Index> working{2, 3, 5, 7, 11, 13};
  for (int cycle = 0; cycle < 10; ++cycle) {
    EXPECT_EQ(store.ensure_resident(working), 6);
    EXPECT_EQ(store.offload_positions(working), 6);
  }
  const auto& stats = store.stats();
  EXPECT_EQ(stats.tokens_fetched, baseline.tokens_fetched + 60);
  EXPECT_EQ(stats.tokens_offloaded, baseline.tokens_offloaded + 60);
  EXPECT_EQ(stats.bytes_to_fast, 60 * store.token_bytes());
  EXPECT_EQ(stats.bytes_to_slow - baseline.bytes_to_slow, 60 * store.token_bytes());
  // Symmetry: fetched bytes equal re-offloaded bytes over whole cycles.
  EXPECT_EQ(stats.bytes_to_fast, stats.bytes_to_slow - baseline.bytes_to_slow);
  EXPECT_EQ(store.fast_resident_count(), 0);
  EXPECT_EQ(store.fast_resident_bytes(), 0);
}

TEST(TieredStore, OffloadPositionsCountsOnlyResident) {
  TieredKVStore store(4);
  const std::vector<float> x(4, 1.0f);
  for (int i = 0; i < 4; ++i) {
    store.append(x);
  }
  const std::vector<Index> some{0, 2};
  EXPECT_EQ(store.offload_positions(some), 2);
  EXPECT_EQ(store.offload_positions(some), 0);  // already slow: no traffic
  EXPECT_EQ(store.stats().tokens_offloaded, 2);
  const std::vector<Index> bad{9};
  EXPECT_THROW(store.offload_positions(bad), std::invalid_argument);
}

TEST(TieredStore, FastPositionsAreSortedAndComplete) {
  TieredKVStore store(4);
  const std::vector<float> x(4, 1.0f);
  for (int i = 0; i < 5; ++i) {
    store.append(x);
  }
  store.offload_to_slow(1, 3);
  const auto fast = store.fast_positions();
  const std::vector<Index> want{0, 3, 4};
  EXPECT_EQ(fast, want);
}

TEST(TieredStore, LedgerTracksEveryResidencyMutation) {
  FastTierLedger ledger;
  TieredKVStore store(8);
  const std::vector<float> x(8, 1.0f);
  store.append(x);  // resident before attach
  store.attach_ledger(&ledger);
  EXPECT_EQ(ledger.bytes(), store.fast_resident_bytes());  // attach credits

  for (int i = 0; i < 7; ++i) {
    store.append(x);
  }
  EXPECT_EQ(ledger.bytes(), 8 * store.token_bytes());

  store.offload_to_slow(0, 8);
  EXPECT_EQ(ledger.bytes(), 0);

  const std::vector<Index> some{1, 4, 6};
  store.ensure_resident(some);
  EXPECT_EQ(ledger.bytes(), 3 * store.token_bytes());

  const std::vector<Index> drop{4};
  store.drop_from_fast(drop);
  EXPECT_EQ(ledger.bytes(), 2 * store.token_bytes());

  store.attach_ledger(nullptr);  // detach debits the residual
  EXPECT_EQ(ledger.bytes(), 0);
}

TEST(TieredStore, LedgerSharedAcrossStores) {
  FastTierLedger ledger;
  TieredKVStore a(4);
  TieredKVStore b(4);
  a.attach_ledger(&ledger);
  b.attach_ledger(&ledger);
  const std::vector<float> x(4, 1.0f);
  a.append(x);
  b.append(x);
  b.append(x);
  EXPECT_EQ(ledger.bytes(), a.fast_resident_bytes() + b.fast_resident_bytes());
  a.offload_to_slow(0, 1);
  EXPECT_EQ(ledger.bytes(), b.fast_resident_bytes());
}


TEST(TieredStore, RangeValidation) {
  TieredKVStore store(4);
  EXPECT_THROW(store.offload_to_slow(0, 1), std::invalid_argument);
  const std::vector<Index> bad{0};
  EXPECT_THROW(store.ensure_resident(bad), std::invalid_argument);

  store.append_block(Matrix(3, 4));
  store.offload_to_slow(0, 3);
  FastTierLedger ledger;
  store.attach_ledger(&ledger);
  const std::vector<Index> one{1};
  store.begin_fetch(one);
  // The byte-moving entry points reject positions outside [0, size()).
  for (const Index p : {Index{-1}, Index{3}, Index{100}}) {
    const std::vector<Index> out{p};
    EXPECT_THROW(store.ensure_resident(out), std::invalid_argument) << p;
    EXPECT_THROW(store.begin_fetch(out), std::invalid_argument) << p;
    EXPECT_THROW(store.offload_positions(out), std::invalid_argument) << p;
  }
  EXPECT_THROW(store.offload_to_slow(-1, 2), std::invalid_argument);
  EXPECT_THROW(store.offload_to_slow(2, 1), std::invalid_argument);
  EXPECT_THROW(store.offload_to_slow(0, 4), std::invalid_argument);
  // Lookups and the drop/land/cancel paths treat them as absent.
  const std::vector<Index> absent{-5, -1, 3, 1000};
  for (const Index p : absent) {
    EXPECT_FALSE(store.is_fast_resident(p)) << p;
    EXPECT_FALSE(store.is_in_flight(p)) << p;
  }
  store.drop_from_fast(absent);
  EXPECT_EQ(store.complete_fetch(absent), 0);
  EXPECT_EQ(store.cancel_fetch(absent), 0);
  // Nothing moved: the one in-flight fetch and the ledger are intact.
  EXPECT_EQ(store.in_flight_count(), 1);
  EXPECT_TRUE(store.is_in_flight(1));
  EXPECT_EQ(store.fast_resident_count(), 0);
  EXPECT_EQ(ledger.bytes(), 0);
  EXPECT_EQ(ledger.reserved_bytes(), store.token_bytes());
  EXPECT_EQ(store.stats().tokens_prefetch_canceled, 0);
}

}  // namespace
}  // namespace ckv
