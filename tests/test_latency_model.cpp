#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "model/model_config.hpp"
#include "sim/latency_model.hpp"

namespace ckv {
namespace {

LatencyModel llama_model() {
  return LatencyModel(HardwareModel::ada6000(), ModelConfig::llama31_8b());
}

TEST(ModelConfigs, PresetsSane) {
  const auto llama = ModelConfig::llama31_8b();
  EXPECT_EQ(llama.num_layers, 32);
  EXPECT_EQ(llama.num_kv_heads, 8);
  // GQA: 2 * 8 * 128 * 2B = 4 KiB per token per layer.
  EXPECT_EQ(llama.kv_bytes_per_token_layer(2), 4096);
  EXPECT_EQ(llama.kv_bytes_per_token(2), 4096 * 32);
  EXPECT_GT(llama.weight_bytes(2), 15LL * 1000 * 1000 * 1000);

  const auto opt = ModelConfig::opt_6_7b();
  EXPECT_EQ(opt.num_kv_heads, opt.num_heads);  // MHA

  const auto glm = ModelConfig::glm4_9b();
  EXPECT_EQ(glm.num_kv_heads, 2);
}

TEST(LatencyModel, FullKVStepGrowsWithContext) {
  const auto model = llama_model();
  const double t8k = model.full_kv_step(8192).total_ms();
  const double t16k = model.full_kv_step(16384).total_ms();
  const double t32k = model.full_kv_step(32768).total_ms();
  EXPECT_LT(t8k, t16k);
  EXPECT_LT(t16k, t32k);
}

TEST(LatencyModel, ClusterKVStepNearlyFlatInContext) {
  const auto model = llama_model();
  const double t8k = model.clusterkv_step(8192, 1024, 0.37, 102).total_ms();
  const double t32k = model.clusterkv_step(32768, 1024, 0.37, 410).total_ms();
  // Only centroid metadata grows with L: well under 10% difference.
  EXPECT_LT(t32k, t8k * 1.1);
}

TEST(LatencyModel, PaperHeadlineSpeedups) {
  // Fig. 12 headline: ~2x total latency at P=32k, D=1024, budget 1024, and
  // decode throughput improvements up to ~2.5x.
  const auto model = llama_model();
  LatencyModel::RunParams full;
  full.method = LatencyModel::Method::kFullKV;
  full.prompt_len = 32768;
  full.decode_len = 1024;
  LatencyModel::RunParams ckv = full;
  ckv.method = LatencyModel::Method::kClusterKV;
  ckv.budget = 1024;

  const auto full_run = model.run_latency(full);
  const auto ckv_run = model.run_latency(ckv);
  const double latency_speedup = full_run.total_ms() / ckv_run.total_ms();
  EXPECT_GT(latency_speedup, 1.6);
  EXPECT_LT(latency_speedup, 2.6);

  const double throughput_gain = ckv_run.decode_throughput_tps(1024) /
                                 full_run.decode_throughput_tps(1024);
  EXPECT_GT(throughput_gain, 1.9);
  EXPECT_LT(throughput_gain, 3.0);
}

TEST(LatencyModel, SpeedupGrowsWithContext) {
  const auto model = llama_model();
  double previous = 0.0;
  for (const Index p : {8192, 16384, 32768}) {
    LatencyModel::RunParams full;
    full.method = LatencyModel::Method::kFullKV;
    full.prompt_len = p;
    full.decode_len = 512;
    auto ckv = full;
    ckv.method = LatencyModel::Method::kClusterKV;
    ckv.budget = 1024;
    const double speedup = model.run_latency(full).total_ms() /
                           model.run_latency(ckv).total_ms();
    EXPECT_GT(speedup, previous);
    previous = speedup;
  }
}

TEST(LatencyModel, QuestAndClusterKVWithinFivePercent) {
  // Fig. 13b: latency deviation up to ~5% between ClusterKV and Quest.
  const auto model = llama_model();
  for (const Index p : {8192, 16384, 32768}) {
    for (const Index d : {256, 512}) {
      LatencyModel::RunParams quest;
      quest.method = LatencyModel::Method::kQuest;
      quest.prompt_len = p;
      quest.decode_len = d;
      quest.budget = 1024;
      auto ckv = quest;
      ckv.method = LatencyModel::Method::kClusterKV;
      const double tq = model.run_latency(quest).total_ms();
      const double tc = model.run_latency(ckv).total_ms();
      EXPECT_LT(std::abs(tq - tc) / tq, 0.08) << "P=" << p << " D=" << d;
    }
  }
}

TEST(LatencyModel, InfiniGenComparableToFullOffload) {
  // Fig. 13a: InfiniGen's latency is comparable to full-KV inference on
  // its substrate; ClusterKV is >= 2x faster than InfiniGen.
  const LatencyModel model(HardwareModel::ada6000(), ModelConfig::opt_6_7b());
  LatencyModel::RunParams infinigen;
  infinigen.method = LatencyModel::Method::kInfiniGen;
  infinigen.prompt_len = 2048;
  infinigen.decode_len = 256;
  infinigen.budget = 256;
  auto full = infinigen;
  full.method = LatencyModel::Method::kFullKVOffload;
  auto ckv = infinigen;
  ckv.method = LatencyModel::Method::kClusterKV;

  const double ti = model.run_latency(infinigen).total_ms();
  const double tf = model.run_latency(full).total_ms();
  const double tc = model.run_latency(ckv).total_ms();
  EXPECT_GT(ti / tf, 0.7);
  EXPECT_LT(ti / tf, 1.3);
  EXPECT_GT(ti / tc, 1.8);
}

TEST(LatencyModel, ClusteringOverheadSmallShareOfPrefill) {
  // §V-C: clustering accounts for 6-8% of prefill. Allow a wide band but
  // assert the order of magnitude.
  const auto model = llama_model();
  for (const Index p : {8192, 16384, 32768}) {
    const double prefill = model.prefill_ms(p);
    const double clustering = model.clustering_cost_ms(p);
    const double share = clustering / prefill;
    EXPECT_GT(share, 0.01) << p;
    EXPECT_LT(share, 0.15) << p;
  }
}

TEST(LatencyModel, ContendedFetchMatchesClusterKVTransferTerm) {
  // One wire, one formula: the serving scheduler bills ClusterKV fetch
  // stalls as contended_fetch_ms over the transfer engine's queued demand
  // bytes, while the paper-figure model (run_latency, bench_fig12/13)
  // bills clusterkv_step's transfer term. A lone session's demand bytes on
  // the default link must price exactly like that term.
  const auto model = llama_model();
  const double bytes_per_token = static_cast<double>(model.fetch_bytes_per_token());
  for (const Index context : {64, 1000, 8192, 32768}) {
    for (const Index budget : {16, 512, 1024, 4096}) {
      for (const double miss : {0.0, 0.05, 0.37, 0.8, 1.0}) {
        const Index clusters = std::max<Index>(1, context / 80);
        const double attended = static_cast<double>(std::min(budget, context));
        const double wire_ms =
            model.contended_fetch_ms(miss * attended * bytes_per_token);
        const double step_ms =
            model.clusterkv_step(context, budget, miss, clusters).transfer_ms;
        EXPECT_NEAR(wire_ms, step_ms, 1e-12 * std::abs(step_ms))
            << "context " << context << ", budget " << budget << ", miss " << miss;
      }
    }
  }
}

TEST(LatencyModel, QuestStepBillsPartialTrailingPageAsFull) {
  // Regression pin: pages = context / page_size was fractional, under-
  // billing metadata reads and scoring for a partial trailing page that
  // stores full min/max vectors. The count now rounds up.
  const auto model = llama_model();
  const Index page = 16;
  // 6 full pages + 1 token: bills like 7 pages, not 6.0625.
  const auto partial = model.quest_step(6 * page + 1, 1024, page);
  const auto full7 = model.quest_step(7 * page, 1024, page);
  EXPECT_DOUBLE_EQ(partial.metadata_ms, full7.metadata_ms);
  EXPECT_DOUBLE_EQ(partial.selection_ms, full7.selection_ms);
  const auto full6 = model.quest_step(6 * page, 1024, page);
  EXPECT_GT(partial.metadata_ms, full6.metadata_ms);
  EXPECT_GT(partial.selection_ms, full6.selection_ms);
  // Exact multiples are unchanged by the ceil.
  EXPECT_DOUBLE_EQ(full6.metadata_ms * 7.0, full7.metadata_ms * 6.0);
}

TEST(LatencyModel, MissRateIncreasesStepTime) {
  const auto model = llama_model();
  const double hit_heavy = model.clusterkv_step(32768, 1024, 0.2, 400).total_ms();
  const double miss_heavy = model.clusterkv_step(32768, 1024, 0.8, 400).total_ms();
  EXPECT_LT(hit_heavy, miss_heavy);
  EXPECT_THROW((void)model.clusterkv_step(32768, 1024, 1.5, 400), std::invalid_argument);
}

TEST(LatencyModel, BreakdownComponentsNonNegative) {
  const auto model = llama_model();
  const auto b = model.clusterkv_step(16384, 512, 0.4, 200);
  EXPECT_GE(b.weights_ms, 0.0);
  EXPECT_GE(b.kv_read_ms, 0.0);
  EXPECT_GE(b.metadata_ms, 0.0);
  EXPECT_GE(b.selection_ms, 0.0);
  EXPECT_GE(b.transfer_ms, 0.0);
  EXPECT_GE(b.overhead_ms, 0.0);
  EXPECT_NEAR(b.total_ms(),
              b.weights_ms + b.kv_read_ms + b.metadata_ms + b.selection_ms +
                  b.sync_ms + b.transfer_ms + b.overhead_ms,
              1e-12);
}

TEST(LatencyModel, MethodNames) {
  EXPECT_EQ(to_string(LatencyModel::Method::kFullKV), "Full KV");
  EXPECT_EQ(to_string(LatencyModel::Method::kClusterKV), "ClusterKV");
  EXPECT_EQ(to_string(LatencyModel::Method::kQuest), "Quest");
  EXPECT_EQ(to_string(LatencyModel::Method::kInfiniGen), "InfiniGen");
  EXPECT_EQ(to_string(LatencyModel::Method::kFullKVOffload), "InfiniGen (Full)");
}

}  // namespace
}  // namespace ckv
