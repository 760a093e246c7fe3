#include "model/decode_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "tensor/softmax.hpp"
#include "tensor/topk.hpp"
#include "tensor/vec_ops.hpp"

namespace ckv {

DecodeEngine::DecodeEngine(ProceduralContextModel& model,
                           const SelectorFactory& factory,
                           const DecodeEngineConfig& config)
    : model_(model),
      config_(config),
      bank_(model.shape().num_layers, model.shape().num_heads, model.shape().head_dim,
            factory) {
  expects(config.budget > 0, "DecodeEngine: budget must be positive");
  expects(config.full_attention_layers >= 0 &&
              config.full_attention_layers <= model.shape().num_layers,
          "DecodeEngine: full_attention_layers out of range");
}

void DecodeEngine::run_prefill() {
  expects(!prefilled_, "DecodeEngine::run_prefill: already prefilled");
  expects(prefill_done_ == 0,
          "DecodeEngine::run_prefill: chunked prefill already started; finish "
          "it with prefill_chunk");
  prefill_chunk(model_.prompt_len());
}

Index DecodeEngine::prefill_chunk(Index max_tokens) {
  expects(max_tokens > 0, "DecodeEngine::prefill_chunk: max_tokens must be > 0");
  if (prefilled_) {
    return 0;
  }
  const Index prompt = model_.prompt_len();
  const Index begin = prefill_done_;
  const Index end = std::min<Index>(prompt, begin + max_tokens);
  const bool last = end == prompt;
  for (Index l = 0; l < model_.shape().num_layers; ++l) {
    for (Index h = 0; h < model_.shape().num_heads; ++h) {
      const auto& stream = model_.head(l, h);
      auto& selector = bank_.at(l, h);
      if (selector.supports_chunked_prefill()) {
        selector.observe_prefill_chunk(stream.keys().row_slice(begin, end),
                                       stream.values().row_slice(begin, end), last);
      } else if (last) {
        // Chunk-oblivious methods build whole-prompt state once the final
        // chunk lands; the scheduler has billed every chunk's latency by
        // then, so only the state construction is deferred, not the time.
        selector.observe_prefill(stream.keys(), stream.values());
      }
    }
  }
  prefill_done_ = end;
  prefilled_ = last;
  return end - begin;
}

StepResult DecodeEngine::decode_step(Index step) {
  select_step(step);
  return score_step();
}

namespace {

/// The query group of KV head (layer, head) at `step`. GQA: the query-head
/// group shares one selection per KV head.
std::vector<std::vector<float>> group_queries(HeadStream& stream, Index step,
                                              Index group) {
  std::vector<std::vector<float>> queries;
  queries.reserve(static_cast<std::size_t>(group));
  for (Index sub = 0; sub < group; ++sub) {
    queries.push_back(stream.query(step, sub));
  }
  return queries;
}

}  // namespace

StepResult DecodeEngine::select_step(Index step) {
  expects(prefilled_, "DecodeEngine::select_step: run_prefill first");
  expects(!pending_.has_value(),
          "DecodeEngine::select_step: the previous step is not scored yet "
          "(call score_step first)");
  expects(step == next_step_, "DecodeEngine::select_step: steps must be sequential");
  ++next_step_;

  // The generated token joins the context before selection: its KV is on
  // the fast tier (ClusterKV's pending buffer / Quest's partial page).
  model_.append_generated();
  for (Index l = 0; l < model_.shape().num_layers; ++l) {
    for (Index h = 0; h < model_.shape().num_heads; ++h) {
      const auto& stream = model_.head(l, h);
      const Index last = stream.size() - 1;
      bank_.at(l, h).observe_decode(stream.keys().row(last), stream.values().row(last));
    }
  }

  PendingStep pending;
  pending.step = step;
  pending.selected.resize(static_cast<std::size_t>(model_.shape().total_heads()));
  StepResult& traffic = pending.traffic;
  const Index heads = model_.shape().num_heads;
  const Index group = model_.shape().queries_per_kv;
  for (Index l = config_.full_attention_layers; l < model_.shape().num_layers; ++l) {
    for (Index h = 0; h < heads; ++h) {
      // The selection query is the group sum — centroid/page scores are
      // linear in q, so this equals summing the group's scores.
      const auto queries = group_queries(model_.head(l, h), step, group);
      std::vector<float> selection_query = queries.front();
      for (Index sub = 1; sub < group; ++sub) {
        add_in_place(selection_query, queries[static_cast<std::size_t>(sub)]);
      }
      SelectionResult sel = bank_.at(l, h).select(selection_query, config_.budget);
      traffic.tokens_selected += static_cast<Index>(sel.indices.size());
      traffic.tokens_fetched += sel.tokens_fetched;
      traffic.tokens_cache_hit += sel.tokens_cache_hit;
      traffic.tokens_prefetch_hit += sel.tokens_prefetch_hit;
      traffic.tokens_prefetch_issued += sel.tokens_prefetch_issued;
      pending.selected[static_cast<std::size_t>(l * heads + h)] = std::move(sel.indices);
    }
  }
  total_fetched_ += traffic.tokens_fetched;
  total_cache_hits_ += traffic.tokens_cache_hit;
  total_prefetch_hits_ += traffic.tokens_prefetch_hit;
  total_prefetch_issued_ += traffic.tokens_prefetch_issued;
  StepResult counts = traffic;
  pending_ = std::move(pending);
  return counts;
}

StepResult DecodeEngine::score_step() {
  expects(pending_.has_value(),
          "DecodeEngine::score_step: no selected step is pending");
  PendingStep pending = std::move(*pending_);
  pending_.reset();

  StepResult result = std::move(pending.traffic);
  RunningStat step_recall;
  RunningStat step_coverage;
  RunningStat step_error;

  const Index layers = model_.shape().num_layers;
  const Index heads = model_.shape().num_heads;
  const Index group = model_.shape().queries_per_kv;
  for (Index l = 0; l < layers; ++l) {
    const bool selection_active = l >= config_.full_attention_layers;
    for (Index h = 0; h < heads; ++h) {
      auto& stream = model_.head(l, h);
      const auto queries = group_queries(stream, pending.step, group);
      const Index n = stream.size();
      std::vector<Index>& selected =
          pending.selected[static_cast<std::size_t>(l * heads + h)];
      if (!selection_active) {
        selected.resize(static_cast<std::size_t>(n));
        std::iota(selected.begin(), selected.end(), Index{0});
      }

      for (Index sub = 0; sub < group; ++sub) {
        const auto& query = queries[static_cast<std::size_t>(sub)];
        const auto full_scores = stream.attention_scores(query);

        // Exact attention output; its softmax also weighs coverage below.
        std::vector<float> full_out(static_cast<std::size_t>(model_.shape().head_dim));
        const auto full_probs =
            attention_output_full(full_scores, stream.values(), full_out);

        // Approximate attention output over the shared selected subset.
        std::vector<float> sel_scores(selected.size());
        for (std::size_t i = 0; i < selected.size(); ++i) {
          sel_scores[i] = full_scores[static_cast<std::size_t>(selected[i])];
        }
        std::vector<float> approx_out(
            static_cast<std::size_t>(model_.shape().head_dim));
        attention_output(sel_scores, selected, stream.values(), approx_out);

        if (config_.attention_feedback && sub == 0) {
          std::vector<float> probs = sel_scores;
          softmax_in_place(probs);
          bank_.at(l, h).observe_attention(selected, probs);
        }

        // Recall/coverage are only measured on meaningful steps (context
        // larger than the budget): when everything fits, every method
        // trivially recalls 1.0 and the sample only dilutes comparisons
        // (see recall_stat's contract in the header).
        if (selection_active && n > config_.budget) {
          // Recall of important tokens (Fig. 11): both sets sized by budget.
          const Index b = std::min<Index>(config_.budget, n);
          const auto truth = top_k_indices(full_scores, b);
          // Set semantics: a position the selector returns twice (or out of
          // order) overlaps the truth at most once.
          std::vector<std::uint8_t> chosen(static_cast<std::size_t>(n), 0);
          for (const Index t : selected) {
            chosen[static_cast<std::size_t>(t)] = 1;
          }
          Index overlap = 0;
          for (const Index t : truth) {
            overlap += chosen[static_cast<std::size_t>(t)];
          }
          step_recall.add(static_cast<double>(overlap) / static_cast<double>(b));

          // Attention-mass coverage of the selected set.
          double mass = 0.0;
          for (const Index t : selected) {
            mass += static_cast<double>(full_probs[static_cast<std::size_t>(t)]);
          }
          step_coverage.add(mass);

          // Relative output error.
          std::vector<float> diff(full_out.size());
          for (std::size_t i = 0; i < diff.size(); ++i) {
            diff[i] = approx_out[i] - full_out[i];
          }
          const double denom = norm2(full_out);
          step_error.add(denom > 0.0 ? norm2(diff) / denom : 0.0);
        }

        if (l == layers - 1) {
          result.features.insert(result.features.end(), approx_out.begin(),
                                 approx_out.end());
        }
      }
    }
  }

  if (step_recall.count() > 0) {
    result.mean_recall = step_recall.mean();
    result.mean_coverage = step_coverage.mean();
    result.mean_output_error = step_error.mean();
    recall_.add(result.mean_recall);
    coverage_.add(result.mean_coverage);
  } else {
    // No selection was forced anywhere this step (every context fit its
    // budget, or every layer ran full attention): attention was computed
    // exactly, so the step is vacuously lossless. Reporting it as 1.0
    // recall / 1.0 coverage / 0.0 error keeps per-step consumers
    // (workloads blending quality) honest, while the engine aggregates
    // skip it entirely — a lossless step must neither read as catastrophic
    // nor dilute the selection-forced average.
    result.mean_recall = 1.0;
    result.mean_coverage = 1.0;
    result.mean_output_error = 0.0;
  }
  return result;
}

}  // namespace ckv
