#include "model/procedural.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/kernels.hpp"
#include "tensor/vec_ops.hpp"
#include "util/parallel.hpp"

namespace ckv {

HeadStream::HeadStream(const ProceduralParams& params, Rng rng, Index prompt_len,
                       Index capacity)
    : params_(params),
      topic_rng_(rng.fork("topics")),
      key_rng_(rng.fork("keys")),
      query_rng_(rng.fork("queries")),
      prompt_len_(prompt_len) {
  expects(params.head_dim > 0, "HeadStream: head_dim must be positive");
  expects(params.num_topics > 0, "HeadStream: num_topics must be positive");
  expects(prompt_len >= 0, "HeadStream: prompt_len must be non-negative");

  Rng structure_rng = rng.fork("structure");
  topic_dirs_ = Matrix(params.num_topics, params.head_dim);
  value_dirs_ = Matrix(params.num_topics, params.head_dim);
  for (Index g = 0; g < params.num_topics; ++g) {
    copy_to(structure_rng.unit_vector(params.head_dim), topic_dirs_.row(g));
    copy_to(structure_rng.unit_vector(params.head_dim), value_dirs_.row(g));
  }
  sink_dir_ = structure_rng.unit_vector(params.head_dim);

  const Index outliers = std::min<Index>(params.outlier_channels, params.head_dim);
  const auto channels = structure_rng.sample_without_replacement(params.head_dim, outliers);
  for (const Index c : channels) {
    outlier_channel_ids_.push_back(c);
    const double sign = structure_rng.bernoulli(0.5) ? 1.0 : -1.0;
    outlier_channel_offset_.push_back(static_cast<float>(sign * params.outlier_offset));
  }

  const Index rows = std::max(capacity, prompt_len);
  topic_assignment_.reserve(static_cast<std::size_t>(rows));
  keys_ = Matrix(0, params.head_dim);
  values_ = Matrix(0, params.head_dim);
  keys_.reserve_rows(rows);
  values_.reserve_rows(rows);
  for (Index p = 0; p < prompt_len; ++p) {
    append_token(p);
  }

  // Initial query focus: a random topic subset.
  for (Index i = 0; i < params.focus_width; ++i) {
    current_focus_.push_back(query_rng_.uniform_int(0, params.num_topics - 1));
  }

  expects(params.queries_per_kv >= 1, "HeadStream: queries_per_kv must be >= 1");
  // One query row per generated token.
  queries_.assign(static_cast<std::size_t>(params.queries_per_kv),
                  Matrix(0, params.head_dim));
  for (Index sub = 0; sub < params.queries_per_kv; ++sub) {
    queries_[static_cast<std::size_t>(sub)].reserve_rows(rows - prompt_len);
    sub_query_rngs_.push_back(query_rng_.fork("sub" + std::to_string(sub)));
  }
}

void HeadStream::append_token(Index position) {
  Index topic = 0;
  if (position < params_.sink_tokens) {
    topic = -1;  // sinks carry no topic
  } else if (topic_assignment_.empty() ||
             topic_assignment_.back() < 0 ||
             topic_rng_.bernoulli(params_.topic_change_prob)) {
    topic = topic_rng_.uniform_int(0, params_.num_topics - 1);
  } else {
    topic = topic_assignment_.back();
  }
  topic_assignment_.push_back(topic);

  if (topic < 0) {
    // Attention sink: large-magnitude key far from every topic, with a
    // small perturbation so sinks are not exactly identical.
    std::vector<float> k(sink_dir_.begin(), sink_dir_.end());
    for (float& x : k) {
      x = static_cast<float>(x * params_.sink_scale + key_rng_.normal(0.0, 0.05));
    }
    keys_.append_row(k);
    values_.append_row(make_value(topic_rng_.uniform_int(0, params_.num_topics - 1)));
    return;
  }
  keys_.append_row(make_key(topic));
  values_.append_row(make_value(topic));
}

std::vector<float> HeadStream::make_key(Index topic) {
  const auto dir = topic_dirs_.row(topic);
  std::vector<float> k(static_cast<std::size_t>(params_.head_dim));
  for (std::size_t c = 0; c < k.size(); ++c) {
    k[c] = static_cast<float>(static_cast<double>(dir[c]) +
                              key_rng_.normal(0.0, params_.key_noise /
                                                       std::sqrt(static_cast<double>(
                                                           params_.head_dim))));
  }
  normalize_in_place(k);
  const double scale = std::exp(key_rng_.normal(0.0, params_.key_scale_sigma));
  scale_in_place(k, static_cast<float>(scale));
  for (std::size_t i = 0; i < outlier_channel_ids_.size(); ++i) {
    const auto channel = static_cast<std::size_t>(outlier_channel_ids_[i]);
    const double jitter = 1.0 + params_.outlier_jitter * key_rng_.normal();
    k[channel] += outlier_channel_offset_[i] * static_cast<float>(jitter);
  }
  return k;
}

std::vector<float> HeadStream::make_value(Index topic) {
  const auto dir = value_dirs_.row(topic);
  std::vector<float> v(static_cast<std::size_t>(params_.head_dim));
  for (std::size_t c = 0; c < v.size(); ++c) {
    v[c] = static_cast<float>(static_cast<double>(dir[c]) +
                              key_rng_.normal(0.0, params_.value_noise /
                                                       std::sqrt(static_cast<double>(
                                                           params_.head_dim))));
  }
  return v;
}

Index HeadStream::topic_of(Index position) const {
  expects(position >= 0 && position < size(), "HeadStream::topic_of: out of range");
  return topic_assignment_[static_cast<std::size_t>(position)];
}

void HeadStream::append_generated() { append_token(size()); }

void HeadStream::pin_focus(Index step_begin, Index step_end,
                           std::span<const Index> positions) {
  expects(step_begin >= 0 && step_begin <= step_end, "HeadStream::pin_focus: bad range");
  expects(static_cast<Index>(focus_by_step_.size()) <= step_begin,
          "HeadStream::pin_focus: steps already materialized");
  // Topics of the pinned positions, most frequent first, capped at the
  // focus width.
  std::unordered_map<Index, Index> topic_counts;
  for (const Index p : positions) {
    const Index t = topic_of(p);
    if (t >= 0) {
      ++topic_counts[t];
    }
  }
  expects(!topic_counts.empty(), "HeadStream::pin_focus: positions have no topics");
  // ckv-lint: allow(unordered-iter) -- ranked is fully sorted below with a total order
  std::vector<std::pair<Index, Index>> ranked(topic_counts.begin(), topic_counts.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) {
      return a.second > b.second;
    }
    return a.first < b.first;
  });
  PinnedRange range;
  range.begin = step_begin;
  range.end = step_end;
  for (const auto& [topic, count] : ranked) {
    if (static_cast<Index>(range.topics.size()) >= params_.focus_width) {
      break;
    }
    range.topics.push_back(topic);
  }
  pinned_.push_back(std::move(range));
}

std::vector<Index> HeadStream::focus_for_step(Index step) {
  for (const auto& range : pinned_) {
    if (step >= range.begin && step < range.end) {
      return range.topics;
    }
  }
  // Unpinned: the focus random-walks over topics — this is exactly the
  // dynamic importance of Fig. 3a.
  if (query_rng_.bernoulli(params_.focus_drift_prob) && !current_focus_.empty()) {
    const auto slot = static_cast<std::size_t>(
        query_rng_.uniform_int(0, static_cast<Index>(current_focus_.size()) - 1));
    current_focus_[slot] = query_rng_.uniform_int(0, params_.num_topics - 1);
  }
  return current_focus_;
}

std::vector<float> HeadStream::query(Index step, Index sub_query) {
  expects(step >= 0, "HeadStream::query: step must be non-negative");
  expects(sub_query >= 0 && sub_query < params_.queries_per_kv,
          "HeadStream::query: sub_query out of range");
  // The focus process is causal: materialize every step up to the
  // requested one (sparse readers like the LM harness skip steps).
  while (queries_.front().rows() <= step) {
    materialize_next_query();
  }
  const auto row = queries_[static_cast<std::size_t>(sub_query)].row(step);
  return std::vector<float>(row.begin(), row.end());
}

void HeadStream::materialize_next_query() {
  const Index step = queries_.front().rows();
  const auto focus = focus_for_step(step);
  focus_by_step_.push_back(focus);

  // Shared semantic part: the group's focus topics plus sink alignment.
  std::vector<float> base(static_cast<std::size_t>(params_.head_dim), 0.0f);
  if (!focus.empty()) {
    const float w = 1.0f / static_cast<float>(focus.size());
    for (const Index topic : focus) {
      axpy(w, topic_dirs_.row(topic), base);
    }
  }
  axpy(static_cast<float>(params_.sink_alignment), sink_dir_, base);

  for (Index sub = 0; sub < params_.queries_per_kv; ++sub) {
    std::vector<float> q = base;
    auto& rng = sub_query_rngs_[static_cast<std::size_t>(sub)];
    for (float& x : q) {
      x = static_cast<float>(static_cast<double>(x) +
                             rng.normal(0.0, params_.query_noise /
                                                 std::sqrt(static_cast<double>(
                                                     params_.head_dim))));
    }
    // Queries are orthogonal to the outlier channels: their large
    // magnitudes perturb key *distances* (the KIVI effect §III-B cites
    // against L2 and inner-product clustering) but their per-token jitter
    // is not what the query reads, so attention stays semantic.
    for (const Index channel : outlier_channel_ids_) {
      q[static_cast<std::size_t>(channel)] = 0.0f;
    }
    normalize_in_place(q);
    // query_scale is the *score* sharpness: scores divide by sqrt(d), so
    // the query magnitude carries a sqrt(d) factor to cancel it.
    scale_in_place(q, static_cast<float>(
                          params_.query_scale *
                          std::sqrt(static_cast<double>(params_.head_dim))));
    queries_[static_cast<std::size_t>(sub)].append_row(q);
  }
}

std::vector<float> HeadStream::attention_scores(std::span<const float> query,
                                                Index prefix_len) const {
  expects(static_cast<Index>(query.size()) == params_.head_dim,
          "HeadStream::attention_scores: query width");
  const Index limit = prefix_len < 0 ? size() : std::min<Index>(prefix_len, size());
  const float inv_sqrt_d =
      static_cast<float>(1.0 / std::sqrt(static_cast<double>(params_.head_dim)));
  std::vector<float> scores(static_cast<std::size_t>(limit));
  batched_scores(keys_, 0, limit, query, DistanceMetric::kInnerProduct, scores,
                 inv_sqrt_d);
  return scores;
}

ProceduralContextModel::ProceduralContextModel(const SimShape& shape,
                                               const ProceduralParams& params,
                                               std::uint64_t seed, Index prompt_len,
                                               Index capacity)
    : shape_(shape), prompt_len_(prompt_len) {
  expects(shape.num_layers > 0 && shape.num_heads > 0,
          "ProceduralContextModel: shape must be positive");
  expects(shape.queries_per_kv >= 1,
          "ProceduralContextModel: queries_per_kv must be >= 1");
  ProceduralParams head_params = params;
  head_params.head_dim = shape.head_dim;
  head_params.queries_per_kv = shape.queries_per_kv;
  heads_.resize(static_cast<std::size_t>(shape.total_heads()));
  // Each head writes only its own slot (layer-major).
  parallel_for(0, shape.total_heads(), [&](Index i) {
    const Index l = i / shape.num_heads;
    const Index h = i % shape.num_heads;
    const auto tag = "model/l" + std::to_string(l) + "/h" + std::to_string(h);
    heads_[static_cast<std::size_t>(i)] = std::make_unique<HeadStream>(
        head_params, Rng(derive_seed(seed, tag)), prompt_len, capacity);
  });
}

Index ProceduralContextModel::context_len() const { return heads_.front()->size(); }

HeadStream& ProceduralContextModel::head(Index layer, Index head) {
  expects(layer >= 0 && layer < shape_.num_layers, "ProceduralContextModel: bad layer");
  expects(head >= 0 && head < shape_.num_heads, "ProceduralContextModel: bad head");
  return *heads_[static_cast<std::size_t>(layer * shape_.num_heads + head)];
}

const HeadStream& ProceduralContextModel::head(Index layer, Index head) const {
  expects(layer >= 0 && layer < shape_.num_layers, "ProceduralContextModel: bad layer");
  expects(head >= 0 && head < shape_.num_heads, "ProceduralContextModel: bad head");
  return *heads_[static_cast<std::size_t>(layer * shape_.num_heads + head)];
}

void ProceduralContextModel::append_generated() {
  for (auto& h : heads_) {
    h->append_generated();
  }
}

void ProceduralContextModel::pin_focus(Index step_begin, Index step_end,
                                       std::span<const Index> positions) {
  for (auto& h : heads_) {
    h->pin_focus(step_begin, step_end, positions);
  }
}

}  // namespace ckv
