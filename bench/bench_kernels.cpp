// Kernel-level microbenchmarks for the operations the paper optimizes in
// §IV-B/§IV-C: batched scoring (clustering assignment, cluster selection,
// attention) against the scalar double-accumulating reference loops the
// batched kernels replaced, plus timing-only rows for the centroid-update
// channel-partition trade-off (Fig. 7), full k-means, cluster selection +
// indexing, and Quest page scoring.
//
//   bench_kernels            human-readable table (ns/score, GB/s, speedup)
//   bench_kernels --json     also writes BENCH_KERNELS.json (machine-readable
//                            perf trajectory across PRs)
//   bench_kernels --check    CI smoke: every batched kernel must be at least
//                            as fast as its scalar reference, and
//                            centroid-update-P64 must cost at most 4x
//                            centroid-update-P1 (exit 1 if not)
#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/quest.hpp"
#include "bench_common.hpp"
#include "core/centroid_store.hpp"
#include "core/kernels.hpp"
#include "core/kmeans.hpp"
#include "core/selector_index.hpp"
#include "model/procedural.hpp"
#include "tensor/rng.hpp"
#include "tensor/vec_ops.hpp"
#include "util/args.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace {

using namespace ckv;
using bench::Stopwatch;

Matrix random_keys(Index n, Index dim, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, dim);
  rng.fill_normal(m.flat(), 0.0, 1.0);
  return m;
}

/// Times fn: one warmup call, then repeats until `min_seconds` of wall
/// time, returning mean ns per call.
double ns_per_call(const std::function<void()>& fn, double min_seconds) {
  fn();  // warmup
  long calls = 0;
  const Stopwatch watch;
  do {
    fn();
    ++calls;
  } while (watch.seconds() < min_seconds);
  return watch.seconds() * 1e9 / static_cast<double>(calls);
}

// ---- scalar reference loops (the pre-batched implementations) --------------

/// Writes into a caller-owned buffer like the batched kernel does, so the
/// comparison is kernel-vs-kernel, not kernel-plus-allocation.
void scalar_scores(const Matrix& rows, std::span<const float> query,
                   DistanceMetric metric, float scale, std::span<float> out) {
  for (Index r = 0; r < rows.rows(); ++r) {
    out[static_cast<std::size_t>(r)] =
        static_cast<float>(similarity(metric, query, rows.row(r))) * scale;
  }
}

std::vector<Index> scalar_assign(const Matrix& keys, const Matrix& centroids,
                                 DistanceMetric metric) {
  const Index c_count = centroids.rows();
  const Index dim = keys.cols();
  std::vector<double> inv_norm(static_cast<std::size_t>(c_count), 1.0);
  std::vector<double> half_norm_sq(static_cast<std::size_t>(c_count), 0.0);
  for (Index c = 0; c < c_count; ++c) {
    const double norm = norm2(centroids.row(c));
    inv_norm[static_cast<std::size_t>(c)] = norm > 0.0 ? 1.0 / norm : 0.0;
    half_norm_sq[static_cast<std::size_t>(c)] = 0.5 * norm * norm;
  }
  std::vector<Index> labels(static_cast<std::size_t>(keys.rows()), 0);
  for (Index i = 0; i < keys.rows(); ++i) {
    const float* key = keys.row(i).data();
    double best = -1e300;
    Index best_c = 0;
    for (Index c = 0; c < c_count; ++c) {
      const float* cen = centroids.row(c).data();
      double acc = 0.0;
      for (Index k = 0; k < dim; ++k) {
        acc += static_cast<double>(key[k]) * static_cast<double>(cen[k]);
      }
      double score = acc;
      if (metric == DistanceMetric::kCosine) {
        score = acc * inv_norm[static_cast<std::size_t>(c)];
      } else if (metric == DistanceMetric::kL2) {
        score = acc - half_norm_sq[static_cast<std::size_t>(c)];
      }
      if (score > best) {
        best = score;
        best_c = c;
      }
    }
    labels[static_cast<std::size_t>(i)] = best_c;
  }
  return labels;
}

void scalar_scores_at(const Matrix& rows, std::span<const Index> positions,
                      std::span<const float> query, float scale,
                      std::span<float> out) {
  for (std::size_t i = 0; i < positions.size(); ++i) {
    out[i] = static_cast<float>(dot(query, rows.row(positions[i]))) * scale;
  }
}

// ---- benchmark rows ---------------------------------------------------------

struct Row {
  std::string kernel;
  std::string metric;   ///< "-" for timing-only rows
  Index n = 0;          ///< scores (or items) per call
  Index dim = 0;
  double scalar_ns = 0;   ///< ns per call of the scalar reference (0 = none)
  double batched_ns = 0;  ///< ns per call of the batched kernel
  double bytes_per_call = 0;

  [[nodiscard]] double speedup() const {
    return scalar_ns > 0 ? scalar_ns / batched_ns : 0.0;
  }
  [[nodiscard]] double batched_ns_per_score() const {
    return batched_ns / static_cast<double>(n);
  }
  [[nodiscard]] double gbps() const {
    return bytes_per_call / batched_ns;  // bytes/ns == GB/s
  }
};

Row score_row(const std::string& kernel, DistanceMetric metric, const Matrix& rows,
              std::span<const float> query, double min_seconds) {
  Row row;
  row.kernel = kernel;
  row.metric = to_string(metric);
  row.n = rows.rows();
  row.dim = rows.cols();
  row.bytes_per_call =
      static_cast<double>(rows.rows() * rows.cols()) * sizeof(float);
  std::vector<float> out(static_cast<std::size_t>(rows.rows()));
  row.scalar_ns = ns_per_call(
      [&] { scalar_scores(rows, query, metric, 1.0f, out); }, min_seconds);
  row.batched_ns =
      ns_per_call([&] { batched_scores(rows, query, metric, out); }, min_seconds);
  return row;
}

std::string json_number(double v) {
  std::ostringstream s;
  s << v;
  return s.str();
}

void write_json(const std::vector<Row>& rows, const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"threads\": " << parallel_worker_count() << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"kernel\": \"" << r.kernel << "\", \"metric\": \"" << r.metric
        << "\", \"n\": " << r.n << ", \"dim\": " << r.dim
        << ", \"scalar_ns_per_score\": "
        << json_number(r.scalar_ns > 0 ? r.scalar_ns / static_cast<double>(r.n)
                                            : 0.0)
        << ", \"batched_ns_per_score\": " << json_number(r.batched_ns_per_score())
        << ", \"speedup\": " << json_number(r.speedup())
        << ", \"batched_gbps\": " << json_number(r.gbps()) << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "Kernel microbenchmarks: batched SIMD scoring vs the scalar reference "
      "loops (assignment, selection, attention), plus clustering kernels.");
  args.add_switch("json", "also write BENCH_KERNELS.json to the working directory");
  args.add_switch("check",
                  "CI smoke: exit 1 unless every batched kernel >= scalar throughput "
                  "and centroid-update-P64 <= 4x P1");
  args.add_option("min-time", "0",
                  "seconds of wall time per measurement (0 = auto: 0.2, or "
                  "0.05 under --check)");
  args.add_option("threads", "0", "worker override (0 = CKV_THREADS / hardware)");
  try {
    args.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n" << args.help();
    return 2;
  }

  const bool check = args.get_switch("check");
  const double requested = args.get_double("min-time");
  const double min_seconds = requested > 0 ? requested : (check ? 0.05 : 0.2);
  if (args.get_index("threads") > 0) {
    set_parallel_workers(static_cast<int>(args.get_index("threads")));
  }

  bench::print_header("Kernel microbenchmarks: batched SIMD vs scalar reference",
                      "§IV-B/§IV-C kernel costs (Fig. 7 partitions, selection, "
                      "attention scoring)");
  std::cout << "workers: " << parallel_worker_count()
            << " (CKV_THREADS or --threads to override)\n\n";

  const Index dim = 64;
  std::vector<Row> rows;

  // Cluster-selection scoring: one query against C centroids, per metric.
  {
    const Matrix centroids = random_keys(800, dim, 2);
    Rng rng(7);
    const auto query = rng.unit_vector(dim);
    for (const auto metric : {DistanceMetric::kCosine, DistanceMetric::kL2,
                              DistanceMetric::kInnerProduct}) {
      rows.push_back(score_row("centroid-scores", metric, centroids, query, min_seconds));
    }
  }

  // k-means assignment: n keys against C centroids (the §III-D Concern 1
  // hot loop), scalar double-accumulating argmax vs batched_argmax.
  {
    const Index n = 8192;
    const auto keys = random_keys(n, dim, 1);
    const auto centroids = random_keys(n / 80, dim, 2);
    Row row;
    row.kernel = "assignment-argmax";
    row.metric = to_string(DistanceMetric::kCosine);
    row.n = n * centroids.rows();
    row.dim = dim;
    row.bytes_per_call = static_cast<double>(n * centroids.rows() * dim) * sizeof(float);
    std::vector<Index> labels;
    row.scalar_ns = ns_per_call(
        [&] { labels = scalar_assign(keys, centroids, DistanceMetric::kCosine); },
        min_seconds);
    row.batched_ns = ns_per_call(
        [&] { labels = batched_argmax(keys, centroids, DistanceMetric::kCosine); },
        min_seconds);
    rows.push_back(row);
  }

  // Per-step attention scores over the full context (§II-C, O(L d)).
  {
    const Index n = 32768;
    const auto keys = random_keys(n, dim, 12);
    Rng rng(13);
    const auto q = rng.unit_vector(dim);
    const float inv_sqrt_d = static_cast<float>(1.0 / std::sqrt(double(dim)));
    Row row;
    row.kernel = "attention-scores";
    row.metric = "ip";
    row.n = n;
    row.dim = dim;
    row.bytes_per_call = static_cast<double>(n * dim) * sizeof(float);
    std::vector<float> out;
    // Both lanes allocate their result vector, as HeadStream's
    // attention_scores does, so the comparison stays like for like.
    row.scalar_ns = ns_per_call(
        [&] {
          std::vector<float> scores(static_cast<std::size_t>(n));
          for (Index i = 0; i < n; ++i) {
            scores[static_cast<std::size_t>(i)] =
                static_cast<float>(dot(q, keys.row(i))) * inv_sqrt_d;
          }
          out.swap(scores);
        },
        min_seconds);
    row.batched_ns = ns_per_call(
        [&] {
          std::vector<float> scores(static_cast<std::size_t>(n));
          batched_scores(keys, q, DistanceMetric::kInnerProduct, scores, inv_sqrt_d);
          out.swap(scores);
        },
        min_seconds);
    rows.push_back(row);
  }

  // Gathered attention scores over a selected subset (post-selection pass).
  {
    const Index n = 32768;
    const Index budget = 2048;
    const auto keys = random_keys(n, dim, 9);
    Rng rng(11);
    const auto pick = rng.sample_without_replacement(n, budget);
    const auto q = rng.unit_vector(dim);
    Row row;
    row.kernel = "attention-scores-at";
    row.metric = "ip";
    row.n = budget;
    row.dim = dim;
    row.bytes_per_call = static_cast<double>(budget * dim) * sizeof(float);
    std::vector<float> out(static_cast<std::size_t>(budget));
    row.scalar_ns = ns_per_call(
        [&] { scalar_scores_at(keys, pick, q, 1.0f, out); }, min_seconds);
    row.batched_ns =
        ns_per_call([&] { batched_dot_at(keys, pick, q, out); }, min_seconds);
    rows.push_back(row);
  }

  // Timing-only rows (no scalar twin): the Fig. 7 centroid-update
  // partition sweep, full k-means, selection + indexing, Quest paging.
  for (const Index partitions : {Index{1}, Index{16}, Index{64}}) {
    const Index n = 16384;
    const auto keys = random_keys(n, 128, 3);
    Rng rng(4);
    std::vector<Index> labels(static_cast<std::size_t>(n));
    for (auto& l : labels) {
      l = rng.uniform_int(0, 199);
    }
    const Matrix previous(200, 128);
    Matrix out;
    std::vector<Index> counts;
    Row row;
    row.kernel = "centroid-update-P" + std::to_string(partitions);
    row.metric = "-";
    row.n = n;
    row.dim = 128;
    row.bytes_per_call = static_cast<double>(n * 128) * sizeof(float);
    row.batched_ns = ns_per_call(
        [&] { centroid_update(keys, labels, previous, partitions, out, counts); },
        min_seconds);
    rows.push_back(row);
  }
  {
    const Index n = 8192;
    const auto keys = random_keys(n, dim, 5);
    KMeansConfig config;
    config.num_clusters = default_cluster_count(n);
    config.max_iterations = 10;
    Row row;
    row.kernel = "kmeans-full";
    row.metric = to_string(config.metric);
    row.n = n;
    row.dim = dim;
    row.bytes_per_call = static_cast<double>(n * dim) * sizeof(float);
    row.batched_ns = ns_per_call(
        [&] {
          Rng rng(6);
          auto result = kmeans_cluster(keys, config, rng);
          if (result.labels.empty()) {
            std::abort();
          }
        },
        min_seconds);
    rows.push_back(row);
  }
  {
    const Index clusters = 400;
    CentroidStore store(dim);
    Rng rng(7);
    const Index tokens_per = 80;
    Matrix centroids(clusters, dim);
    rng.fill_normal(centroids.flat(), 0.0, 1.0);
    std::vector<Index> labels(static_cast<std::size_t>(clusters * tokens_per));
    for (std::size_t i = 0; i < labels.size(); ++i) {
      labels[i] = static_cast<Index>(i) % clusters;
    }
    store.add_clusters(centroids, labels, 0);
    const auto query = rng.unit_vector(dim);
    Row row;
    row.kernel = "selection-indexing";
    row.metric = "ip";
    row.n = clusters;
    row.dim = dim;
    row.bytes_per_call = static_cast<double>(clusters * dim) * sizeof(float);
    row.batched_ns = ns_per_call(
        [&] {
          const auto scores = store.scores(query);
          const auto selection = select_clusters(scores, store.cluster_sizes(), 1024);
          auto indexed = gather_selected_tokens(store, selection, 1024);
          if (indexed.token_positions.empty()) {
            std::abort();
          }
        },
        min_seconds);
    rows.push_back(row);
  }
  {
    const Index n = 16384;
    ProceduralParams params;
    params.head_dim = dim;
    HeadStream stream(params, Rng(8), n);
    QuestSelector quest(dim, QuestConfig{});
    quest.observe_prefill(stream.keys(), stream.values());
    const auto q = stream.query(0);
    Row row;
    row.kernel = "quest-select";
    row.metric = "-";
    row.n = n / 16;
    row.dim = dim;
    row.bytes_per_call = static_cast<double>(n / 16 * 2 * dim) * sizeof(float);
    row.batched_ns = ns_per_call(
        [&] {
          auto sel = quest.select(q, 1024);
          if (sel.indices.empty()) {
            std::abort();
          }
        },
        min_seconds);
    rows.push_back(row);
  }

  TextTable table({"kernel", "metric", "scores/call", "scalar ns/score",
                   "batched ns/score", "speedup", "batched GB/s"});
  for (const Row& row : rows) {
    table.add_row(
        {row.kernel, row.metric, std::to_string(row.n),
         row.scalar_ns > 0
             ? format_double(row.scalar_ns / static_cast<double>(row.n), 2)
             : "-",
         format_double(row.batched_ns_per_score(), 2),
         row.scalar_ns > 0 ? format_double(row.speedup(), 2) + "x" : "-",
         format_double(row.gbps(), 2)});
  }
  std::cout << table.to_string() << "\n";

  if (args.get_switch("json")) {
    write_json(rows, "BENCH_KERNELS.json");
    std::cout << "wrote BENCH_KERNELS.json\n";
  }

  if (check) {
    bool ok = true;
    for (const Row& row : rows) {
      if (row.scalar_ns > 0 && row.batched_ns > row.scalar_ns) {
        std::cout << "CHECK FAIL: " << row.kernel << " (" << row.metric
                  << ") batched slower than scalar (" << format_double(row.speedup(), 2)
                  << "x)\n";
        ok = false;
      }
    }
    // P sets the stride of the centroid-update walk, not the number of
    // walks over the keys; a cost that grows with P means the keys are
    // walked once per partition.
    const auto ns_of = [&rows](const std::string& kernel) {
      for (const Row& row : rows) {
        if (row.kernel == kernel) {
          return row.batched_ns;
        }
      }
      return 0.0;
    };
    constexpr double kMaxPartitionRatio = 4.0;
    const double partition_ratio =
        ns_of("centroid-update-P64") / ns_of("centroid-update-P1");
    const bool partitions_ok = partition_ratio <= kMaxPartitionRatio;
    if (!partitions_ok) {
      std::cout << "CHECK FAIL: centroid-update-P64 costs "
                << format_double(partition_ratio, 2) << "x centroid-update-P1 (max "
                << format_double(kMaxPartitionRatio, 0) << "x)\n";
    }
    if (ok && partitions_ok) {
      std::cout << "CHECK PASS: batched >= scalar throughput on every "
                   "scalar-vs-batched row; centroid-update-P64 = "
                << format_double(partition_ratio, 2) << "x P1\n";
    }
    return ok && partitions_ok ? 0 : 1;
  }
  return 0;
}
