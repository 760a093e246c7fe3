#include "metrics/serve_metrics.hpp"

#include <algorithm>

namespace ckv {

ServeMetrics::ServeMetrics()
    : total_tokens_(&registry_.counter("serve.tokens_generated")),
      total_preemptions_(&registry_.counter("serve.preemptions")),
      repair_ms_total_(&registry_.counter("serve.repair_ms_total")),
      repair_ticks_(&registry_.counter("serve.repair_ticks")),
      advance_wall_ms_(&registry_.counter("serve.advance_wall_ms")),
      fanout_sessions_(&registry_.counter("serve.fanout_sessions")),
      advanced_sessions_(&registry_.counter("serve.advanced_sessions")),
      occupancy_(&registry_.gauge("serve.fast_tier_bytes")),
      concurrency_(&registry_.gauge("serve.batch_size")),
      queue_depth_(&registry_.gauge("serve.queue_depth")),
      arrival_ms_(&registry_.gauge("serve.arrival_ms")),
      finish_ms_(&registry_.gauge("serve.finish_ms")),
      demand_stall_ms_total_(&registry_.counter("serve.demand_stall_ms_total")),
      demand_stall_steps_(&registry_.counter("serve.demand_stall_steps")),
      link_drained_bytes_(&registry_.counter("serve.link_drained_bytes")),
      link_busy_ms_(&registry_.counter("serve.link_busy_ms")),
      late_prefetch_tokens_(&registry_.counter("serve.late_prefetch_tokens")),
      ttft_hist_(&registry_.histogram("serve.ttft_ms")),
      inter_token_hist_(&registry_.histogram("serve.inter_token_ms")),
      fetch_bytes_hist_(&registry_.histogram("serve.fetch_bytes")),
      repair_hist_(&registry_.histogram("serve.repair_ms")),
      demand_stall_hist_(&registry_.histogram("serve.demand_stall_ms")) {}

void ServeMetrics::record_session(SessionRecord record) {
  expects(record.finish_ms >= record.first_token_ms &&
              record.first_token_ms >= record.prefill_done_ms &&
              record.prefill_done_ms >= record.admit_ms &&
              record.admit_ms >= record.arrival_ms,
          "ServeMetrics::record_session: timestamps out of order");
  total_tokens_->add(record.decode_len);
  total_preemptions_->add(static_cast<std::int64_t>(record.preemptions));
  // first-arrival / last-finish bookkeeping is the gauges' min/max.
  arrival_ms_->set(record.arrival_ms);
  finish_ms_->set(record.finish_ms);
  ttft_hist_->record(record.ttft_ms());
  registry_.counter("serve.prefetch_issued_tokens")
      .add(record.prefetch_issued_tokens);
  registry_.counter("serve.prefetch_hit_tokens").add(record.prefetch_hit_tokens);
  registry_.counter("serve.demand_fetched_tokens")
      .add(record.demand_fetched_tokens);
  registry_.counter("serve.prefetch_canceled_mispredict_tokens")
      .add(record.prefetch_canceled_mispredict_tokens);
  registry_.counter("serve.prefetch_canceled_enforce_tokens")
      .add(record.prefetch_canceled_enforce_tokens);
  registry_.counter("serve.prefetch_canceled_release_tokens")
      .add(record.prefetch_canceled_release_tokens);
  // Fault counters register only when nonzero: a fault-free run's metrics
  // export must stay byte-identical to a build without fault injection.
  if (record.aborted) {
    registry_.counter("serve.fault_aborts").add(std::int64_t{1});
  }
  if (record.degraded_steps > 0) {
    registry_.counter("serve.degraded_steps").add(record.degraded_steps);
  }
  records_.push_back(std::move(record));
}

void ServeMetrics::record_fault_fetch(Index retries, double penalty_ms,
                                      bool dead) {
  expects(retries >= 0 && penalty_ms >= 0.0,
          "ServeMetrics::record_fault_fetch: negative retry accounting");
  if (retries == 0 && !dead) {
    return;  // the fetch never faulted
  }
  registry_.counter("serve.fault_fetch_faults").add(std::int64_t{1});
  if (retries > 0) {
    registry_.counter("serve.retry_attempts").add(retries);
    registry_.counter("serve.retry_ms_total").add(penalty_ms);
  }
  if (dead) {
    registry_.counter("serve.fault_dead_fetches").add(std::int64_t{1});
  } else {
    registry_.counter("serve.retry_recovered").add(std::int64_t{1});
  }
}

void ServeMetrics::record_wire_retries(Index retries) {
  expects(retries >= 0, "ServeMetrics::record_wire_retries: negative count");
  if (retries > 0) {
    registry_.counter("serve.fault_wire_retries").add(retries);
  }
}

void ServeMetrics::record_wire_failure() {
  registry_.counter("serve.fault_wire_failures").add(std::int64_t{1});
}

void ServeMetrics::record_shed_session() {
  registry_.counter("serve.shed_sessions").add(std::int64_t{1});
}

double ServeMetrics::counter_value(const std::string& name) const {
  const auto& counters = registry_.counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second.value();
}

Index ServeMetrics::degraded_steps_total() const noexcept {
  Index steps = 0;
  for (const auto& record : records_) {
    steps += record.degraded_steps;
  }
  return steps;
}

Index ServeMetrics::fault_aborts_total() const noexcept {
  Index aborts = 0;
  for (const auto& record : records_) {
    aborts += record.aborted ? 1 : 0;
  }
  return aborts;
}

void ServeMetrics::record_occupancy(std::int64_t fast_bytes) {
  occupancy_->set(static_cast<double>(fast_bytes));
}

void ServeMetrics::record_tick(double tick_ms, Index running_sessions,
                               Index queued) {
  expects(tick_ms >= 0.0, "ServeMetrics::record_tick: negative tick");
  concurrency_->set(static_cast<double>(running_sessions));
  queue_depth_->set(static_cast<double>(queued));
}

void ServeMetrics::record_repair(double repair_ms) {
  expects(repair_ms >= 0.0, "ServeMetrics::record_repair: negative cost");
  if (repair_ms > 0.0) {
    repair_ms_total_->add(repair_ms);
    repair_ticks_->add(std::int64_t{1});
    repair_hist_->record(repair_ms);
  }
}

void ServeMetrics::record_decode_gap(double gap_ms) {
  expects(gap_ms >= 0.0, "ServeMetrics::record_decode_gap: negative gap");
  inter_token_hist_->record(gap_ms);
}

void ServeMetrics::record_advance_wall(double wall_ms, Index fanned_out,
                                       Index advanced) {
  expects(wall_ms >= 0.0, "ServeMetrics::record_advance_wall: negative wall");
  expects(fanned_out >= 0 && fanned_out <= advanced,
          "ServeMetrics::record_advance_wall: fanned_out must be a subset of "
          "the advanced sessions");
  advance_wall_ms_->add(wall_ms);
  fanout_sessions_->add(static_cast<std::int64_t>(fanned_out));
  advanced_sessions_->add(static_cast<std::int64_t>(advanced));
}

void ServeMetrics::record_fetch_bytes(std::int64_t bytes) {
  expects(bytes >= 0, "ServeMetrics::record_fetch_bytes: negative bytes");
  fetch_bytes_hist_->record(static_cast<double>(bytes));
}

void ServeMetrics::record_demand_stall(double stall_ms) {
  expects(stall_ms >= 0.0, "ServeMetrics::record_demand_stall: negative stall");
  demand_stall_ms_total_->add(stall_ms);
  demand_stall_steps_->add(std::int64_t{1});
  demand_stall_hist_->record(stall_ms);
}

void ServeMetrics::record_transfer_tick(double drained_bytes, double busy_ms) {
  expects(drained_bytes >= 0.0 && busy_ms >= 0.0,
          "ServeMetrics::record_transfer_tick: negative drain");
  link_drained_bytes_->add(drained_bytes);
  link_busy_ms_->add(busy_ms);
}

void ServeMetrics::record_late_prefetch(std::int64_t tokens) {
  expects(tokens >= 0, "ServeMetrics::record_late_prefetch: negative tokens");
  late_prefetch_tokens_->add(tokens);
}

std::int64_t ServeMetrics::total_tokens() const noexcept {
  return total_tokens_->as_int();
}

Index ServeMetrics::total_preemptions() const noexcept {
  return static_cast<Index>(total_preemptions_->as_int());
}

double ServeMetrics::makespan_ms() const noexcept {
  return arrival_ms_->stat().count() > 0
             ? finish_ms_->stat().max() - arrival_ms_->stat().min()
             : 0.0;
}

double ServeMetrics::throughput_tps() const noexcept {
  const double span = makespan_ms();
  return span <= 0.0 ? 0.0
                     : static_cast<double>(total_tokens()) / (span / 1000.0);
}

std::vector<double> ServeMetrics::collect(
    double (SessionRecord::*fn)() const noexcept) const {
  std::vector<double> values;
  values.reserve(records_.size());
  for (const auto& record : records_) {
    values.push_back((record.*fn)());
  }
  return values;
}

double ServeMetrics::ttft_percentile(double p) const {
  const auto values = collect(&SessionRecord::ttft_ms);
  return values.empty() ? 0.0 : percentile(values, p);
}

double ServeMetrics::inter_token_percentile(double p) const {
  const auto values = collect(&SessionRecord::inter_token_ms);
  return values.empty() ? 0.0 : percentile(values, p);
}

double ServeMetrics::queue_wait_percentile(double p) const {
  const auto values = collect(&SessionRecord::queue_wait_ms);
  return values.empty() ? 0.0 : percentile(values, p);
}

double ServeMetrics::prefill_percentile(double p) const {
  const auto values = collect(&SessionRecord::prefill_ms);
  return values.empty() ? 0.0 : percentile(values, p);
}

double ServeMetrics::first_decode_wait_percentile(double p) const {
  const auto values = collect(&SessionRecord::first_decode_wait_ms);
  return values.empty() ? 0.0 : percentile(values, p);
}

double ServeMetrics::mean_queue_wait_ms() const noexcept {
  if (records_.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (const auto& record : records_) {
    total += record.queue_wait_ms();
  }
  return total / static_cast<double>(records_.size());
}

double ServeMetrics::inter_token_gap_p99_ms() const {
  return inter_token_hist_->count() == 0 ? 0.0
                                         : inter_token_hist_->percentile(99.0);
}

Index ServeMetrics::max_queue_depth() const {
  return queue_depth_->stat().count() == 0
             ? 0
             : static_cast<Index>(queue_depth_->stat().max());
}

double ServeMetrics::mean_recall() const noexcept {
  if (records_.empty()) {
    return 0.0;
  }
  // Weight each session by its selection-forced step count so the fleet
  // aggregate has one step-level denominator: runs over the same trace
  // (chunked vs inline, repair on/off) then average over the exact same
  // steps, and sessions that never dropped a token cannot dilute it.
  double weighted = 0.0;
  std::int64_t steps = 0;
  for (const auto& record : records_) {
    weighted += record.mean_recall * static_cast<double>(record.recall_steps);
    steps += record.recall_steps;
  }
  if (steps > 0) {
    return weighted / static_cast<double>(steps);
  }
  // No session ever had to drop a token (every context fit its budget):
  // recall is vacuously perfect. Reporting the empty-stat 0.0 placeholders
  // here would make a lossless run indistinguishable from catastrophic
  // recall.
  return 1.0;
}

std::int64_t ServeMetrics::recall_steps_total() const noexcept {
  std::int64_t steps = 0;
  for (const auto& record : records_) {
    steps += record.recall_steps;
  }
  return steps;
}

double ServeMetrics::mean_coverage() const noexcept {
  if (records_.empty()) {
    return 0.0;
  }
  // Coverage samples come from the same selection-forced steps as recall,
  // so the aggregate shares recall's step weighting (and its vacuous-1.0
  // convention when nothing was ever dropped).
  double weighted = 0.0;
  std::int64_t steps = 0;
  for (const auto& record : records_) {
    weighted += record.mean_coverage * static_cast<double>(record.recall_steps);
    steps += record.recall_steps;
  }
  return steps > 0 ? weighted / static_cast<double>(steps) : 1.0;
}

double ServeMetrics::prefetch_hit_rate() const noexcept {
  if (records_.empty()) {
    return 0.0;
  }
  std::int64_t hits = 0;
  std::int64_t demand = 0;
  for (const auto& record : records_) {
    hits += record.prefetch_hit_tokens;
    demand += record.demand_fetched_tokens;
  }
  const std::int64_t fetched = hits + demand;
  // No fetch traffic at all: nothing to overlap, vacuously perfect (the
  // same convention as mean_recall's lossless case).
  return fetched > 0 ? static_cast<double>(hits) / static_cast<double>(fetched) : 1.0;
}

double ServeMetrics::prefetch_waste_rate() const noexcept {
  std::int64_t issued = 0;
  std::int64_t hits = 0;
  for (const auto& record : records_) {
    issued += record.prefetch_issued_tokens;
    hits += record.prefetch_hit_tokens;
  }
  return issued > 0 ? static_cast<double>(issued - hits) / static_cast<double>(issued)
                    : 0.0;
}

double ServeMetrics::prefetch_waste_rate(
    obs::FetchCancelReason reason) const noexcept {
  const std::int64_t issued = prefetch_issued_total();
  return issued > 0 ? static_cast<double>(prefetch_canceled_total(reason)) /
                          static_cast<double>(issued)
                    : 0.0;
}

std::int64_t ServeMetrics::prefetch_canceled_total(
    obs::FetchCancelReason reason) const noexcept {
  std::int64_t canceled = 0;
  for (const auto& record : records_) {
    switch (reason) {
      case obs::FetchCancelReason::kMisprediction:
        canceled += record.prefetch_canceled_mispredict_tokens;
        break;
      case obs::FetchCancelReason::kEnforcement:
        canceled += record.prefetch_canceled_enforce_tokens;
        break;
      case obs::FetchCancelReason::kSessionRelease:
        canceled += record.prefetch_canceled_release_tokens;
        break;
    }
  }
  return canceled;
}

std::int64_t ServeMetrics::prefetch_issued_total() const noexcept {
  std::int64_t issued = 0;
  for (const auto& record : records_) {
    issued += record.prefetch_issued_tokens;
  }
  return issued;
}

std::int64_t ServeMetrics::prefetch_hits_total() const noexcept {
  std::int64_t hits = 0;
  for (const auto& record : records_) {
    hits += record.prefetch_hit_tokens;
  }
  return hits;
}

double ServeMetrics::mean_cache_hit_rate() const noexcept {
  if (records_.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (const auto& record : records_) {
    total += record.cache_hit_rate;
  }
  return total / static_cast<double>(records_.size());
}

double ServeMetrics::repair_ms_total() const noexcept {
  return repair_ms_total_->value();
}

Index ServeMetrics::repair_ticks() const noexcept {
  return static_cast<Index>(repair_ticks_->as_int());
}

double ServeMetrics::demand_stall_ms_total() const noexcept {
  return demand_stall_ms_total_->value();
}

std::int64_t ServeMetrics::demand_stall_steps() const noexcept {
  return demand_stall_steps_->as_int();
}

double ServeMetrics::link_drained_bytes_total() const noexcept {
  return link_drained_bytes_->value();
}

double ServeMetrics::link_busy_ms_total() const noexcept {
  return link_busy_ms_->value();
}

std::int64_t ServeMetrics::late_prefetch_tokens_total() const noexcept {
  return late_prefetch_tokens_->as_int();
}

double ServeMetrics::advance_wall_ms_total() const noexcept {
  return advance_wall_ms_->value();
}

double ServeMetrics::fanout_fraction() const noexcept {
  const std::int64_t advanced = advanced_sessions_->as_int();
  return advanced > 0
             ? static_cast<double>(fanout_sessions_->as_int()) /
                   static_cast<double>(advanced)
             : 0.0;
}

std::int64_t ServeMetrics::peak_occupancy_bytes() const noexcept {
  return occupancy_->stat().count() == 0
             ? 0
             : static_cast<std::int64_t>(occupancy_->stat().max());
}

const RunningStat& ServeMetrics::concurrency() const noexcept {
  return concurrency_->stat();
}

}  // namespace ckv
