#include "serve/batch_scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace ckv {

namespace {

/// Session trace tracks are 1 + request id; track 0 is the scheduler.
std::int64_t session_track(const Session& session) noexcept {
  return 1 + session.request().id;
}

/// The calling pool worker's trace track, named when tracing is on.
std::int64_t worker_track(obs::Tracer& tr) {
  const int slot = parallel_worker_slot();
  const std::int64_t track = obs::kWorkerTrackBase + slot;
  if (tr.enabled()) {
    tr.set_track_name(track, "worker " + std::to_string(slot));
  }
  return track;
}

/// The ServeMethod the SelectorFactory constructor's mirror fields state.
ServeMethod mirrored_method(const BatchSchedulerConfig& config) {
  const bool clusterkv = config.method == LatencyModel::Method::kClusterKV;
  expects(config.tiered_residency == clusterkv,
          "BatchScheduler: tiered_residency must be set exactly when method is "
          "kClusterKV (the only method with a tiered store)");
  expects(clusterkv || !config.use_transfer_engine,
          "BatchScheduler: use_transfer_engine requires method kClusterKV "
          "(the transfer engine models ClusterKV's slow->fast fetch traffic)");
  ServeMethod method{config.method, ClusterKVConfig{}, 0};
  method.clusterkv.sink_tokens = config.sink_tokens;
  method.clusterkv.decode_interval = config.decode_interval;
  method.clusterkv.cache_depth = config.cache_depth;
  method.clusterkv.tokens_per_cluster = config.tokens_per_cluster;
  method.clusterkv.repair_refine_iterations = config.repair_refine_iterations;
  method.clusterkv.repair_decode_interval = config.repair_decode_interval;
  method.clusterkv.prefetch_clusters = config.prefetch_clusters;
  return method;
}

}  // namespace

BatchScheduler::BatchScheduler(std::vector<ServeRequest> trace, ServeMethod method,
                               SessionConfig session_config, LatencyModel latency,
                               BatchSchedulerConfig config)
    : BatchScheduler(std::move(trace), method, method.factory(), session_config,
                     std::move(latency), config) {}

BatchScheduler::BatchScheduler(std::vector<ServeRequest> trace,
                               SelectorFactory factory,
                               SessionConfig session_config, LatencyModel latency,
                               BatchSchedulerConfig config)
    : BatchScheduler(std::move(trace), mirrored_method(config), std::move(factory),
                     session_config, std::move(latency), config) {}

BatchScheduler::BatchScheduler(std::vector<ServeRequest> trace, ServeMethod method,
                               SelectorFactory factory,
                               SessionConfig session_config, LatencyModel latency,
                               BatchSchedulerConfig config)
    : method_(method),
      factory_(std::move(factory)),
      session_config_(session_config),
      latency_(std::move(latency)),
      config_(config) {
  method_.validate();
  expects(config.fast_tier_budget_bytes >= 0,
          "BatchScheduler: budget must be >= 0");
  expects(config.prefill_chunk_tokens >= 0,
          "BatchScheduler: prefill_chunk_tokens must be >= 0 (0 = whole "
          "prompt per tick)");
  expects(config.max_running >= 0, "BatchScheduler: max_running must be >= 0");
  expects(config.admission_overcommit >= 1.0,
          "BatchScheduler: admission_overcommit must be >= 1");
  expects(method_.tiered() || config.admission_overcommit == 1.0,
          "BatchScheduler: overcommit requires tiered residency (untiered "
          "sessions cannot be preempted back under budget)");
  expects(config.link_gbps >= 0.0,
          "BatchScheduler: link_gbps must be >= 0 (0 = hardware gather rate)");
  expects(method_.tiered() || config.link_gbps == 0.0,
          "BatchScheduler: link_gbps requires method kClusterKV (no other "
          "method has a modeled slow->fast wire)");
  if (method_.tiered()) {
    transfer_link_gbps_ = config_.link_gbps > 0.0 ? config_.link_gbps
                                                  : latency_.link_gather_gbps();
    transfer_engine_ = std::make_unique<TransferEngine>(transfer_link_gbps_);
  }
  if (config_.fault_plan.enabled) {
    config_.fault_plan.validate();
    expects(method_.tiered(),
            "BatchScheduler: fault injection requires kClusterKV (graceful "
            "degradation falls back to resident-only cluster selection)");
    fault_injector_ = std::make_unique<FaultInjector>(config_.fault_plan);
    if (config_.fault_plan.wire_failure_rate > 0.0) {
      transfer_engine_->set_fault_hook(
          [injector = fault_injector_.get()](std::uint64_t id, Index client,
                                             Index attempt) {
            return injector->wire_fails(id, client, attempt);
          },
          config_.fault_plan.wire_max_retries);
    }
  }
  const double budget_cap = static_cast<double>(config_.fast_tier_budget_bytes) *
                            config_.admission_overcommit;
  for (auto& request : trace) {
    expects(config_.fast_tier_budget_bytes == 0 ||
                (static_cast<double>(projected_bytes(request)) <= budget_cap &&
                 residual_bytes(request) <= config_.fast_tier_budget_bytes),
            "BatchScheduler: a request's projected residency exceeds the "
            "global fast-tier budget; it could never be admitted");
    queue_.push(std::move(request));
  }
}

std::int64_t BatchScheduler::projected_bytes(const ServeRequest& request) const {
  const Index context = request.prompt_len + request.decode_len;
  Index tokens = context;
  if (method_.tiered()) {
    // Working-set peak of a tiered session between ticks: sinks + the
    // larger of the decode-phase set (one decode interval of pending
    // tokens + the cache window of R steps x at most `budget` selected
    // tokens) and the prefill-phase pending buffer (chunked prefill
    // flushes clusters every tokens_per_cluster tokens). The whole context
    // caps it for short requests.
    const ClusterKVConfig& ckv = method_.clusterkv;
    const Index floor_tokens =
        ckv.sink_tokens +
        std::max<Index>(ckv.tokens_per_cluster,
                        ckv.decode_interval +
                            ckv.cache_depth * session_config_.engine.budget);
    tokens = std::min<Index>(context, floor_tokens);
  }
  return session_context_bytes(session_config_, tokens);
}

std::int64_t BatchScheduler::residual_bytes(const ServeRequest& request) const {
  const Index context = request.prompt_len + request.decode_len;
  Index tokens = context;
  if (method_.tiered()) {
    // Irreducible fast residency: sinks plus the larger of the two pending
    // buffers — decode-phase (flushed every decode_interval steps) and
    // prefill-phase (chunked prefill flushes every tokens_per_cluster
    // tokens). Preemption can never reclaim below this, mid-prefill or not.
    const ClusterKVConfig& ckv = method_.clusterkv;
    tokens = std::min<Index>(
        context,
        ckv.sink_tokens + std::max<Index>(ckv.decode_interval, ckv.tokens_per_cluster));
  }
  return session_context_bytes(session_config_, tokens);
}

StepBreakdown BatchScheduler::step_cost(const Session& session) const {
  const Index context = session.request().prompt_len + session.tokens_generated();
  const Index budget = session_config_.engine.budget;
  if (method_.tiered()) {
    // Compute-only step: the fetch stall is billed from the transfer
    // engine's contended queue in the tick's bill pass (one shared wire).
    const Index clusters =
        std::max<Index>(1, context / method_.clusterkv.tokens_per_cluster);
    return latency_.clusterkv_step(context, budget, 0.0, clusters);
  }
  return method_.method == LatencyModel::Method::kQuest
             ? latency_.quest_step(context, budget)
             : latency_.full_kv_step(context);
}

std::int64_t BatchScheduler::fast_tier_bytes() const {
  const ExclusiveLock serial(serial_phase_);
  return fast_tier_bytes_locked();
}

std::int64_t BatchScheduler::fast_tier_bytes_locked() const {
  if (method_.tiered()) {
    // Every running session's per-head stores feed the shared ledger, so
    // global residency is a single read — enforcement calls this in a
    // loop, which would otherwise be O(sessions x heads) per victim.
    // Reserved (in-flight prefetch) bytes count: the budget must cover
    // copies already on the wire, and preemption can cancel them.
    return ledger_.total_bytes();
  }
  std::int64_t bytes = 0;
  for (const auto& session : running_) {
    bytes += session->fast_resident_bytes();
  }
  return bytes;
}

bool BatchScheduler::shed_blocked_head() {
  if (fault_injector_ == nullptr ||
      fault_injector_->plan().shed_wait_ms <= 0.0) {
    return false;
  }
  const ServeRequest& head = queue_.front();
  if (now_ms_ - head.arrival_ms <= fault_injector_->plan().shed_wait_ms) {
    return false;
  }
  // Overload shedding: the head has waited past the plan's bound while
  // admission stayed blocked — drop it (counted, traced) instead of
  // letting the queue grow without bound. FIFO order means everything
  // behind it waited less, so at most the head sheds per examination.
  obs::tracer().instant_at("shed", 0, now_ms_,
                           {{"request", head.id},
                            {"waited_ms", static_cast<std::int64_t>(
                                 now_ms_ - head.arrival_ms)}});
  queue_.pop();
  metrics_.record_shed_session();
  return true;
}

void BatchScheduler::admit_arrivals() {
  // Decisions first, serially and FIFO. They read only request fields (the
  // byte projections) and the running count, so the requests admitted
  // earlier in this loop count as running before their sessions exist.
  std::int64_t reserved = 0;
  std::int64_t residual = 0;
  for (const auto& session : running_) {
    reserved += projected_bytes(session->request());
    residual += residual_bytes(session->request());
  }
  std::vector<ServeRequest> admitted;
  while (queue_.has_arrival(now_ms_)) {
    const auto running = static_cast<Index>(running_.size() + admitted.size());
    if (config_.max_running > 0 && running >= config_.max_running) {
      if (shed_blocked_head()) {
        continue;
      }
      break;
    }
    const ServeRequest& head = queue_.front();
    if (config_.fast_tier_budget_bytes > 0) {
      // Admission reserves every running session's projected peak (up to
      // budget * overcommit) AND keeps the sum of irreducible residuals
      // under the plain budget, so enforcement can always preempt its way
      // back under the cap no matter how aggressive the overcommit is.
      double cap = static_cast<double>(config_.fast_tier_budget_bytes) *
                   config_.admission_overcommit;
      if (fault_injector_ != nullptr && running > 0) {
        // Overload burst: the byte cap tightens inside the window, so
        // admission stalls and the queue backs up — the load the shed
        // bound then acts on. Only with a non-empty batch: an idle
        // scheduler must always admit (the idle-jump would otherwise
        // deadlock against a squeezed cap).
        cap *= fault_injector_->admission_factor_at(now_ms_);
      }
      if (static_cast<double>(reserved + projected_bytes(head)) > cap ||
          residual + residual_bytes(head) > config_.fast_tier_budget_bytes) {
        if (shed_blocked_head()) {
          continue;
        }
        break;  // FIFO: the head blocks until residency frees up
      }
    }
    reserved += projected_bytes(head);
    residual += residual_bytes(head);
    admitted.push_back(queue_.pop());
  }
  if (admitted.empty()) {
    return;
  }

  // Synthesis: each admitted context is a pure function of (request,
  // config), so the models build on the pool, one request per chunk. The
  // body touches no serial-phase state (see batch_scheduler.hpp).
  std::vector<std::unique_ptr<ProceduralContextModel>> models(admitted.size());
  const auto synthesize = [&](Index begin, Index end) {
    for (Index i = begin; i < end; ++i) {
      const auto slot = static_cast<std::size_t>(i);
      models[slot] = Session::synthesize(admitted[slot], session_config_);
    }
  };
  parallel_for_range(0, static_cast<Index>(admitted.size()), /*grain=*/1, synthesize);

  // Sessions, in admission order: the selector factory runs in the same
  // order as a one-at-a-time admission would call it.
  auto& tr = obs::tracer();
  for (std::size_t i = 0; i < admitted.size(); ++i) {
    auto session = std::make_unique<Session>(admitted[i], std::move(models[i]),
                                             factory_, session_config_);
    if (method_.tiered()) {
      session->attach_fast_tier_ledger(&ledger_);
    }
    // Admission only reserves and changes state; the prompt is consumed
    // chunk by chunk in subsequent ticks, interleaved with the running
    // batch's decode steps (vLLM-style chunked prefill).
    session->admit(now_ms_);
    if (tr.enabled()) {
      const std::int64_t track = session_track(*session);
      tr.set_track_name(track,
                        "session " + std::to_string(session->request().id));
      // The queued span is emitted retroactively (the session object only
      // exists from admission); arrival is known, so the span is exact.
      tr.begin_at("queued", track, session->arrival_ms());
      tr.end_at("queued", track, now_ms_);
      tr.instant_at("admit", track, now_ms_,
                    {{"prompt_len", session->request().prompt_len},
                     {"decode_len", session->request().decode_len}});
      tr.begin_at("prefilling", track, now_ms_);
    }
    running_.push_back(std::move(session));
  }
}

Index BatchScheduler::next_chunk_tokens(const Session& session) const {
  const Index remaining =
      session.request().prompt_len - session.prefill_tokens_done();
  return config_.prefill_chunk_tokens == 0
             ? remaining
             : std::min<Index>(remaining, config_.prefill_chunk_tokens);
}

double BatchScheduler::prefill_chunk_cost_ms(const Session& session,
                                             Index chunk_tokens) const {
  double cost_ms =
      latency_.prefill_chunk_ms(session.prefill_tokens_done(), chunk_tokens);
  if (method_.tiered()) {
    // Per-chunk incremental clustering: the k-means of this chunk's
    // centroids (chunk/tokens_per_cluster of them over chunk tokens),
    // mirroring ClusterKVEngine::observe_prefill_chunk.
    cost_ms += latency_.clustering_cost_ms(chunk_tokens);
  }
  return cost_ms;
}

void BatchScheduler::enforce_budget(Session* just_stepped) {
  if (config_.fast_tier_budget_bytes == 0) {
    return;
  }
  if (fast_tier_bytes_locked() > config_.fast_tier_budget_bytes) {
    // Coldest first: sessions whose last progress (decode step or prefill
    // chunk) is oldest release before warmer ones (never-advanced sorts
    // coldest of all; ties keep admission order). The session that just
    // advanced is the victim of last resort — evicting it only costs its
    // next step a refetch, but fairness prefers idle state first.
    std::vector<Session*> victims;
    victims.reserve(running_.size());
    for (const auto& session : running_) {
      if (session.get() != just_stepped) {
        victims.push_back(session.get());
      }
    }
    std::stable_sort(victims.begin(), victims.end(),
                     [](const Session* a, const Session* b) {
                       return a->last_step_ms() < b->last_step_ms();
                     });
    if (just_stepped != nullptr) {
      victims.push_back(just_stepped);
    }
    // Before its first token a session holds only its sinks and pending
    // tokens, with nothing in flight, so enforcement can take nothing from
    // it; advance_and_commit commits a tick's prefill chunks as one wave
    // on that premise, checked here.
    const auto expect_first_token = [this](const Session& victim) {
      if (victim.tokens_generated() == 0) {
        ensures(false, "BatchScheduler: enforcement took fast-tier bytes from session " +
                           std::to_string(victim.request().id) +
                           " before its first token, at tick " + std::to_string(ticks_));
      }
    };
    // Phase 1 — take back speculation before touching anyone's resident
    // state: in-flight prefetch bytes are the cheapest to reclaim (the
    // data never landed), and canceling them keeps the *resident* byte
    // trajectory — and therefore cache windows, hit rates and preemption
    // counts — exactly what a synchronous-fetch run would produce.
    auto& tr = obs::tracer();
    for (Session* victim : victims) {
      if (fast_tier_bytes_locked() <= config_.fast_tier_budget_bytes) {
        break;
      }
      // Store-level cancel instants attribute to the victim's track.
      tr.set_track(session_track(*victim));
      const Index canceled = victim->cancel_prefetches();
      // The wire-level mirror: the victim's speculative request leaves the
      // engine's queue too, refunding its un-drained capacity.
      cancel_session_spec(*victim);
      if (canceled > 0) {
        expect_first_token(*victim);
        tr.instant("enforce-cancel", {{"fetches", canceled}});
      }
    }
    // Phase 2 — real preemption of the coldest sessions' resident KV.
    for (Session* victim : victims) {
      if (fast_tier_bytes_locked() <= config_.fast_tier_budget_bytes) {
        break;
      }
      tr.set_track(session_track(*victim));
      const Index moved = victim->release_fast_tier();
      if (moved > 0) {
        expect_first_token(*victim);
        tr.instant("preempt", {{"tokens_offloaded", moved}});
      }
    }
    tr.set_track(0);
  }
  ensures(config_.fast_tier_budget_bytes == 0 ||
              fast_tier_bytes_locked() <= config_.fast_tier_budget_bytes,
          "BatchScheduler: fast-tier budget exceeded after enforcement");
}

void BatchScheduler::retire_finished() {
  auto& tr = obs::tracer();
  auto it = running_.begin();
  while (it != running_.end()) {
    Session& session = **it;
    if (!session.finished()) {
      ++it;
      continue;
    }
    // Resolve any still-in-flight speculation through the attributed
    // cancel path *before* the ledger detach silently drops its
    // reservation: after this, every issued fetch has landed as a hit or
    // been canceled for a counted reason, which is exactly why the waste
    // attribution components sum to issued - hits at end of run.
    tr.set_track(session_track(session));
    tr.set_virtual_now_ms(now_ms_);
    session.cancel_prefetches(obs::FetchCancelReason::kSessionRelease);
    cancel_session_spec(session);
    const SessionRecord record = session.record();
    metrics_.record_session(record);
    if (tr.enabled()) {
      const std::int64_t track = session_track(session);
      tr.end_at("decoding", track, record.finish_ms);
      tr.instant_at("retired", track, record.finish_ms,
                    {{"tokens", session.tokens_generated()},
                     {"preemptions", session.preemptions()}});
    }
    // Teardown frees the session's fast-tier residency (ledger included).
    session.attach_fast_tier_ledger(nullptr);
    ++finished_count_;
    it = running_.erase(it);
  }
  tr.set_track(0);
}

double BatchScheduler::model_bytes_per_step_token() const {
  return static_cast<double>(latency_.fetch_bytes_per_token()) /
         static_cast<double>(session_config_.shape.total_heads());
}

double BatchScheduler::projected_demand_bytes(const Session& session) const {
  const Index context = session.request().prompt_len + session.tokens_generated();
  const double attended =
      static_cast<double>(std::min<Index>(session_config_.engine.budget, context));
  // Measured share of selected tokens fetched on the demand path so far
  // (1 before the first selection: no history, everything misses). On an
  // idle wire this prices a lone session exactly like clusterkv_step's
  // transfer term at that miss rate.
  return session.demand_miss_rate() * attended *
         static_cast<double>(latency_.fetch_bytes_per_token());
}

void BatchScheduler::resolve_session_transfers(Session& session,
                                               const StepResult& step) {
  const double bytes_per_token = model_bytes_per_step_token();
  const std::uint64_t spec_id = session.exchange_spec_transfer(0);
  if (spec_id != 0) {
    // The selection just revealed the outstanding speculation's hit/waste
    // split. Hits the wire finished are free (the overlap worked); hits
    // still queued are *late* — the copy must complete on the demand
    // path, so the backlog it creates stalls upcoming steps. Never-drained
    // waste refunds its reserved wire capacity.
    const double hit_bytes =
        static_cast<double>(step.tokens_prefetch_hit) * bytes_per_token;
    const TransferEngine::SpecResolution resolution =
        transfer_engine_->resolve_spec(spec_id, hit_bytes);
    if (resolution.late_hit_bytes > 0.0) {
      transfer_engine_->enqueue(session.request().id,
                                TransferEngine::Priority::kDemand,
                                resolution.late_hit_bytes);
      metrics_.record_late_prefetch(static_cast<std::int64_t>(
          resolution.late_hit_bytes / bytes_per_token + 0.5));
      obs::tracer().instant("prefetch-late",
                            {{"bytes", static_cast<std::int64_t>(
                                  resolution.late_hit_bytes)}});
    }
  }
  const Index demand_tokens = step.tokens_fetched - step.tokens_prefetch_hit;
  if (demand_tokens > 0) {
    transfer_engine_->enqueue(session.request().id,
                              TransferEngine::Priority::kDemand,
                              static_cast<double>(demand_tokens) * bytes_per_token);
  }
  if (step.tokens_prefetch_issued > 0) {
    session.exchange_spec_transfer(transfer_engine_->enqueue(
        session.request().id, TransferEngine::Priority::kSpeculative,
        static_cast<double>(step.tokens_prefetch_issued) * bytes_per_token));
  }
}

void BatchScheduler::cancel_session_spec(Session& session) {
  const std::uint64_t spec_id = session.exchange_spec_transfer(0);
  if (spec_id != 0) {
    transfer_engine_->cancel(spec_id);
  }
}

void BatchScheduler::sync_wire(double until_ms) {
  if (transfer_engine_ == nullptr) {
    return;
  }
  const double drained_before = transfer_engine_->drained_bytes_total();
  const double busy_before = transfer_engine_->busy_ms_total();
  const double window_begin_ms = transfer_engine_->clock_ms();
  const std::vector<TransferEngine::Completion> completions =
      transfer_engine_->drain_until(until_ms);
  const double drained = transfer_engine_->drained_bytes_total() - drained_before;
  const double busy = transfer_engine_->busy_ms_total() - busy_before;
  metrics_.record_transfer_tick(drained, busy);
  // Wire-fault accounting off the completions (attempts are 0 and failed
  // is false on every completion when no fault hook is installed, so the
  // fault-free path records nothing).
  for (const TransferEngine::Completion& done : completions) {
    if (done.attempts > 0) {
      metrics_.record_wire_retries(done.attempts);
    }
    if (done.failed) {
      metrics_.record_wire_failure();
    }
  }
  auto& tr = obs::tracer();
  if (tr.enabled() && busy > 0.0) {
    // One contiguous busy window per tick (the wire works front-to-back
    // from the window's opening), with per-request completion spans laid
    // out sequentially inside it. Ends clamp to the outer span so
    // floating-point accumulation drift cannot unbalance the track's
    // (ts-sorted) span stack.
    const double window_end_ms = window_begin_ms + busy;
    tr.begin_at("link-busy", obs::kTransferTrack, window_begin_ms,
                {{"bytes", static_cast<std::int64_t>(drained)},
                 {"queued", transfer_engine_->queue_depth()}});
    for (const TransferEngine::Completion& done : completions) {
      const char* name = done.priority == TransferEngine::Priority::kDemand
                             ? "demand-transfer"
                             : "spec-transfer";
      const double begin = std::max(done.start_ms, window_begin_ms);
      const double end = std::clamp(done.end_ms, begin, window_end_ms);
      tr.begin_at(name, obs::kTransferTrack, begin,
                  {{"session", done.client},
                   {"bytes", static_cast<std::int64_t>(done.bytes)}});
      tr.end_at(name, obs::kTransferTrack, end);
      if (done.failed) {
        tr.instant_at("wire-failure", obs::kTransferTrack, end,
                      {{"session", done.client}, {"attempts", done.attempts}});
      }
    }
    tr.end_at("link-busy", obs::kTransferTrack, window_end_ms);
  }
}

void BatchScheduler::advance_item(AdvanceItem& item, double completed_ms) {
  // Thread-local tracer context: on a pool worker this scopes the step's
  // leaf instants (demand-fetch, fetch-issue, repair-pass, ...) to this
  // session's track without disturbing concurrent steps or the scheduler
  // thread's cursor.
  auto& tr = obs::tracer();
  tr.set_track(session_track(*item.session));
  tr.set_virtual_now_ms(completed_ms);
  if (item.prefilling) {
    item.session->prefill_next(item.chunk, completed_ms);
  } else {
    item.step = item.session->select_next(completed_ms);
  }
}

void BatchScheduler::commit_item(AdvanceItem& item, double completed_ms) {
  auto& tr = obs::tracer();
  Session* session = item.session;
  tr.set_track(session_track(*session));
  if (item.prefilling) {
    tr.instant("prefill-chunk",
               {{"tokens", item.chunk}, {"done", session->prefill_tokens_done()}});
    if (session->state() != SessionState::kPrefilling) {
      tr.end("prefilling");
      tr.begin("decoding");
      // Factory mismatch guard for the SelectorFactory constructor: with a
      // tiered method, every selector must feed the shared ledger — an
      // untiered factory would leave it at zero and silently void budget
      // enforcement. Checked when a session finishes prefill, when
      // chunk-oblivious selectors have materialized their whole-prompt
      // state.
      if (method_.tiered()) {
        std::int64_t summed = 0;
        for (const auto& running : running_) {
          summed += running->fast_resident_bytes();
        }
        ensures(ledger_.bytes() == summed,
                "BatchScheduler: tiered_residency is set but the session's "
                "selectors do not report through the fast-tier ledger "
                "(untiered factory?)");
      }
    }
  } else {
    if (session->step_gap_ms() >= 0.0) {  // -1 on the first token (TTFT)
      metrics_.record_decode_gap(session->step_gap_ms());
    }
    const Index demand = item.step.tokens_fetched - item.step.tokens_prefetch_hit;
    if (demand > 0) {
      metrics_.record_fetch_bytes(static_cast<std::int64_t>(demand) *
                                  session_token_bytes(session_config_));
    }
    if (transfer_engine_ != nullptr) {
      // Wire-level bookkeeping for the step the session just took: resolve
      // the previous speculation, queue this step's demand misses and its
      // newly issued speculative traffic. Runs in the exact serial commit
      // order, so enqueue sequence — and therefore drain order — is
      // byte-identical at any worker count.
      resolve_session_transfers(*session, item.step);
    }
    tr.instant("decode-step", {{"token", session->tokens_generated()},
                               {"fetched", item.step.tokens_fetched}});
  }
  if (session->take_resume()) {  // first progress since a preemption
    tr.instant("resume", {{"preemptions", session->preemptions()}});
  }
  enforce_budget(session);
  if (!item.prefilling && fault_injector_ != nullptr) {
    // Mid-decode abort: the client hangs up after this committed token.
    // Only a still-decoding session with at least one token can abort —
    // the session finishes at the tick's completion timestamp and its
    // residency is reclaimed by the normal retirement path.
    if (!session->finished() && session->tokens_generated() >= 1 &&
        fault_injector_->abort_fires(session->request().id,
                                     session->tokens_generated())) {
      session->abort(completed_ms);
      tr.instant("fault-abort", {{"token", session->tokens_generated()}});
    }
  }
}

void BatchScheduler::open_tick(TickState& t) {
  if (running_.empty() && !queue_.has_arrival(now_ms_)) {
    now_ms_ = queue_.next_arrival_ms();  // idle: jump to the next arrival
  }
  // Brownout sampling: one link-rate factor per tick, sampled at the tick's
  // opening timestamp on the virtual clock.
  if (fault_injector_ != nullptr) {  // faults imply kClusterKV, so a wire
    t.link_rate_factor = fault_injector_->rate_factor_at(now_ms_);
    transfer_engine_->set_rate_factor(t.link_rate_factor);
  }
  // The wire keeps draining (and its clock monotone) across an idle jump;
  // otherwise the previous tick already drained it up to now_ms_.
  sync_wire(now_ms_);
  auto& tr = obs::tracer();
  if (tr.enabled() && ticks_ == 0) {
    tr.set_track_name(0, "scheduler");
    if (transfer_engine_ != nullptr) {
      tr.set_track_name(obs::kTransferTrack, "transfer-engine");
    }
  }
  tr.set_track(0);
  tr.set_virtual_now_ms(now_ms_);
}

void BatchScheduler::plan_batch(TickState& t) {
  // Prefilling sessions each consume one prompt chunk this tick, decoding
  // sessions each run one step — round-robin so retirement churn cannot
  // starve anyone.
  const Index batch = static_cast<Index>(running_.size());
  t.items.reserve(running_.size());
  for (Index i = 0; i < batch; ++i) {
    AdvanceItem item;
    item.session = running_[(round_robin_offset_ + i) % batch].get();
    item.prefilling = item.session->state() == SessionState::kPrefilling;
    if (item.prefilling) {
      item.chunk = next_chunk_tokens(*item.session);
    }
    t.items.push_back(item);
  }
  // Advancement order is fixed: prefillers, then decoders, both in
  // round-robin order — identical to the serial scheduler.
  const auto decoders = std::stable_partition(
      t.items.begin(), t.items.end(),
      [](const AdvanceItem& item) { return item.prefilling; });
  t.prefill_count = static_cast<std::size_t>(decoders - t.items.begin());
}

void BatchScheduler::bill(TickState& t) {
  // Mixed prefill+decode billing. Decoders share one weight pass and one
  // framework overhead per tick — the continuous-batching economy — and
  // each adds its private KV-read / selection cost. Prefill chunks are
  // compute-bound GEMM + causal-prefix attention (their weight traffic
  // rides the batch's shared pass), billed per chunk so a long prompt
  // stalls the batch by at most one chunk per tick.
  auto& tr = obs::tracer();
  const ClusterKVConfig& ckv = method_.clusterkv;
  const bool repair_billed = method_.tiered() && ckv.repair_refine_iterations > 0;
  // A repair pass is one warm-started k-means over the clustered context,
  // billed as §IV-B clustering is; overlappable compute like it.
  const auto repair_pass_ms = [&](Index context) {
    return latency_.clustering_cost_ms(context, ckv.repair_refine_iterations,
                                       ckv.tokens_per_cluster);
  };
  // ClusterKV demand billing: the wire serves one contended queue, so
  // a decoder's stall is the completion time of the backlog plus every
  // demand request at or ahead of its position — later decoders wait
  // longer, which is exactly how fleet contention becomes visible. The
  // tick bills the queue's makespan (the last decoder's stall) once; the
  // per-decoder stalls feed the metrics. All inputs are pre-advance
  // state, keeping the bill a pure function of the schedule.
  double demand_bytes_ahead =
      transfer_engine_ != nullptr
          ? transfer_engine_->queued_bytes(TransferEngine::Priority::kDemand)
          : 0.0;
  double demand_stall_tail_ms = 0.0;
  for (std::size_t i = t.prefill_count; i < t.items.size(); ++i) {
    Session& decoder = *t.items[i].session;
    const StepBreakdown b = step_cost(decoder);
    if (i == t.prefill_count) {
      t.tick_ms += b.weights_ms + b.overhead_ms;
    }
    t.tick_ms += b.total_ms() - b.weights_ms - b.overhead_ms;
    // Fault roll: this decoder's demand-fetch outcome for the step it is
    // about to take. Retries bill their backoff into the tick; a dead
    // fetch (retries exhausted or deadline blown) degrades the session's
    // next step to resident-only selection, and its demand traffic never
    // reaches the wire.
    FaultInjector::FetchOutcome fault;
    if (fault_injector_ != nullptr) {
      fault = fault_injector_->fetch_outcome(decoder.request().id,
                                             decoder.tokens_generated());
      if (fault.retries > 0 || fault.dead) {
        t.tick_ms += fault.penalty_ms;
        decoder.note_fault_retries(fault.retries, fault.penalty_ms);
        metrics_.record_fault_fetch(fault.retries, fault.penalty_ms, fault.dead);
        const std::int64_t track = session_track(decoder);
        if (fault.retries > 0) {
          tr.instant_at("fault-retry", track, now_ms_,
                        {{"attempts", fault.retries},
                         {"penalty_us", static_cast<Index>(fault.penalty_ms * 1000.0)}});
        }
        if (fault.dead) {
          decoder.note_dead_fetch();
          decoder.degrade_next_step();
          tr.instant_at("fault-dead-fetch", track, now_ms_,
                        {{"token", decoder.tokens_generated()}});
        }
      }
    }
    if (transfer_engine_ != nullptr) {
      if (!fault.dead) {
        demand_bytes_ahead += projected_demand_bytes(decoder);
      }
      const double stall_ms = latency_.contended_fetch_ms(
          demand_bytes_ahead, transfer_link_gbps_ * t.link_rate_factor);
      metrics_.record_demand_stall(stall_ms);
      demand_stall_tail_ms = stall_ms;
    }
    const Index generated = decoder.tokens_generated() + 1;
    if (repair_billed && ckv.repair_decode_interval > 0 &&
        generated % ckv.repair_decode_interval == 0) {
      // Periodic decode-side repair pass (mirrors the engine's trigger in
      // observe_decode). The engine runs it only with two clustering
      // batches since the last pass: the prompt's (one after its own pass)
      // and a decode flush inside this repair interval, so a repair
      // interval finer than the flush cadence bills no phantom passes. A
      // prompt of sinks alone registered no batch, so its first decode
      // flush is the first batch.
      const Index flushes = generated / ckv.decode_interval;
      const bool flushed_since_last_pass =
          flushes > (generated - ckv.repair_decode_interval) / ckv.decode_interval;
      const bool prompt_batch = decoder.request().prompt_len > ckv.sink_tokens;
      if (flushed_since_last_pass && (prompt_batch || flushes >= 2)) {
        t.repair_ms += repair_pass_ms(decoder.request().prompt_len + generated);
      }
    }
  }
  t.tick_ms += demand_stall_tail_ms;
  t.decode_ms = t.tick_ms;
  for (std::size_t i = 0; i < t.prefill_count; ++i) {
    const Session& prefiller = *t.items[i].session;
    const Index chunk = t.items[i].chunk;
    t.tick_ms += prefill_chunk_cost_ms(prefiller, chunk);
    const Index prompt_len = prefiller.request().prompt_len;
    // The post-prefill repair pass runs only when prefill registered at
    // least two clustering batches (inline prefill and short prompts
    // register one; the engine skips the pass then).
    if (repair_billed && prefiller.prefill_tokens_done() + chunk == prompt_len &&
        prefill_flush_plan(ckv, prompt_len, config_.prefill_chunk_tokens) >= 2) {
      t.repair_ms += repair_pass_ms(prompt_len);
    }
  }
  t.prefill_ms = t.tick_ms - t.decode_ms;
  t.tick_ms += t.repair_ms;
  metrics_.record_repair(t.repair_ms);
  t.completed_ms = now_ms_ + t.tick_ms;
}

void BatchScheduler::trace_phases(const TickState& t) {
  auto& tr = obs::tracer();
  if (!tr.enabled()) {
    return;
  }
  // The tick span and its phase sub-spans reproduce the paper's latency
  // breakdown on the virtual clock: decode, then prefill chunks, then
  // repair, laid out sequentially inside the tick.
  tr.begin_at("tick", 0, now_ms_,
              {{"batch", static_cast<Index>(t.items.size())}, {"queued", queue_.size()}});
  // The last phase must end at exactly completed_ms (the tick E's
  // timestamp): summing the phase durations incrementally drifts in the
  // low bits relative to now_ms_ + tick_ms, and an end a few ulps past
  // the tick E sorts after it, unbalancing the span stack.
  const auto decoders = static_cast<Index>(t.items.size() - t.prefill_count);
  const auto prefillers = static_cast<Index>(t.prefill_count);
  double phase_t = now_ms_;
  if (decoders > 0) {
    const bool last = prefillers == 0 && t.repair_ms <= 0.0;
    const double end = last ? t.completed_ms : phase_t + t.decode_ms;
    tr.begin_at("decode-phase", 0, phase_t, {{"decoders", decoders}});
    tr.end_at("decode-phase", 0, end);
    phase_t = end;
  }
  if (prefillers > 0) {
    const double end = t.repair_ms <= 0.0 ? t.completed_ms : phase_t + t.prefill_ms;
    tr.begin_at("prefill-phase", 0, phase_t, {{"prefillers", prefillers}});
    tr.end_at("prefill-phase", 0, end);
    phase_t = end;
  }
  if (t.repair_ms > 0.0) {
    tr.begin_at("repair-phase", 0, phase_t);
    tr.end_at("repair-phase", 0, t.completed_ms);
  }
}

void BatchScheduler::advance_and_commit(TickState& t) {
  // Fixed phases. First one fan-out wave: every prefill chunk, and every
  // decoder too when enforcement cannot act, advances on the worker pool,
  // then the wave's order-sensitive effects (trace edges, metrics, the
  // enforcement checkpoints) commit in item order. Enforcement takes
  // nothing from a session before its first token (enforce_budget checks
  // it), and no decoder advances before those commits, so they walk the
  // same victims to the same stopping point in any chunk order. Under a
  // tiered budget each decoder then advances its step's selection half on
  // the tick thread and commits at once, so enforcement acts exactly
  // between steps; the score pass after the last commit runs the rest.
  //
  // Leaf instrumentation (tiered-store fetch events) records against the
  // ambient context: the tick's completion time, the acting session's
  // track. The context is thread-local, so pool workers scope their own
  // events without racing the scheduler thread.
  auto& tr = obs::tracer();
  tr.set_virtual_now_ms(t.completed_ms);
  // Wall-clock here measures host speedup only; every billed duration
  // stays on the virtual clock (docs/PERFORMANCE.md determinism
  // contract), so this read cannot leak into any deterministic output.
  // ckv-lint: allow(wall-clock) -- advance_wall_ms is a host-side metric
  const auto wall_begin = std::chrono::steady_clock::now();
  // The fan-out lambdas must not touch serial-phase state (clang enforces
  // it); the tick's window crosses the boundary by value.
  const double tick_begin_ms = now_ms_;
  const double completed_ms = t.completed_ms;
  std::vector<AdvanceItem>& items = t.items;
  const std::size_t wave = enforceable() ? t.prefill_count : items.size();
  parallel_for_range(
      0, static_cast<Index>(wave), /*grain=*/1, [&](Index begin, Index end) {
        // Workers trace their occupancy on dedicated tracks so a Perfetto
        // view shows the fan-out's shape; the advance span covers the
        // tick's virtual window. grain 1 means inner engine parallel_for
        // calls self-serialize instead of re-entering the pool.
        auto& wtr = obs::tracer();
        const std::int64_t track = worker_track(wtr);
        for (Index i = begin; i < end; ++i) {
          AdvanceItem& item = items[static_cast<std::size_t>(i)];
          wtr.begin_at("advance", track, tick_begin_ms,
                       {{"session", item.session->request().id}});
          advance_item(item, completed_ms);
          wtr.end_at("advance", track, completed_ms);
        }
      });
  for (std::size_t i = 0; i < wave; ++i) {
    commit_item(items[i], completed_ms);
  }
  for (std::size_t i = wave; i < items.size(); ++i) {
    advance_item(items[i], completed_ms);
    commit_item(items[i], completed_ms);
  }
  // Score pass: every decoder's exact-attention oracle. Selection (the
  // only residency-dependent part of a step) ran above, and scoring reads
  // only each session's own context model and stashed selections, so it
  // fans out at any budget — after every commit, so enforcement, wire
  // bookkeeping and aborts kept the serial order. Each score leaves an
  // instant on the worker track that ran it.
  parallel_for_range(
      static_cast<Index>(t.prefill_count), static_cast<Index>(items.size()),
      /*grain=*/1, [&items, completed_ms](Index begin, Index end) {
        auto& wtr = obs::tracer();
        const std::int64_t track = worker_track(wtr);
        for (Index i = begin; i < end; ++i) {
          Session& session = *items[static_cast<std::size_t>(i)].session;
          session.score_step();
          wtr.instant_at("score", track, completed_ms,
                         {{"session", session.request().id}});
        }
      });
  // ckv-lint: allow(wall-clock) -- closes the host-side metric above
  const double advance_wall_ms = std::chrono::duration<double, std::milli>(
                                     std::chrono::steady_clock::now() - wall_begin)
                                     .count();
  metrics_.record_advance_wall(advance_wall_ms, static_cast<Index>(wave),
                               static_cast<Index>(items.size()));
  tr.set_track(0);
  tr.end_at("tick", 0, completed_ms);
}

void BatchScheduler::sample_counters() {
  auto& tr = obs::tracer();
  tr.set_virtual_now_ms(now_ms_);
  tr.counter("fast-tier-bytes", fast_tier_bytes_locked());
  if (method_.tiered()) {
    tr.counter("reserved-bytes", ledger_.reserved_bytes());
  }
  tr.counter("queue-depth", queue_.size());
  tr.counter("running-sessions", static_cast<Index>(running_.size()));
  if (transfer_engine_ != nullptr) {
    tr.counter("transfer-queue-depth", transfer_engine_->queue_depth());
    tr.counter("link-drained-bytes",
               static_cast<std::int64_t>(transfer_engine_->drained_bytes_total()));
  }
  metrics_.record_occupancy(fast_tier_bytes_locked());
}

bool BatchScheduler::tick() {
  // The tick body IS the serial phase; the only escapes are the pool
  // bodies (unannotated on purpose — see batch_scheduler.hpp): synthesis
  // in admit_arrivals, and the wave (advance_item) and the score pass in
  // advance_and_commit.
  const ExclusiveLock serial(serial_phase_);
  if (running_.empty() && queue_.empty()) {
    return false;
  }
  TickState t;
  open_tick(t);
  admit_arrivals();
  ++ticks_;
  plan_batch(t);
  if (!t.items.empty()) {
    bill(t);
    trace_phases(t);
    advance_and_commit(t);
    // Spend the tick's wire capacity on everything queued (including the
    // demand and speculation the commit phase just enqueued — those
    // copies overlapped the step compute the tick billed).
    sync_wire(t.completed_ms);
    now_ms_ = t.completed_ms;
    const auto batch = static_cast<Index>(t.items.size());
    round_robin_offset_ = (round_robin_offset_ + 1) % batch;
    metrics_.record_tick(t.tick_ms, batch, queue_.size());
  }
  retire_finished();
  sample_counters();
  return !(running_.empty() && queue_.empty());
}

void BatchScheduler::run() {
  while (tick()) {
  }
}

}  // namespace ckv
