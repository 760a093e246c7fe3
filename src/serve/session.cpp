#include "serve/session.hpp"

#include <utility>

namespace ckv {

namespace {

/// Calls `fn` on every per-head selector of `bank`, layer-major.
template <typename Bank, typename Fn>
void for_each_selector(Bank& bank, Fn&& fn) {
  for (Index l = 0; l < bank.num_layers(); ++l) {
    for (Index h = 0; h < bank.num_heads(); ++h) {
      fn(bank.at(l, h));
    }
  }
}

}  // namespace

const char* to_string(SessionState state) noexcept {
  switch (state) {
    case SessionState::kQueued:
      return "queued";
    case SessionState::kPrefilling:
      return "prefilling";
    case SessionState::kDecoding:
      return "decoding";
    case SessionState::kFinished:
      return "finished";
  }
  return "unknown";
}

std::unique_ptr<ProceduralContextModel> Session::synthesize(const ServeRequest& request,
                                                           const SessionConfig& config) {
  expects(request.prompt_len > 0, "Session: prompt_len must be positive");
  expects(request.decode_len > 0, "Session: decode_len must be positive");
  return std::make_unique<ProceduralContextModel>(
      config.shape, config.params, request.seed, request.prompt_len,
      request.prompt_len + request.decode_len);
}

Session::Session(const ServeRequest& request,
                 std::unique_ptr<ProceduralContextModel> model,
                 const SelectorFactory& factory, const SessionConfig& config)
    : request_(request), config_(config), model_(std::move(model)) {
  expects(request.prompt_len > 0, "Session: prompt_len must be positive");
  expects(request.decode_len > 0, "Session: decode_len must be positive");
  expects(model_ != nullptr && model_->prompt_len() == request.prompt_len &&
              model_->context_len() == request.prompt_len,
          "Session: the context model must be the request's freshly "
          "synthesized prompt");
  engine_ = std::make_unique<DecodeEngine>(*model_, factory, config.engine);
}

Session::Session(const ServeRequest& request, const SelectorFactory& factory,
                 const SessionConfig& config)
    : Session(request, synthesize(request, config), factory, config) {}

void Session::admit(double now_ms) {
  expects(state_ == SessionState::kQueued, "Session::admit: already admitted");
  expects(now_ms >= request_.arrival_ms, "Session::admit: admitted before arrival");
  state_ = SessionState::kPrefilling;
  admit_ms_ = now_ms;
}

Index Session::prefill_next(Index chunk_tokens, double completed_ms) {
  expects(state_ == SessionState::kPrefilling,
          "Session::prefill_next: session is not prefilling");
  expects(chunk_tokens >= 0, "Session::prefill_next: negative chunk");
  const Index max_tokens =
      chunk_tokens == 0 ? request_.prompt_len : chunk_tokens;
  const Index consumed = engine_->prefill_chunk(max_tokens);
  last_step_ms_ = completed_ms;
  if (engine_->prefilled()) {
    prefill_done_ms_ = completed_ms;
    state_ = SessionState::kDecoding;
  }
  return consumed;
}

void Session::run_prefill(double now_ms) {
  admit(now_ms);
  prefill_next(0, now_ms);
}

StepResult Session::decode_next(double completed_ms) {
  select_next(completed_ms);
  return score_step();
}

StepResult Session::select_next(double completed_ms) {
  expects(state_ == SessionState::kDecoding,
          "Session::select_next: session is not decoding");
  StepResult result = engine_->select_next();
  if (degraded_armed_) {
    // Degraded mode is a one-step affair: only this selection reads it.
    for_each_selector(engine_->selectors(),
                      [](KVSelector& s) { s.set_degraded_step(false); });
    degraded_armed_ = false;
  }
  step_gap_ms_ = first_token_ms_ < 0.0 ? -1.0 : completed_ms - last_step_ms_;
  last_step_ms_ = completed_ms;
  if (first_token_ms_ < 0.0) {
    first_token_ms_ = completed_ms;
  }
  if (engine_->steps_completed() >= request_.decode_len) {
    state_ = SessionState::kFinished;
    finish_ms_ = completed_ms;
  }
  return result;
}

void Session::abort(double now_ms) {
  expects(state_ == SessionState::kDecoding,
          "Session::abort: only a decoding session can abort mid-decode");
  expects(tokens_generated() >= 1,
          "Session::abort: abort lands after a committed decode step");
  state_ = SessionState::kFinished;
  finish_ms_ = now_ms;
  aborted_ = true;
}

SessionRecord Session::record() const {
  SessionRecord r;
  r.id = request_.id;
  r.prompt_len = request_.prompt_len;
  r.decode_len = aborted_ ? tokens_generated() : request_.decode_len;
  r.arrival_ms = request_.arrival_ms;
  r.admit_ms = admit_ms_;
  r.prefill_done_ms = prefill_done_ms_;
  r.first_token_ms = first_token_ms_;
  r.finish_ms = finish_ms_;
  r.mean_recall = engine_->mean_recall();
  r.recall_steps = engine_->recall_steps();
  r.mean_coverage = engine_->mean_coverage();
  const double hits = static_cast<double>(engine_->total_cache_hits());
  const double lookups = hits + static_cast<double>(engine_->total_fetched());
  r.cache_hit_rate = lookups <= 0.0 ? 0.0 : hits / lookups;
  r.preemptions = preemptions_;
  r.prefetch_hit_tokens = engine_->total_prefetch_hits();
  r.prefetch_issued_tokens = engine_->total_prefetch_issued();
  r.demand_fetched_tokens = engine_->total_fetched() - engine_->total_prefetch_hits();
  using Reason = obs::FetchCancelReason;
  for_each_selector(engine_->selectors(), [&r](const KVSelector& s) {
    r.prefetch_canceled_mispredict_tokens +=
        s.prefetch_canceled_tokens(Reason::kMisprediction);
    r.prefetch_canceled_enforce_tokens +=
        s.prefetch_canceled_tokens(Reason::kEnforcement);
    r.prefetch_canceled_release_tokens +=
        s.prefetch_canceled_tokens(Reason::kSessionRelease);
  });
  r.aborted = aborted_;
  r.degraded_steps = degraded_steps_;
  r.fault_retries = fault_retries_;
  r.fault_retry_ms = fault_retry_ms_;
  r.dead_fetches = dead_fetches_;
  return r;
}

void Session::degrade_next_step() {
  for_each_selector(engine_->selectors(),
                    [](KVSelector& s) { s.set_degraded_step(true); });
  degraded_armed_ = true;
  ++degraded_steps_;
}

void Session::attach_fast_tier_ledger(FastTierLedger* ledger) {
  for_each_selector(engine_->selectors(),
                    [ledger](KVSelector& s) { s.attach_fast_tier_ledger(ledger); });
}

std::int64_t Session::fast_resident_bytes() const {
  std::int64_t tokens = 0;
  for_each_selector(engine_->selectors(), [&tokens](const KVSelector& s) {
    tokens += s.fast_resident_tokens();
  });
  return tokens * session_token_bytes(config_);
}

Index Session::release_fast_tier() {
  Index moved = 0;
  for_each_selector(engine_->selectors(),
                    [&moved](KVSelector& s) { moved += s.release_fast_tier(); });
  if (moved > 0) {
    ++preemptions_;
  }
  return moved;
}

Index Session::cancel_prefetches(obs::FetchCancelReason reason) {
  Index canceled = 0;
  for_each_selector(engine_->selectors(), [&canceled, reason](KVSelector& s) {
    canceled += s.cancel_prefetches(reason);
  });
  return canceled;
}

double Session::demand_miss_rate() const {
  const double total = static_cast<double>(engine_->total_cache_hits()) +
                       static_cast<double>(engine_->total_fetched());
  const std::int64_t demand = engine_->total_fetched() - engine_->total_prefetch_hits();
  return total <= 0.0 ? 1.0 : static_cast<double>(demand) / total;
}

}  // namespace ckv
