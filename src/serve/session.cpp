#include "serve/session.hpp"

#include <utility>

namespace ckv {

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

void Session::set_degraded_step(bool degraded) {
  auto& bank = engine_->selectors();
  for (Index l = 0; l < bank.num_layers(); ++l) {
    for (Index h = 0; h < bank.num_heads(); ++h) {
      bank.at(l, h).set_degraded_step(degraded);
    }
  }
  if (degraded) {
    ++degraded_steps_;
  }
}

void Session::attach_fast_tier_ledger(FastTierLedger* ledger) {
  auto& bank = engine_->selectors();
  for (Index l = 0; l < bank.num_layers(); ++l) {
    for (Index h = 0; h < bank.num_heads(); ++h) {
      bank.at(l, h).attach_fast_tier_ledger(ledger);
    }
  }
}

std::int64_t Session::fast_resident_bytes() const {
  const Index per_token = session_token_bytes(config_);
  std::int64_t tokens = 0;
  const auto& bank = engine_->selectors();
  for (Index l = 0; l < bank.num_layers(); ++l) {
    for (Index h = 0; h < bank.num_heads(); ++h) {
      tokens += bank.at(l, h).fast_resident_tokens();
    }
  }
  return tokens * per_token;
}

Index Session::release_fast_tier() {
  Index moved = 0;
  auto& bank = engine_->selectors();
  for (Index l = 0; l < bank.num_layers(); ++l) {
    for (Index h = 0; h < bank.num_heads(); ++h) {
      moved += bank.at(l, h).release_fast_tier();
    }
  }
  if (moved > 0) {
    ++preemptions_;
  }
  return moved;
}

Index Session::cancel_prefetches(obs::FetchCancelReason reason) {
  Index canceled = 0;
  auto& bank = engine_->selectors();
  for (Index l = 0; l < bank.num_layers(); ++l) {
    for (Index h = 0; h < bank.num_heads(); ++h) {
      canceled += bank.at(l, h).cancel_prefetches(reason);
    }
  }
  return canceled;
}

std::int64_t Session::prefetch_canceled_tokens(obs::FetchCancelReason reason) const {
  std::int64_t canceled = 0;
  const auto& bank = engine_->selectors();
  for (Index l = 0; l < bank.num_layers(); ++l) {
    for (Index h = 0; h < bank.num_heads(); ++h) {
      canceled += bank.at(l, h).prefetch_canceled_tokens(reason);
    }
  }
  return canceled;
}

double Session::mean_recall() const { return engine_->mean_recall(); }

Index Session::recall_steps() const { return engine_->recall_steps(); }

double Session::mean_coverage() const { return engine_->mean_coverage(); }

double Session::cache_hit_rate() const {
  const double total = static_cast<double>(engine_->total_cache_hits()) +
                       static_cast<double>(engine_->total_fetched());
  return total <= 0.0 ? 0.0
                      : static_cast<double>(engine_->total_cache_hits()) / total;
}

std::int64_t Session::prefetch_hit_tokens() const {
  return engine_->total_prefetch_hits();
}

std::int64_t Session::prefetch_issued_tokens() const {
  return engine_->total_prefetch_issued();
}

std::int64_t Session::demand_fetched_tokens() const {
  return engine_->total_fetched() - engine_->total_prefetch_hits();
}

double Session::demand_miss_rate() const {
  const double total = static_cast<double>(engine_->total_cache_hits()) +
                       static_cast<double>(engine_->total_fetched());
  return total <= 0.0 ? 1.0 : static_cast<double>(demand_fetched_tokens()) / total;
}

}  // namespace ckv
