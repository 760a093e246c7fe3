#include "kvcache/tiered_store.hpp"

#include "tensor/matrix.hpp"

namespace ckv {

void TransferStats::merge(const TransferStats& other) noexcept {
  bytes_to_fast += other.bytes_to_fast;
  bytes_to_slow += other.bytes_to_slow;
  fetch_events += other.fetch_events;
  tokens_fetched += other.tokens_fetched;
  demand_landed += other.demand_landed;
  tokens_offloaded += other.tokens_offloaded;
  tokens_prefetch_issued += other.tokens_prefetch_issued;
  tokens_prefetch_canceled += other.tokens_prefetch_canceled;
  for (int r = 0; r < obs::kFetchCancelReasonCount; ++r) {
    tokens_prefetch_canceled_by[r] += other.tokens_prefetch_canceled_by[r];
  }
}

namespace {

/// Reason-specific cancel event names so a Perfetto query can slice waste
/// by cause without parsing args.
const char* cancel_event_name(obs::FetchCancelReason reason) noexcept {
  switch (reason) {
    case obs::FetchCancelReason::kMisprediction:
      return "fetch-cancel-mispredict";
    case obs::FetchCancelReason::kEnforcement:
      return "fetch-cancel-enforce";
    case obs::FetchCancelReason::kSessionRelease:
      return "fetch-cancel-release";
  }
  return "fetch-cancel";
}

}  // namespace

TieredKVStore::TieredKVStore(Index head_dim) : store_(head_dim) {}

TieredKVStore::Placement TieredKVStore::placement_of(Index position) const {
  return position >= 0 && position < static_cast<Index>(placement_.size())
             ? placement_[static_cast<std::size_t>(position)]
             : Placement::kSlow;
}

bool TieredKVStore::mark_fast(Index position) {
  Placement& place = placement_[static_cast<std::size_t>(position)];
  expects(place != Placement::kInFlight,
          "TieredKVStore: position is in flight; complete or cancel the "
          "fetch before marking it resident");
  if (place == Placement::kFast) {
    return false;
  }
  place = Placement::kFast;
  ++fast_count_;
  if (ledger_ != nullptr) {
    ledger_->add(token_bytes());
  }
  return true;
}

bool TieredKVStore::unmark_fast(Index position) {
  if (placement_of(position) != Placement::kFast) {
    return false;
  }
  placement_[static_cast<std::size_t>(position)] = Placement::kSlow;
  --fast_count_;
  if (ledger_ != nullptr) {
    ledger_->add(-token_bytes());
  }
  return true;
}

void TieredKVStore::append(std::span<const float> key, std::span<const float> value) {
  const ExclusiveLock own(owner_);
  store_.append(key, value);
  placement_.push_back(Placement::kSlow);
  mark_fast(store_.size() - 1);
}

void TieredKVStore::append_block(const Matrix& keys, const Matrix& values) {
  const ExclusiveLock own(owner_);
  const Index begin = store_.size();
  store_.append_block(keys, values);
  placement_.resize(static_cast<std::size_t>(store_.size()), Placement::kSlow);
  for (Index p = begin; p < store_.size(); ++p) {
    mark_fast(p);
  }
}

void TieredKVStore::offload_to_slow(Index begin, Index end) {
  expects(begin >= 0 && begin <= end && end <= store_.size(),
          "TieredKVStore::offload_to_slow: bad range");
  const ExclusiveLock own(owner_);
  for (Index p = begin; p < end; ++p) {
    if (unmark_fast(p)) {
      stats_.bytes_to_slow += token_bytes();
      ++stats_.tokens_offloaded;
    }
  }
}

Index TieredKVStore::offload_positions(std::span<const Index> positions) {
  const ExclusiveLock own(owner_);
  Index moved = 0;
  for (const Index p : positions) {
    expects(p >= 0 && p < store_.size(),
            "TieredKVStore::offload_positions: position out of range");
    if (unmark_fast(p)) {
      stats_.bytes_to_slow += token_bytes();
      ++stats_.tokens_offloaded;
      ++moved;
    }
  }
  return moved;
}

Index TieredKVStore::ensure_resident(std::span<const Index> positions) {
  const ExclusiveLock own(owner_);
  Index moved = 0;
  for (const Index p : positions) {
    expects(p >= 0 && p < store_.size(),
            "TieredKVStore::ensure_resident: position out of range");
    if (placement_of(p) == Placement::kInFlight) {
      // The demand path caught up with an issued copy: land it. Its PCIe
      // bytes were counted at issue (no re-count), but the copy is now on
      // the demand critical path — it counts as a demand fetch so callers
      // bill its remaining completion time instead of treating it as free.
      if (land_fetch(p)) {
        ++stats_.tokens_fetched;
        ++stats_.demand_landed;
        ++moved;
        obs::tracer().instant(
            "fetch-complete", {{"tokens", 1}, {"bytes", token_bytes()}});
      }
      continue;
    }
    if (mark_fast(p)) {
      stats_.bytes_to_fast += token_bytes();
      ++stats_.tokens_fetched;
      ++moved;
    }
  }
  if (moved > 0) {
    ++stats_.fetch_events;
    obs::tracer().instant("demand-fetch",
                          {{"tokens", moved}, {"bytes", moved * token_bytes()}});
  }
  return moved;
}

Index TieredKVStore::begin_fetch(std::span<const Index> positions) {
  const ExclusiveLock own(owner_);
  Index issued = 0;
  for (const Index p : positions) {
    expects(p >= 0 && p < store_.size(),
            "TieredKVStore::begin_fetch: position out of range");
    Placement& place = placement_[static_cast<std::size_t>(p)];
    if (place != Placement::kSlow) {
      continue;
    }
    place = Placement::kInFlight;
    ++in_flight_count_;
    if (ledger_ != nullptr) {
      ledger_->add_reserved(token_bytes());
    }
    stats_.bytes_to_fast += token_bytes();
    ++stats_.tokens_prefetch_issued;
    ++issued;
  }
  if (issued > 0) {
    obs::tracer().instant(
        "fetch-issue", {{"tokens", issued}, {"bytes", issued * token_bytes()}});
  }
  return issued;
}

bool TieredKVStore::unmark_in_flight(Index position) {
  if (placement_of(position) != Placement::kInFlight) {
    return false;
  }
  placement_[static_cast<std::size_t>(position)] = Placement::kSlow;
  --in_flight_count_;
  if (ledger_ != nullptr) {
    ledger_->add_reserved(-token_bytes());
  }
  return true;
}

bool TieredKVStore::land_fetch(Index position) {
  if (!unmark_in_flight(position)) {
    return false;
  }
  mark_fast(position);
  return true;
}

Index TieredKVStore::complete_fetch(std::span<const Index> positions) {
  const ExclusiveLock own(owner_);
  Index landed = 0;
  for (const Index p : positions) {
    if (land_fetch(p)) {
      ++landed;
    }
  }
  if (landed > 0) {
    obs::tracer().instant(
        "fetch-complete",
        {{"tokens", landed}, {"bytes", landed * token_bytes()}});
  }
  return landed;
}

Index TieredKVStore::cancel_fetch_impl(std::span<const Index> positions,
                                       obs::FetchCancelReason reason) {
  Index canceled = 0;
  for (const Index p : positions) {
    if (!unmark_in_flight(p)) {
      continue;
    }
    ++stats_.tokens_prefetch_canceled;
    ++stats_.tokens_prefetch_canceled_by[static_cast<int>(reason)];
    ++canceled;
  }
  if (canceled > 0) {
    obs::tracer().instant(
        cancel_event_name(reason),
        {{"tokens", canceled}, {"bytes", canceled * token_bytes()}});
  }
  return canceled;
}

Index TieredKVStore::cancel_fetch(std::span<const Index> positions,
                                  obs::FetchCancelReason reason) {
  const ExclusiveLock own(owner_);
  return cancel_fetch_impl(positions, reason);
}

Index TieredKVStore::cancel_all_fetches(obs::FetchCancelReason reason) {
  const ExclusiveLock own(owner_);
  // Runs on every ClusterKV decode step and enforcement pass, often with
  // nothing in flight: skip the scan then, and stop it at the last
  // in-flight position otherwise.
  if (in_flight_count_ == 0) {
    return 0;
  }
  const auto in_flight = static_cast<std::size_t>(in_flight_count_);
  std::vector<Index> positions;
  positions.reserve(in_flight);
  for (std::size_t p = 0; p < placement_.size() && positions.size() < in_flight; ++p) {
    if (placement_[p] == Placement::kInFlight) {
      positions.push_back(static_cast<Index>(p));
    }
  }
  return cancel_fetch_impl(positions, reason);
}

bool TieredKVStore::is_in_flight(Index position) const {
  const ExclusiveLock own(owner_);
  return placement_of(position) == Placement::kInFlight;
}

Index TieredKVStore::in_flight_count() const noexcept {
  const ExclusiveLock own(owner_);
  return in_flight_count_;
}

std::int64_t TieredKVStore::in_flight_bytes() const noexcept {
  const ExclusiveLock own(owner_);
  return static_cast<std::int64_t>(in_flight_count_) * token_bytes();
}

void TieredKVStore::drop_from_fast(std::span<const Index> positions) {
  const ExclusiveLock own(owner_);
  for (const Index p : positions) {
    unmark_fast(p);
  }
}

bool TieredKVStore::is_fast_resident(Index position) const {
  const ExclusiveLock own(owner_);
  return placement_of(position) == Placement::kFast;
}

Index TieredKVStore::fast_resident_count() const noexcept {
  const ExclusiveLock own(owner_);
  return fast_count_;
}

std::vector<Index> TieredKVStore::fast_positions() const {
  const ExclusiveLock own(owner_);
  std::vector<Index> positions;
  positions.reserve(static_cast<std::size_t>(fast_count_));
  for (Index p = 0; p < static_cast<Index>(placement_.size()); ++p) {
    if (placement_[static_cast<std::size_t>(p)] == Placement::kFast) {
      positions.push_back(p);
    }
  }
  return positions;
}

Index TieredKVStore::token_bytes() const noexcept {
  return 2 * store_.head_dim() * kKVElementBytes;
}

std::int64_t TieredKVStore::fast_resident_bytes() const noexcept {
  const ExclusiveLock own(owner_);
  return static_cast<std::int64_t>(fast_count_) * token_bytes();
}

void TieredKVStore::attach_ledger(FastTierLedger* ledger) noexcept {
  const ExclusiveLock own(owner_);
  const std::int64_t resident = static_cast<std::int64_t>(fast_count_) * token_bytes();
  const std::int64_t reserved =
      static_cast<std::int64_t>(in_flight_count_) * token_bytes();
  if (ledger_ != nullptr) {
    ledger_->add(-resident);
    ledger_->add_reserved(-reserved);
  }
  ledger_ = ledger;
  if (ledger_ != nullptr) {
    ledger_->add(resident);
    ledger_->add_reserved(reserved);
  }
}

}  // namespace ckv
