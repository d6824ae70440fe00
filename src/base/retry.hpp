// RPC retry/timeout/backoff policy — the single policy surface: the
// session-wide default (SessionConfig::rpc), which the fluent RequestBuilder
// (async or sent through SyncHandle's blocking terminals) overrides per
// request, and which KvsModule's kvs.load attempt loop reads.
//
// Semantics: each attempt gets `timeout`; a timed-out (or host-down) attempt
// is retried up to `retries` more times, sleeping `backoff * 2^n` before the
// n-th retry (exponential). `retries` without a timeout is inert — an RPC
// with no deadline never fails locally, so there is nothing to retry; the
// builder applies the session default timeout in that case.
#pragma once

#include <chrono>

namespace flux {

struct RetryPolicy {
  /// Per-attempt deadline; zero = no deadline (and no retries).
  std::chrono::nanoseconds timeout{0};
  /// Additional attempts after the first.
  int retries = 0;
  /// Delay before the first retry; doubles per retry.
  std::chrono::nanoseconds backoff{0};

  [[nodiscard]] bool has_timeout() const noexcept { return timeout.count() > 0; }
  [[nodiscard]] bool has_retries() const noexcept {
    return retries > 0 && has_timeout();
  }
};

}  // namespace flux
