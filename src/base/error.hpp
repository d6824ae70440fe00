// Error model shared across all Flux subsystems.
//
// Flux distinguishes *expected* failures (routing misses, missing keys, dead
// peers) from programming errors. Expected failures travel as `flux::errc`
// codes in response messages and as the error arm of `Expected<T>`;
// programming errors throw (and terminate tests loudly).
//
// `errc` is a registered std::error_code enum: flux_category() gives every
// code a name and message, `std::error_code ec = errc::timeout;` works, and
// comparisons against response codes are typed instead of raw-int. Numeric
// values are POSIX errno values and are part of the wire format — stable
// forever.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <variant>

namespace flux {

/// POSIX-flavoured error codes used in CMB response messages (the paper's
/// prototype reuses errno values; so do we, with stable numeric values).
enum class errc : int {
  ok = 0,
  nosys = 38,       ///< ENOSYS: no module matched the request topic
  noent = 2,        ///< ENOENT: key/object/rank not found
  exist = 17,       ///< EEXIST: object already exists
  inval = 22,       ///< EINVAL: malformed request payload
  io = 5,           ///< EIO: durable-storage read/write failure
  proto = 71,       ///< EPROTO: malformed wire message
  host_down = 112,  ///< EHOSTDOWN: peer declared dead by the live module
  timeout = 110,    ///< ETIMEDOUT: rpc timeout expired
  not_dir = 20,     ///< ENOTDIR: path component is not a directory
  is_dir = 21,      ///< EISDIR: terminal path component is a directory
  perm = 1,         ///< EPERM: operation not permitted at this level
  again = 11,       ///< EAGAIN: resource temporarily unavailable
  no_spc = 28,      ///< ENOSPC: resource request cannot fit allocation bounds
  canceled = 125,   ///< ECANCELED: operation canceled (shutdown, job kill)
  overflow = 75,    ///< EOVERFLOW: version/sequence regression detected

  // Job domain (job-ingest / job-manager pipeline). Same rule as above:
  // numeric values are POSIX errno values and part of the wire format.
  job_unknown = 3,          ///< ESRCH: no job with that id (active or in KVS)
  job_canceled = 4,         ///< EINTR: operation lost to a cancellation
  job_rejected = 13,        ///< EACCES: submission refused (validation/admission)
  alloc_unsatisfiable = 34, ///< ERANGE: request can never fit the session pool
};

/// Human-readable name for an error code ("ENOSYS", ...).
std::string_view errc_name(errc e) noexcept;

/// The std::error_category for flux::errc ("flux").
const std::error_category& flux_category() noexcept;

/// ADL hook: lets `std::error_code ec = errc::timeout;` compile.
std::error_code make_error_code(errc e) noexcept;

/// An error: code plus free-form context message.
struct Error {
  errc code = errc::ok;
  std::string message;

  Error() = default;
  Error(errc c, std::string msg) : code(c), message(std::move(msg)) {}
  explicit Error(errc c) : code(c), message(std::string(errc_name(c))) {}

  [[nodiscard]] bool ok() const noexcept { return code == errc::ok; }
  /// This error as a std::error_code in flux_category().
  [[nodiscard]] std::error_code error_code() const noexcept {
    return make_error_code(code);
  }
  [[nodiscard]] std::string to_string() const;
};

/// Exception wrapper for the rare places where an Error must propagate as a
/// C++ exception (coroutine results, SyncHandle).
class FluxException : public std::runtime_error {
 public:
  explicit FluxException(Error e)
      : std::runtime_error(e.to_string()), error_(std::move(e)) {}
  [[nodiscard]] const Error& error() const noexcept { return error_; }
  /// The typed code this exception carries, as a std::error_code.
  [[nodiscard]] std::error_code code() const noexcept {
    return error_.error_code();
  }

 private:
  Error error_;
};

/// Minimal expected<T, Error> (std::expected is C++23; we target C++20).
template <class T>
class Expected {
 public:
  Expected(T value) : state_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Expected(Error err) : state_(std::move(err)) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool has_value() const noexcept {
    return std::holds_alternative<T>(state_);
  }
  explicit operator bool() const noexcept { return has_value(); }

  [[nodiscard]] T& value() & {
    if (!has_value()) throw FluxException(error());
    return std::get<T>(state_);
  }
  [[nodiscard]] const T& value() const& {
    if (!has_value()) throw FluxException(error());
    return std::get<T>(state_);
  }
  [[nodiscard]] T&& value() && {
    if (!has_value()) throw FluxException(error());
    return std::get<T>(std::move(state_));
  }

  [[nodiscard]] const Error& error() const {
    return std::get<Error>(state_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  /// value_or for cheap defaults.
  [[nodiscard]] T value_or(T fallback) const& {
    return has_value() ? std::get<T>(state_) : std::move(fallback);
  }

 private:
  std::variant<T, Error> state_;
};

/// Expected<void> specialization stand-in.
class Status {
 public:
  Status() = default;
  Status(Error err) : error_(std::move(err)) {}  // NOLINT(google-explicit-constructor)
  static Status ok() { return {}; }

  [[nodiscard]] bool has_value() const noexcept { return error_.ok(); }
  explicit operator bool() const noexcept { return has_value(); }
  [[nodiscard]] const Error& error() const noexcept { return error_; }
  void value() const {
    if (!has_value()) throw FluxException(error_);
  }

 private:
  Error error_;
};

}  // namespace flux

template <>
struct std::is_error_code_enum<flux::errc> : std::true_type {};
