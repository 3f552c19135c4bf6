// Error model for the distributed layer.
//
// Following E.1/E.27 of the C++ Core Guidelines we split errors in two:
// programming errors (violated preconditions, broken invariants) throw,
// while *distributed* outcomes -- a server rejecting a capability, an
// object not existing, an RPC timing out -- are ordinary values carried in
// reply headers.  Result<T> is the vocabulary type for the latter.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace amoeba {

/// Status codes carried in every RPC reply header.  Servers map their
/// domain failures onto these; `ok` is zero so a zeroed header reads as
/// success.
enum class ErrorCode : std::uint16_t {
  ok = 0,
  bad_capability,     // check field did not validate
  permission_denied,  // capability valid but lacks the required right
  no_such_object,     // object number unknown to this server
  no_such_operation,  // opcode not understood by this server
  no_such_port,       // locate failed: nobody listens on this put-port
  timeout,            // no reply within the transaction deadline
  exists,             // name or object already present
  not_found,          // directory entry or lookup key absent
  no_space,           // disk/segment/account capacity exhausted
  insufficient_funds, // bank: balance too low
  bad_currency,       // bank: currencies do not match / not convertible
  conflict,           // multiversion: commit lost an optimistic race
  immutable,          // multiversion: writing a committed version
  not_empty,          // directory delete with entries present
  invalid_argument,   // malformed request parameters
  unsealing_failed,   // softprot: capability did not decrypt sensibly
  internal,           // server-side invariant failure surfaced to client
  restarted,          // addressed a server instance that has restarted;
                      // not executed (rpc::Transport re-issues it)
};

[[nodiscard]] const char* error_name(ErrorCode e);

/// error_name as a std::string, for streaming into test failure messages
/// and composing diagnostics ("bank.transfer: invalid_argument").
[[nodiscard]] std::string to_string(ErrorCode e);

/// Thrown only for local programming errors (precondition violations),
/// never for remote/distributed failures.
class UsageError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Minimal expected-like result type (std::expected is C++23; this repo is
/// C++20).  Holds either a value or an ErrorCode.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : state_(std::move(value)) {}          // NOLINT(google-explicit-constructor)
  Result(ErrorCode error) : state_(error) {              // NOLINT(google-explicit-constructor)
    if (error == ErrorCode::ok) {
      throw UsageError("Result<T> error constructor requires a non-ok code");
    }
  }

  [[nodiscard]] bool ok() const { return std::holds_alternative<T>(state_); }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] ErrorCode error() const {
    return ok() ? ErrorCode::ok : std::get<ErrorCode>(state_);
  }

  [[nodiscard]] T& value() & {
    require_ok();
    return std::get<T>(state_);
  }
  [[nodiscard]] const T& value() const& {
    require_ok();
    return std::get<T>(state_);
  }
  // Returns by value (moved out) rather than T&&: an rvalue Result dies at
  // the end of its full expression, and a returned T&& would dangle in
  // range-for initializers and bound references (C++20 has no lifetime
  // extension through function calls).
  [[nodiscard]] T value() && {
    require_ok();
    return std::get<T>(std::move(state_));
  }

  [[nodiscard]] T value_or(T fallback) const& {
    return ok() ? std::get<T>(state_) : std::move(fallback);
  }

  [[nodiscard]] T* operator->() { return &value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }
  [[nodiscard]] T& operator*() & { return value(); }
  [[nodiscard]] const T& operator*() const& { return value(); }

 private:
  void require_ok() const {
    if (!ok()) {
      throw UsageError(std::string("Result accessed while holding error: ") +
                       error_name(std::get<ErrorCode>(state_)));
    }
  }

  std::variant<T, ErrorCode> state_;
};

/// Result<void>: success or an error code.
template <>
class [[nodiscard]] Result<void> {
 public:
  Result() = default;
  Result(ErrorCode error) : error_(error) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool ok() const { return error_ == ErrorCode::ok; }
  explicit operator bool() const { return ok(); }
  [[nodiscard]] ErrorCode error() const { return error_; }

 private:
  ErrorCode error_ = ErrorCode::ok;
};

}  // namespace amoeba
