// Status / Result error handling, in the style of Arrow and RocksDB.
// The storage manager does not throw in the hot path; fallible operations
// return Status (or Result<T> when they produce a value).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <variant>

namespace atrapos {

/// Error codes used across the library. Keep coarse: callers branch on
/// category, humans read the message.
enum class StatusCode : uint8_t {
  kOk = 0,
  kNotFound,
  kAlreadyExists,
  kInvalidArgument,
  kOutOfRange,
  kResourceExhausted,
  kInternal,
  kNotSupported,
  kUnavailable,     ///< intake sealed / island quarantined; retry elsewhere
  kDeadlineExceeded,  ///< blocking call ran past its caller-supplied deadline
};

/// Lightweight status object; cheap to copy in the OK case (no allocation).
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string m = "not found") {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status AlreadyExists(std::string m = "already exists") {
    return Status(StatusCode::kAlreadyExists, std::move(m));
  }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status OutOfRange(std::string m) {
    return Status(StatusCode::kOutOfRange, std::move(m));
  }
  static Status ResourceExhausted(std::string m) {
    return Status(StatusCode::kResourceExhausted, std::move(m));
  }
  static Status Internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }
  static Status NotSupported(std::string m) {
    return Status(StatusCode::kNotSupported, std::move(m));
  }
  static Status Unavailable(std::string m) {
    return Status(StatusCode::kUnavailable, std::move(m));
  }
  static Status DeadlineExceeded(std::string m = "deadline exceeded") {
    return Status(StatusCode::kDeadlineExceeded, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(CodeName(code_)) + ": " + msg_;
  }

  static const char* CodeName(StatusCode c) {
    switch (c) {
      case StatusCode::kOk: return "OK";
      case StatusCode::kNotFound: return "NotFound";
      case StatusCode::kAlreadyExists: return "AlreadyExists";
      case StatusCode::kInvalidArgument: return "InvalidArgument";
      case StatusCode::kOutOfRange: return "OutOfRange";
      case StatusCode::kResourceExhausted: return "ResourceExhausted";
      case StatusCode::kInternal: return "Internal";
      case StatusCode::kNotSupported: return "NotSupported";
      case StatusCode::kUnavailable: return "Unavailable";
      case StatusCode::kDeadlineExceeded: return "DeadlineExceeded";
    }
    return "Unknown";
  }

 private:
  StatusCode code_;
  std::string msg_;
};

/// Result<T>: either a value or an error Status. Minimal expected<> stand-in.
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}             // NOLINT(implicit)
  Result(Status status) : v_(std::move(status)) {}      // NOLINT(implicit)

  bool ok() const { return std::holds_alternative<T>(v_); }
  const Status& status() const { return std::get<Status>(v_); }
  T& value() { return std::get<T>(v_); }
  const T& value() const { return std::get<T>(v_); }
  T take() { return std::move(std::get<T>(v_)); }

 private:
  std::variant<T, Status> v_;
};

}  // namespace atrapos

/// Propagate a non-OK Status from the current function.
#define ATRAPOS_RETURN_NOT_OK(expr)            \
  do {                                         \
    ::atrapos::Status _st = (expr);            \
    if (!_st.ok()) return _st;                 \
  } while (0)
