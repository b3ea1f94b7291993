// Lightweight Status error type (RocksDB idiom): fallible operations return a
// Status (or Result<T>, see result.h) instead of throwing. Programmer errors
// (contract violations) use LDPJS_CHECK and abort.
#ifndef LDPJS_COMMON_STATUS_H_
#define LDPJS_COMMON_STATUS_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>

namespace ldpjs {

/// Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kFailedPrecondition,
  kNotFound,
  kCorruption,
  kUnimplemented,
  kInternal,
  kUnavailable,       ///< transient/retriable: peer unreachable or gone
  kDeadlineExceeded,  ///< a configured timeout elapsed (idle peer, hung recv)
};

/// Returns a short human-readable name for a StatusCode.
constexpr std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "InvalidArgument";
    case StatusCode::kOutOfRange: return "OutOfRange";
    case StatusCode::kFailedPrecondition: return "FailedPrecondition";
    case StatusCode::kNotFound: return "NotFound";
    case StatusCode::kCorruption: return "Corruption";
    case StatusCode::kUnimplemented: return "Unimplemented";
    case StatusCode::kInternal: return "Internal";
    case StatusCode::kUnavailable: return "Unavailable";
    case StatusCode::kDeadlineExceeded: return "DeadlineExceeded";
  }
  return "Unknown";
}

/// Result of a fallible operation: a code plus an optional message.
/// A default-constructed Status is OK; OK statuses carry no message.
///
/// [[nodiscard]] on the type: any call returning a Status by value errors
/// (under -Werror) when the result is dropped on the floor. The explicit
/// opt-out for a genuinely-fire-and-forget call is `(void)TheCall();` —
/// which is greppable, unlike silence.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const {
    if (ok()) return "OK";
    std::string s(StatusCodeName(code_));
    if (!message_.empty()) {
      s += ": ";
      s += message_;
    }
    return s;
  }

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

namespace internal {
[[noreturn]] inline void CheckFailed(const char* expr, const char* file,
                                     int line) {
  std::fprintf(stderr, "LDPJS_CHECK failed: %s at %s:%d\n", expr, file, line);
  std::abort();
}
}  // namespace internal

}  // namespace ldpjs

/// Contract check for programmer errors; aborts on violation. Enabled in all
/// build types (cheap relative to the workloads in this library).
#define LDPJS_CHECK(expr)                                        \
  do {                                                           \
    if (!(expr)) {                                               \
      ::ldpjs::internal::CheckFailed(#expr, __FILE__, __LINE__); \
    }                                                            \
  } while (0)

/// Propagates a non-OK Status to the caller.
#define LDPJS_RETURN_IF_ERROR(expr)          \
  do {                                       \
    ::ldpjs::Status _ldpjs_status = (expr);  \
    if (!_ldpjs_status.ok()) return _ldpjs_status; \
  } while (0)

#endif  // LDPJS_COMMON_STATUS_H_
