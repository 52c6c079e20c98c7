#ifndef SECO_COMMON_STATUS_H_
#define SECO_COMMON_STATUS_H_

#include <memory>
#include <string>
#include <utility>

namespace seco {

/// Error categories used across the SeCo library. Values are stable and may
/// be used for programmatic dispatch on failure kind.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,   ///< Caller supplied malformed input.
  kNotFound = 2,          ///< A named entity (service, attribute, ...) is absent.
  kAlreadyExists = 3,     ///< Registration collides with an existing entity.
  kParseError = 4,        ///< The query text is not well-formed.
  kInfeasible = 5,        ///< No choice of access patterns makes the query feasible.
  kTypeError = 6,         ///< Type-incompatible comparison or assignment.
  kInternal = 7,          ///< Invariant violation inside the library.
  kUnsupported = 8,       ///< A combination of options that is not implemented.
  kResourceExhausted = 9, ///< A configured budget (calls, plans, ...) ran out.
  kUnavailable = 10,      ///< A service is (transiently or permanently) down.
  kDeadlineExceeded = 11, ///< A call or query overran its deadline.
  kRejected = 12,         ///< Admission control shed the request (retry later).
  kCancelled = 13,        ///< The caller abandoned the query/call; work was stopped.
};

/// Returns the canonical lowercase name of a status code ("ok", "not found", ...).
const char* StatusCodeToString(StatusCode code);

/// A cheap, movable success/error value in the style of Arrow/RocksDB.
///
/// The OK state carries no allocation; error states carry a code and message.
/// All SeCo library entry points that can fail return `Status` or
/// `Result<T>` instead of throwing.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(const Status& other)
      : rep_(other.rep_ ? std::make_unique<Rep>(*other.rep_) : nullptr) {}
  Status& operator=(const Status& other) {
    rep_ = other.rep_ ? std::make_unique<Rep>(*other.rep_) : nullptr;
    return *this;
  }
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  /// Factory for the OK status.
  static Status OK() { return Status(); }
  /// A status with `code` and `msg`; OK (message dropped) for `kOk`.
  static Status FromCode(StatusCode code, std::string msg) {
    return code == StatusCode::kOk ? Status() : Status(code, std::move(msg));
  }

  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Infeasible(std::string msg) {
    return Status(StatusCode::kInfeasible, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Rejected(std::string msg) {
    return Status(StatusCode::kRejected, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }

  bool ok() const { return rep_ == nullptr; }
  StatusCode code() const { return rep_ ? rep_->code : StatusCode::kOk; }
  /// The human-readable error message; empty for OK.
  const std::string& message() const;

  /// "OK" or "<code>: <message>".
  std::string ToString() const;

 private:
  struct Rep {
    StatusCode code;
    std::string message;
  };

  Status(StatusCode code, std::string msg)
      : rep_(std::make_unique<Rep>(Rep{code, std::move(msg)})) {}

  std::unique_ptr<Rep> rep_;  // null == OK
};

/// Propagates a non-OK Status from the enclosing function.
#define SECO_RETURN_IF_ERROR(expr)            \
  do {                                        \
    ::seco::Status _seco_status = (expr);     \
    if (!_seco_status.ok()) return _seco_status; \
  } while (false)

}  // namespace seco

#endif  // SECO_COMMON_STATUS_H_
