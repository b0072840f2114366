#ifndef XYDIFF_UTIL_STATUS_H_
#define XYDIFF_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace xydiff {

/// Error categories used across the library. Modeled after the
/// RocksDB/Arrow status idiom: no exceptions cross public API boundaries.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   ///< Caller passed something malformed.
  kParseError,        ///< XML (or delta) text could not be parsed.
  kNotFound,          ///< A referenced entity (XID, version, ...) is absent.
  kCorruption,        ///< Internal invariant violated by stored data.
  kConflict,          ///< A delta operation conflicts with the document.
  kUnimplemented,     ///< Feature intentionally not supported.
  kIOError,           ///< The environment failed an I/O operation (possibly
                      ///< transient: EIO, ENOSPC, ...). Distinct from
                      ///< kCorruption — the bytes were never read/written,
                      ///< as opposed to read successfully but wrong.
  kAborted,           ///< Work intentionally not performed (e.g. a batch
                      ///< slot skipped by fail-fast after an earlier error).
  kDeadlineExceeded,  ///< A Context deadline expired before the operation
                      ///< finished; any partial in-memory work was discarded
                      ///< and no store state was committed.
  kCancelled,         ///< The caller fired the Context cancellation token.
                      ///< Same no-partial-state guarantee as a deadline.
  kResourceExhausted, ///< Admission control shed the work: a byte or slot
                      ///< budget would be exceeded. Retryable with a smaller
                      ///< batch or after in-flight work drains.
};

/// Returns a human-readable name, e.g. "InvalidArgument".
const char* StatusCodeName(StatusCode code);

/// A cheap value type describing the outcome of an operation.
///
/// Functions that can fail return `Status` (or `Result<T>` when they also
/// produce a value). `Status::OK()` is the success value. An error carries
/// a code and a message; for parse errors the message embeds line/column.
///
/// `[[nodiscard]]`: a dropped Status is a silently swallowed error, so
/// discarding one is a compile error under the `analyze` preset (and a
/// warning everywhere else). Discards that are genuinely intentional
/// must be spelled `(void)` with a one-line justification.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  /// Success.
  static Status OK() { return Status(); }
  /// Error constructors, one per code.
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status Conflict(std::string msg) {
    return Status(StatusCode::kConflict, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// Either a value of type `T` or an error `Status`. Accessing the value of
/// an error result is a programming bug (asserted in debug builds).
/// `[[nodiscard]]` for the same reason as Status: dropping a Result drops
/// the error it may carry.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit so that `return value;` works in functions returning Result.
  Result(T value) : value_(std::move(value)) {}
  /// Implicit so that `return Status::ParseError(...)` works.
  Result(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "Result constructed from OK status has no value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Precondition: ok().
  T& value() & {
    assert(ok());
    return *value_;
  }
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() {
    assert(ok());
    return &*value_;
  }
  const T* operator->() const {
    assert(ok());
    return &*value_;
  }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates an error status from an expression, RocksDB style:
///   XYDIFF_RETURN_IF_ERROR(DoThing());
#define XYDIFF_RETURN_IF_ERROR(expr)                \
  do {                                              \
    ::xydiff::Status _s = (expr);                   \
    if (!_s.ok()) return _s;                        \
  } while (false)

}  // namespace xydiff

#endif  // XYDIFF_UTIL_STATUS_H_
