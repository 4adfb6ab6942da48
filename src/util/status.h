#ifndef TABBENCH_UTIL_STATUS_H_
#define TABBENCH_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace tabbench {

/// Outcome of a fallible operation. Modeled on the RocksDB / Arrow Status
/// idiom: no exceptions cross library boundaries; every fallible call returns
/// a Status (or a Result<T>, below) that the caller must inspect.
///
/// [[nodiscard]] makes dropping a returned Status a compile error — the
/// compile-time twin of tabbench_analyze's `unchecked-status` rule. Callers
/// that really mean to ignore an outcome must write `(void)Foo();`.
class [[nodiscard]] Status {
 public:
  enum class Code {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kAlreadyExists,
    kUnsupported,
    /// Query execution exceeded the (simulated) timeout limit. This is an
    /// *expected* outcome for benchmark workloads (the paper's `t_out` bin),
    /// not an internal error.
    kTimeout,
    kResourceExhausted,
    kInternal,
    /// The work was called off before it finished. Nothing in the engine
    /// raises it today; fault injection can (the `cancelled` code).
    kCancelled,
    /// The request cannot be accepted right now (admission control: a
    /// thread pool's job queue is full or it is shutting down, or an
    /// injected transient fault). Transient.
    kUnavailable,
    /// Durable data failed an integrity check: a checksum mismatch in a
    /// saved workload, report, or run journal. Unlike kInternal this points
    /// at bytes on disk, not a bug in this process; the message carries the
    /// offending file offset so the operator can inspect the corruption.
    kDataLoss,
  };

  Status() : code_(Code::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(Code::kAlreadyExists, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(Code::kUnsupported, std::move(msg));
  }
  static Status Timeout(std::string msg) {
    return Status(Code::kTimeout, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(Code::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(Code::kInternal, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(Code::kCancelled, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(Code::kUnavailable, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(Code::kDataLoss, std::move(msg));
  }
  /// Rebuilds a Status from its serialized parts (run-journal records store
  /// a per-attempt code + message). An out-of-range code — possible only
  /// with a corrupt journal that still passed its CRC — maps to kInternal
  /// rather than trusting the cast.
  static Status FromCode(Code code, std::string msg) {
    if (code == Code::kOk) return OK();
    if (code < Code::kInvalidArgument || code > Code::kDataLoss) {
      return Internal("invalid serialized status code");
    }
    return Status(code, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsTimeout() const { return code_ == Code::kTimeout; }
  bool IsCancelled() const { return code_ == Code::kCancelled; }
  bool IsUnavailable() const { return code_ == Code::kUnavailable; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsUnsupported() const { return code_ == Code::kUnsupported; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsDataLoss() const { return code_ == Code::kDataLoss; }

  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  Code code_;
  std::string message_;
};

/// A value or an error. `ok()` must be checked before dereferencing.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status)                          // NOLINT(runtime/explicit)
      : status_(std::move(status)) {
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() {
    assert(ok());
    return *value_;
  }
  const T& value() const {
    assert(ok());
    return *value_;
  }

  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  /// Moves the value out of the Result.
  T TakeValue() {
    assert(ok());
    return std::move(*value_);
  }

 private:
  std::optional<T> value_;
  Status status_;
};

/// Propagates a non-OK Status to the caller.
#define TB_RETURN_IF_ERROR(expr)            \
  do {                                      \
    ::tabbench::Status _st = (expr);        \
    if (!_st.ok()) return _st;              \
  } while (0)

/// Evaluates a Result-returning expression; on error propagates the Status,
/// otherwise moves the value into `lhs`.
#define TB_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                             \
  if (!tmp.ok()) return tmp.status();            \
  lhs = tmp.TakeValue()

#define TB_ASSIGN_OR_RETURN_CAT(a, b) a##b
#define TB_ASSIGN_OR_RETURN_NAME(a, b) TB_ASSIGN_OR_RETURN_CAT(a, b)
#define TB_ASSIGN_OR_RETURN(lhs, expr) \
  TB_ASSIGN_OR_RETURN_IMPL(            \
      TB_ASSIGN_OR_RETURN_NAME(_result_tmp_, __LINE__), lhs, expr)

}  // namespace tabbench

#endif  // TABBENCH_UTIL_STATUS_H_
