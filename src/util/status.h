#ifndef CALCITE_UTIL_STATUS_H_
#define CALCITE_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace calcite {

/// Error categories used across the framework. Mirrors the error surfaces a
/// database framework exposes: parse errors, validation (semantic) errors,
/// planner errors, and runtime (execution) errors.
enum class StatusCode {
  kOk = 0,
  kParseError,
  kValidationError,
  kPlanError,
  kRuntimeError,
  kNotFound,
  kInvalidArgument,
  kUnsupported,
  kInternal,
};

/// Returns a human-readable name for a status code ("ParseError", ...).
const char* StatusCodeName(StatusCode code);

/// A lightweight success-or-error value, modeled after the Status idiom used
/// by RocksDB/Arrow. The framework does not throw exceptions across its
/// public API; fallible operations return Status or Result<T>.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status ValidationError(std::string msg) {
    return Status(StatusCode::kValidationError, std::move(msg));
  }
  static Status PlanError(std::string msg) {
    return Status(StatusCode::kPlanError, std::move(msg));
  }
  static Status RuntimeError(std::string msg) {
    return Status(StatusCode::kRuntimeError, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Formats as "Ok" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Prints `status` to stderr and aborts: the fate of Result::value() on an
/// error, in every build type (an assert would compile away under NDEBUG
/// and leave the access undefined).
[[noreturn]] void AbortOnErrorValue(const Status& status);

/// A value-or-error result, modeled after absl::StatusOr. Holds either a T
/// (when status().ok()) or an error Status. value() on an error aborts with
/// the status text.
template <typename T>
class Result {
 public:
  /// Implicit from value: allows `return value;` in functions returning
  /// Result<T>.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit from error status. The status must not be OK.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    CheckOk();
    return *value_;
  }
  T& value() & {
    CheckOk();
    return *value_;
  }
  T&& value() && {
    CheckOk();
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckOk() const {
    if (!ok()) AbortOnErrorValue(status_);
  }

  Status status_;
  std::optional<T> value_;
};

}  // namespace calcite

/// Propagates a non-OK Status from an expression producing Status.
#define CALCITE_RETURN_IF_ERROR(expr)            \
  do {                                           \
    ::calcite::Status _st = (expr);              \
    if (!_st.ok()) return _st;                   \
  } while (0)

/// Evaluates an expression producing Result<T>; on error propagates the
/// Status, otherwise assigns the value to `lhs`.
#define CALCITE_ASSIGN_OR_RETURN(lhs, expr)      \
  auto CALCITE_CONCAT_(_res_, __LINE__) = (expr);               \
  if (!CALCITE_CONCAT_(_res_, __LINE__).ok())                   \
    return CALCITE_CONCAT_(_res_, __LINE__).status();           \
  lhs = std::move(CALCITE_CONCAT_(_res_, __LINE__)).value()

#define CALCITE_CONCAT_(a, b) CALCITE_CONCAT_IMPL_(a, b)
#define CALCITE_CONCAT_IMPL_(a, b) a##b

#endif  // CALCITE_UTIL_STATUS_H_
