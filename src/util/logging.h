// Minimal logging and invariant-checking facility.
//
// The library does not use exceptions. Internal invariants and
// unrecoverable environment failures (e.g. scratch-file write errors)
// abort through the CHECK family below; fallible public operations
// return util::Status instead (see util/status.h).
#ifndef EXTSCC_UTIL_LOGGING_H_
#define EXTSCC_UTIL_LOGGING_H_

#include <cstdint>
#include <sstream>
#include <string>

namespace extscc::util {

enum class LogSeverity : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4,
};

// Global minimum severity that is actually printed. Defaults to kInfo.
// Fatal messages are always printed (and abort).
void SetMinLogSeverity(LogSeverity severity);
LogSeverity MinLogSeverity();

namespace internal_logging {

// Accumulates one log statement and emits it on destruction.
// A kFatal message aborts the process after emitting.
class LogMessage {
 public:
  LogMessage(LogSeverity severity, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogSeverity severity_;
  std::ostringstream stream_;
};

// Swallows the streamed expression when the statement is compiled out.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal_logging

}  // namespace extscc::util

#define EXTSCC_LOG_INTERNAL(severity)                                       \
  ::extscc::util::internal_logging::LogMessage(                             \
      ::extscc::util::LogSeverity::severity, __FILE__, __LINE__)            \
      .stream()

#define LOG_DEBUG EXTSCC_LOG_INTERNAL(kDebug)
#define LOG_INFO EXTSCC_LOG_INTERNAL(kInfo)
#define LOG_WARNING EXTSCC_LOG_INTERNAL(kWarning)
#define LOG_ERROR EXTSCC_LOG_INTERNAL(kError)
#define LOG_FATAL EXTSCC_LOG_INTERNAL(kFatal)

// CHECK aborts when `condition` is false. Works in all build types; the
// library's correctness arguments (vertex-cover properties, sorted-stream
// preconditions) are enforced with these.
#define CHECK(condition)                                      \
  if (!(condition)) LOG_FATAL << "Check failed: " #condition " "

#define CHECK_OP_IMPL(lhs, rhs, op)                                         \
  if (!((lhs)op(rhs)))                                                      \
  LOG_FATAL << "Check failed: " #lhs " " #op " " #rhs " (" << (lhs) << " vs " \
            << (rhs) << ") "

#define CHECK_EQ(lhs, rhs) CHECK_OP_IMPL(lhs, rhs, ==)
#define CHECK_NE(lhs, rhs) CHECK_OP_IMPL(lhs, rhs, !=)
#define CHECK_LT(lhs, rhs) CHECK_OP_IMPL(lhs, rhs, <)
#define CHECK_LE(lhs, rhs) CHECK_OP_IMPL(lhs, rhs, <=)
#define CHECK_GT(lhs, rhs) CHECK_OP_IMPL(lhs, rhs, >)
#define CHECK_GE(lhs, rhs) CHECK_OP_IMPL(lhs, rhs, >=)

// Debug-only checks for hot loops.
#ifndef NDEBUG
#define DCHECK(condition) CHECK(condition)
#define DCHECK_EQ(lhs, rhs) CHECK_EQ(lhs, rhs)
#define DCHECK_NE(lhs, rhs) CHECK_NE(lhs, rhs)
#define DCHECK_LT(lhs, rhs) CHECK_LT(lhs, rhs)
#define DCHECK_LE(lhs, rhs) CHECK_LE(lhs, rhs)
#define DCHECK_GT(lhs, rhs) CHECK_GT(lhs, rhs)
#define DCHECK_GE(lhs, rhs) CHECK_GE(lhs, rhs)
#else
#define DCHECK(condition) \
  if (false) ::extscc::util::internal_logging::NullStream()
#define DCHECK_EQ(lhs, rhs) DCHECK((lhs) == (rhs))
#define DCHECK_NE(lhs, rhs) DCHECK((lhs) != (rhs))
#define DCHECK_LT(lhs, rhs) DCHECK((lhs) < (rhs))
#define DCHECK_LE(lhs, rhs) DCHECK((lhs) <= (rhs))
#define DCHECK_GT(lhs, rhs) DCHECK((lhs) > (rhs))
#define DCHECK_GE(lhs, rhs) DCHECK((lhs) >= (rhs))
#endif

#endif  // EXTSCC_UTIL_LOGGING_H_
