// Minimal leveled logging. The threshold is a compile-time constant, so
// logging reads no shared state; each line is one stdio call.
#pragma once

#include <sstream>
#include <string>

namespace mel::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Log threshold; messages below it are discarded.
inline constexpr LogLevel kLogLevel = LogLevel::kWarn;

/// Emit one log line (used by the MEL_LOG macro below).
void log_line(LogLevel level, const std::string& msg);

namespace detail {
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { log_line(level_, os_.str()); }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <class T>
  LogStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace mel::util

#define MEL_LOG(level)                                                    \
  if (static_cast<int>(level) < static_cast<int>(::mel::util::kLogLevel)) { \
  } else                                                                  \
    ::mel::util::detail::LogStream(level)

#define MEL_DEBUG MEL_LOG(::mel::util::LogLevel::kDebug)
#define MEL_INFO MEL_LOG(::mel::util::LogLevel::kInfo)
#define MEL_WARN MEL_LOG(::mel::util::LogLevel::kWarn)
#define MEL_ERROR MEL_LOG(::mel::util::LogLevel::kError)
