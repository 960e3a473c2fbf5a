#include "mel/util/log.hpp"

#include <cstdio>

namespace mel::util {

namespace {
const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

void log_line(LogLevel level, const std::string& msg) {
  if (static_cast<int>(level) < static_cast<int>(kLogLevel)) return;
  std::fprintf(stderr, "[mel %-5s] %s\n", level_name(level), msg.c_str());
}

}  // namespace mel::util
