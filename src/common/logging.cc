#include "src/common/logging.h"

#include "src/common/mutex.h"

namespace skadi {

std::atomic<int>& GlobalLogLevel() {
  static std::atomic<int> level{static_cast<int>(LogLevel::kWarn)};
  return level;
}

std::string_view LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

namespace {
Mutex& LogMutex() {
  static Mutex mu;
  return mu;
}

// Trims a path down to its basename for compact log prefixes.
const char* Basename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  return base;
}
}  // namespace

LogMessage::LogMessage(LogLevel level, const char* file, int line) : level_(level) {
  stream_ << "[" << LogLevelName(level) << " " << Basename(file) << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  {
    MutexLock lock(LogMutex());
    std::cerr << stream_.str() << "\n";
  }
  if (level_ == LogLevel::kFatal) {
    std::abort();
  }
}

}  // namespace skadi
