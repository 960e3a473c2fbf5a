#include "mel/obs/emit.hpp"

#include <algorithm>
#include <cerrno>

#include "mel/obs/json.hpp"

namespace mel::obs {

char* format_micros(char* out, sim::Time ns) {
  if (ns < 0 || ns >= kExactMicros) {
    const int n = std::snprintf(out, kMicrosChars, "%.3f",
                                static_cast<double>(ns) / 1e3);
    return out + n;
  }
  out = std::to_chars(out, out + kMicrosChars, ns / 1000).ptr;
  const auto frac = static_cast<int>(ns % 1000);
  out[0] = '.';
  out[1] = static_cast<char>('0' + frac / 100);
  out[2] = static_cast<char>('0' + frac / 10 % 10);
  out[3] = static_cast<char>('0' + frac % 10);
  return out + 4;
}

Emitter::Emitter(std::FILE* out) : file_(out) {}

Emitter::Emitter(std::string& out) : text_(&out) {}

bool Emitter::flush() {
  const auto used = static_cast<std::size_t>(pos_ - buf_.get());
  if (text_ != nullptr) {
    text_->append(buf_.get(), used);
  } else if (error_ == 0 &&
             (std::fwrite(buf_.get(), 1, used, file_) != used ||
              std::fflush(file_) != 0)) {
    error_ = errno != 0 ? errno : EIO;
  }
  pos_ = buf_.get();
  if (error_ != 0) errno = error_;
  return error_ == 0;
}

Emitter& Emitter::write_long(std::string_view text) {
  while (!text.empty()) {
    if (room() == 0) flush();
    const std::size_t n = std::min(text.size(), room());
    pos_ = std::copy_n(text.data(), n, pos_);
    text.remove_prefix(n);
  }
  return *this;
}

Emitter& Emitter::write_escaped(std::string_view text) {
  return *this << std::string_view(json_escape(text));
}

}  // namespace mel::obs
