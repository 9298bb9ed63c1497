#include "util/parse.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace rlslb::util {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& text, const char* why) {
  std::string message = "parameter ";
  message.append(what).append("=").append(text).append(": ").append(why);
  throw std::invalid_argument(message);
}

}  // namespace

std::int64_t parseInt64(const std::string& text, const std::string& what) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end != nullptr && *end == '\0' && !text.empty()) {
    if (errno == ERANGE) fail(what, text, "out of int64 range");
    return v;
  }
  // Scientific shorthand ("1e6", "2.5e3"): accept iff exactly integral and
  // representable.
  end = nullptr;
  const double d = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || text.empty()) fail(what, text, "not an integer");
  if (std::nearbyint(d) != d || std::fabs(d) >= 9.2e18) {
    fail(what, text, "not an exact integer");
  }
  return static_cast<std::int64_t>(d);
}

double parseDouble(const std::string& text, const std::string& what) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || text.empty()) fail(what, text, "not a number");
  return v;
}

std::vector<std::string> splitEntries(const std::string& key, const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t end = text.find(sep, start);
    out.push_back(text.substr(start, end == std::string::npos ? end : end - start));
    if (out.back().empty()) fail(key, text, "empty list entry");
    if (end == std::string::npos) return out;
    start = end + 1;
  }
}

bool parseBool(const std::string& text, const std::string& what) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") return true;
  if (text == "false" || text == "0" || text == "no" || text == "off") return false;
  fail(what, text, "not a boolean (true/1/yes/on or false/0/no/off)");
}

}  // namespace rlslb::util
