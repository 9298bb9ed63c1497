#include "util/cli.hpp"

#include <stdexcept>

#include "util/parse.hpp"

namespace rlslb {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("argument " + arg + ": arguments are --key or --key=value");
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "true";
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return false;
  used_[name] = true;
  return true;
}

std::string CliArgs::getString(const std::string& name, const std::string& dflt) const {
  auto it = values_.find(name);
  if (it == values_.end()) return dflt;
  used_[name] = true;
  return it->second;
}

std::int64_t CliArgs::getInt(const std::string& name, std::int64_t dflt) const {
  return has(name) ? util::parseInt64(getString(name, ""), "--" + name) : dflt;
}

double CliArgs::getDouble(const std::string& name, double dflt) const {
  return has(name) ? util::parseDouble(getString(name, ""), "--" + name) : dflt;
}

bool CliArgs::getBool(const std::string& name, bool dflt) const {
  return has(name) ? util::parseBool(getString(name, ""), "--" + name) : dflt;
}

int CliArgs::getThreads(int dflt) const {
  const std::int64_t v = getInt("threads", dflt);
  if (v < 0 || v > 4096) {
    throw std::invalid_argument("--threads=" + std::to_string(v) +
                                " must be in [0, 4096] (0 = hardware)");
  }
  return static_cast<int>(v);
}

std::vector<std::string> CliArgs::unusedKeys() const {
  std::vector<std::string> out;
  for (const auto& [k, _] : values_) {
    auto it = used_.find(k);
    if (it == used_.end() || !it->second) out.push_back(k);
  }
  return out;
}

}  // namespace rlslb
