#include "util/params.hpp"

#include <cmath>
#include <stdexcept>
#include <string_view>

#include "util/format.hpp"
#include "util/parse.hpp"

namespace rlslb::util {

std::string Params::add(const std::string& name, const std::string& value) {
  const auto [it, added] = values_.emplace(name, value);
  if (added) return "";
  std::string message = label(name);
  return message.append(" given twice (").append(it->second).append(", then ").append(value)
      .append(")");
}

Params::Params(int argc, const char* const* argv) : flags_(true) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("argument " + arg + ": arguments are --key or --key=value");
    }
    const auto eq = arg.find('=');
    const std::string repeated = eq == std::string::npos
                                     ? add(arg.substr(2), "true")
                                     : add(arg.substr(2, eq - 2), arg.substr(eq + 1));
    if (!repeated.empty()) throw std::invalid_argument(repeated);
  }
}

bool Params::fromTokens(const std::vector<std::string>& tokens, Params* out,
                        std::string* error) {
  Params p;
  for (const std::string& tok : tokens) {
    const auto eq = tok.find('=');
    std::string message = eq == std::string::npos || eq == 0
                              ? "malformed parameter '" + tok + "' (expected key=value)"
                              : p.add(tok.substr(0, eq), tok.substr(eq + 1));
    if (!message.empty()) {
      if (error != nullptr) *error = std::move(message);
      return false;
    }
  }
  *out = std::move(p);
  return true;
}

bool Params::has(const std::string& name) const {
  if (values_.count(name) == 0) return false;
  read_.insert(name);
  return true;
}

std::string Params::getString(const std::string& name, const std::string& dflt) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return dflt;
  read_.insert(name);
  return it->second;
}

std::int64_t Params::getInt(const std::string& name, std::int64_t dflt) const {
  return has(name) ? parseInt64(values_.at(name), label(name)) : dflt;
}

double Params::getDouble(const std::string& name, double dflt) const {
  return has(name) ? parseDouble(values_.at(name), label(name)) : dflt;
}

bool Params::getBool(const std::string& name, bool dflt) const {
  return has(name) ? parseBool(values_.at(name), label(name)) : dflt;
}

std::vector<std::string> Params::unusedKeys() const {
  std::vector<std::string> out;
  for (const auto& [k, _] : values_) {
    if (read_.count(k) == 0) out.push_back(k);
  }
  return out;
}

void Params::rejectUnused(const std::string& note) const {
  std::string message;
  for (const std::string& k : unusedKeys()) {
    if (!message.empty()) message += '\n';
    message.append(flags_ ? "unknown flag " : "unknown parameter ").append(label(k)).append(note);
  }
  if (!message.empty()) throw std::invalid_argument(message);
}

Params Params::freshCopy() const {
  Params out;
  out.values_ = values_;
  out.flags_ = flags_;
  return out;
}

namespace {

bool inDomain(const ParamSpec& spec, const std::string& text, const std::string& label) {
  const ParamDomain& d = spec.domain;
  if (spec.type == "int") {
    const std::int64_t v = parseInt64(text, label);
    return v >= d.intMin && v <= d.intMax;
  }
  if (spec.type == "double") {
    const double v = parseDouble(text, label);
    // Written so that NaN fails every comparison.
    return (d.minExclusive ? v > d.min : v >= d.min) && v <= d.max &&
           (!d.finite || std::isfinite(v));
  }
  if (spec.type == "bool") {
    (void)parseBool(text, label);
    return true;
  }
  if (d.choices == nullptr) return true;
  for (std::string_view rest = d.choices;;) {
    const std::size_t bar = rest.find('|');
    if (rest.substr(0, bar) == text) return true;
    if (bar == std::string_view::npos) return false;
    rest.remove_prefix(bar + 1);
  }
}

}  // namespace

void checkParams(const Params& params, const std::vector<ParamSpec>& specs,
                 const std::string& owner) {
  for (const ParamSpec& spec : specs) {
    const auto it = params.values().find(spec.name);
    if (it == params.values().end()) continue;
    const std::string label = params.label(spec.name);
    if (inDomain(spec, it->second, label)) continue;
    const std::string range = rangeText(spec);
    std::string message = owner.empty() ? "" : owner + ": ";
    message.append(label).append("=").append(it->second).append(" must be ");
    if (spec.domain.choices != nullptr) {
      message.append("one of ");
    } else if (range[0] == '[' || range[0] == '(') {
      message.append("in ");
    }
    throw std::invalid_argument(message.append(range));
  }
}

std::string rangeText(const ParamSpec& spec) {
  const ParamDomain& d = spec.domain;
  std::string out;
  if (spec.type == "int") {
    constexpr ParamDomain kAny;
    if (d.intMax == kAny.intMax) {
      if (d.intMin == kAny.intMin) return "-";
      return out.append(">= ").append(std::to_string(d.intMin));
    }
    return out.append("[").append(std::to_string(d.intMin)).append(", ")
        .append(std::to_string(d.intMax)).append("]");
  }
  if (spec.type == "double") {
    if (std::isinf(d.max)) {
      if (std::isinf(d.min)) return d.finite ? "finite" : "-";
      return out.append(d.finite ? "finite " : "").append(d.minExclusive ? "> " : ">= ")
          .append(formatSig(d.min, 15));
    }
    return out.append(d.minExclusive ? "(" : "[").append(formatSig(d.min, 15)).append(", ")
        .append(formatSig(d.max, 15)).append("]");
  }
  return d.choices != nullptr ? d.choices : "-";
}

}  // namespace rlslb::util
