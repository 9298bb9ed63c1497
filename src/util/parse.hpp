// Typed parsing of `key=value` parameter strings, shared by the scenario
// param layer (scenario/params.hpp) and the process param layer
// (process/params.hpp). All three parsers throw std::invalid_argument on
// malformed input -- a typo'd override must stop the run with a usage error
// (the drivers print the message and exit 2), never silently fall back to a
// default.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rlslb::util {

/// Plain decimal ("123") or exact-integral scientific shorthand ("1e6",
/// "2.5e3"). Throws on non-integral or out-of-range values; `what` names
/// the offending parameter in the message.
std::int64_t parseInt64(const std::string& text, const std::string& what);

double parseDouble(const std::string& text, const std::string& what);

/// true/1/yes/on and false/0/no/off.
bool parseBool(const std::string& text, const std::string& what);

/// Split a comma-separated list, dropping empty tokens ("a,,b" -> {a, b}).
/// The one parser behind every `process=a,b,c`-style CLI value.
std::vector<std::string> splitCsv(const std::string& csv);

}  // namespace rlslb::util
