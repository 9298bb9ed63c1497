// Typed parsing of `key=value` parameter strings, behind util::Params
// (util/params.hpp) and the list-valued params. Every parser throws
// std::invalid_argument on malformed input -- a typo'd override must stop
// the run with a usage error (the drivers print the message and exit 2),
// never silently fall back to a default.
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

/// Split the value of list param `key` at `sep` ("a,b" -> {a, b}). An empty
/// entry, or an empty list, is a usage error that names the key. The one
/// splitter behind every list-valued param (`process=a,b`, `n_list=16,32`,
/// `traces=spec;spec`).
std::vector<std::string> splitEntries(const std::string& key, const std::string& text, char sep);

}  // namespace rlslb::util
