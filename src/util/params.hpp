// Typed key=value parameters and their declarations: the one bag behind the
// drivers' `--key=value` flags, the scenarios' bare `key=value` tokens and
// the process kinds' construction knobs.
//
// A Params bag is filled from argv (`--key` or `--key=value`; its messages
// name keys as `--key`), from bare `key=value` tokens, or by set(). Typed
// getters parse through util/parse.hpp and throw std::invalid_argument on a
// malformed value (the drivers print it and exit 2). Every getter marks its
// key as read; unusedKeys() lists the keys nothing read, so a typo'd knob
// fails loudly instead of silently running the default.
//
// A ParamSpec declares one key: name, type, default, help and its domain,
// the values the key accepts. checkParams() parses each supplied key that a
// declaration list names, by its declared type, and throws
// std::invalid_argument naming the owner, the key, the value and the range
// when the value falls outside its domain. ScenarioRegistry::runOne runs it
// before a scenario body and ProcessRegistry::make before a process maker,
// so a body or maker reads only values inside their declared ranges; `rlslb
// describe` prints the ranges (rangeText). The check is not a read: a key
// that no getter reads still fails the unused-key sweep.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace rlslb::util {

/// The values a declared key accepts, by its type: an inclusive int64 range
/// for "int"; a double range for "double", whose lower bound may be
/// exclusive and which may require a finite value (NaN never passes); a
/// '|'-separated choice list for "string" (null = any string). Plain numbers
/// and a string literal, so a declaration allocates nothing for its domain.
/// A sentinel default (e.g. -1 = "derived") lies inside the domain.
struct ParamDomain {
  std::int64_t intMin = std::numeric_limits<std::int64_t>::min();
  std::int64_t intMax = std::numeric_limits<std::int64_t>::max();
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool minExclusive = false;
  bool finite = false;
  const char* choices = nullptr;
};

/// One declared parameter of a scenario, a process kind or a CLI.
struct ParamSpec {
  std::string name;
  std::string type;          // "int" | "double" | "bool" | "string"
  std::string defaultValue;  // human-readable (may describe a derived value)
  std::string help;          // one line
  ParamDomain domain = {};
};

class Params {
 public:
  Params() = default;

  /// Flags from argv[1..]: each is `--key` (value "true") or `--key=value`;
  /// anything else, or a key given twice, throws std::invalid_argument.
  Params(int argc, const char* const* argv);

  /// Bare `key=value` tokens. On a malformed token (no '=', empty key) or a
  /// key given twice, returns false and stores a message in `error`.
  static bool fromTokens(const std::vector<std::string>& tokens, Params* out,
                         std::string* error);

  void set(const std::string& name, const std::string& value) { values_[name] = value; }

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string getString(const std::string& name, const std::string& dflt) const;
  /// Integers accept exact scientific shorthand ("1e6").
  [[nodiscard]] std::int64_t getInt(const std::string& name, std::int64_t dflt) const;
  [[nodiscard]] double getDouble(const std::string& name, double dflt) const;
  [[nodiscard]] bool getBool(const std::string& name, bool dflt) const;

  /// Keys no getter has read, in key order.
  [[nodiscard]] std::vector<std::string> unusedKeys() const;
  /// Throws std::invalid_argument when a key was never read, one line per
  /// key ("unknown flag --k" or "unknown parameter k"), each followed by
  /// `note`.
  void rejectUnused(const std::string& note = "") const;

  /// The values, ordered by key. Not a read.
  [[nodiscard]] const std::map<std::string, std::string>& values() const { return values_; }
  [[nodiscard]] bool empty() const { return values_.empty(); }

  /// Copy of the values with a clean read slate. ProcessRegistry::make
  /// validates each construction against a fresh copy, so one bag serves
  /// several kinds and several replication threads (freshCopy only reads).
  [[nodiscard]] Params freshCopy() const;

  /// The key as messages spell it: `--key` for flags, `key` otherwise.
  [[nodiscard]] std::string label(const std::string& name) const {
    return flags_ ? "--" + name : name;
  }

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
  bool flags_ = false;

  /// Store a parsed key; a key already present is not overwritten (a
  /// later value would hide an earlier, unchecked one): returns the
  /// message naming it, or "" when stored.
  std::string add(const std::string& name, const std::string& value);
};

/// Check every key of `params` that `specs` declares against its domain
/// (see the header comment). `owner` prefixes the message ("owner: ") when
/// non-empty.
void checkParams(const Params& params, const std::vector<ParamSpec>& specs,
                 const std::string& owner);

/// The domain as `rlslb describe` prints it: "[1, 64]", ">= 0", "> 0",
/// "finite >= 0", "(0, 1]", "a|b|c", or "-" when any value of the type
/// passes.
std::string rangeText(const ParamSpec& spec);

}  // namespace rlslb::util
