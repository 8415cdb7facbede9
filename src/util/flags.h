// Minimal command-line flag parsing for bench/example binaries:
// --name=value or --name value. Unknown flags are an error so typos surface:
// the getters record every name they are asked for, and RejectUnknown(),
// called once after the last getter, exits on any flag none of them read.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>

namespace atrapos {

/// Parses argv into a key->value map and offers typed getters with defaults.
class Flags {
 public:
  /// Parse; exits with a message on malformed input.
  Flags(int argc, char** argv);

  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def) const;
  std::string GetString(const std::string& name, const std::string& def) const;

  bool Has(const std::string& name) const;

  /// Exits 2, naming each one, when a flag was given that no getter (or
  /// Has) has read. Call after every flag the binary accepts was read.
  void RejectUnknown() const;

 private:
  /// The value of `name`, or nullptr; records `name` as read.
  const std::string* Find(const std::string& name) const;

  std::map<std::string, std::string> kv_;
  mutable std::set<std::string> read_;
};

}  // namespace atrapos
