// Lightweight key=value option store for the scenario driver.
//
// Options come from two layers, the later overriding the earlier: a config
// file (`--config=FILE`, one `key = value` per line, '#' comments) and
// command-line tokens (`--key=value`, `key=value`, or a bare `--flag`
// meaning `flag=true`).  Values stay strings until a typed getter parses
// them, so the store itself has no schema; scenarios declare their schema as
// ParamSpec lists (scenario.h) — the driver rejects keys no scenario
// declares, and each scenario reads its keys through its declarations, which
// supply the default for an absent key (the declarations depend on
// quick-vs-full scale, so they are built per run, not stored here).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace numfabric::app {

class Options {
 public:
  Options() = default;

  /// Parses command-line style tokens.  Accepts "--key=value", "key=value"
  /// and bare "--flag" (stored as flag=true).  Throws std::invalid_argument
  /// on malformed tokens (empty key, no '=' in a non-flag token).
  static Options from_tokens(const std::vector<std::string>& tokens);

  /// Parses a config file: one `key = value` per line, blank lines and
  /// '#' comments ignored.  Throws std::runtime_error if the file cannot be
  /// read, std::invalid_argument on malformed lines.
  static Options from_file(const std::string& path);

  /// Parses config-file syntax from a string (exposed for tests).
  static Options from_config_text(const std::string& text);

  void set(const std::string& key, const std::string& value);
  bool has(const std::string& key) const;

  /// Overlays `other` on top of this (other wins on conflicts).
  void merge(const Options& other);

  // Typed getters; return `fallback` when the key is absent and throw
  // std::invalid_argument when the value does not parse.
  std::string get(const std::string& key, const std::string& fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// get_int for `int` fields: a value outside int's range throws instead of
  /// wrapping.
  int get_int32(const std::string& key, int fallback) const;
  /// Comma-separated list; empty value -> empty list.
  std::vector<std::string> get_list(const std::string& key,
                                    const std::vector<std::string>& fallback) const;
  /// Comma-separated numeric lists, validated item by item (trailing junk in
  /// any element throws, same strictness as the scalar getters).
  std::vector<double> get_double_list(const std::string& key,
                                      const std::vector<double>& fallback) const;
  /// Elements outside int's range throw, as in get_int32.
  std::vector<int> get_int_list(const std::string& key,
                                const std::vector<int>& fallback) const;

  const std::map<std::string, std::string>& values() const { return values_; }

  /// Serializes as config-file text; from_config_text(to_config_text())
  /// round-trips exactly.
  std::string to_config_text() const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace numfabric::app
