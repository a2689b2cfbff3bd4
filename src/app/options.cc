#include "app/options.h"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/parse.h"

namespace numfabric::app {
namespace {

using util::trim;

double to_double(const std::string& key, const std::string& text) {
  const auto value = util::parse_double(text);
  if (!value) {
    throw std::invalid_argument("option " + key + ": '" + text +
                                "' is not a number");
  }
  return *value;
}

std::int64_t to_int(const std::string& key, const std::string& text) {
  const auto value = util::parse_int(text);
  if (!value) {
    throw std::invalid_argument("option " + key + ": '" + text +
                                "' is not an integer");
  }
  return *value;
}

int to_int32(const std::string& key, const std::string& text) {
  const std::int64_t value = to_int(key, text);
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("option " + key + ": '" + text +
                                "' is out of range for an int");
  }
  return static_cast<int>(value);
}

}  // namespace

Options Options::from_tokens(const std::vector<std::string>& tokens) {
  Options options;
  for (const std::string& raw : tokens) {
    std::string token = raw;
    if (token.rfind("--", 0) == 0) token = token.substr(2);
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      if (token.empty()) {
        throw std::invalid_argument("empty option token: '" + raw + "'");
      }
      options.set(token, "true");
      continue;
    }
    const std::string key = trim(token.substr(0, eq));
    if (key.empty()) {
      throw std::invalid_argument("option with empty key: '" + raw + "'");
    }
    options.set(key, trim(token.substr(eq + 1)));
  }
  return options;
}

Options Options::from_config_text(const std::string& text) {
  Options options;
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("config line " + std::to_string(line_number) +
                                  ": expected key = value, got '" + line + "'");
    }
    const std::string key = trim(line.substr(0, eq));
    if (key.empty()) {
      throw std::invalid_argument("config line " + std::to_string(line_number) +
                                  ": empty key");
    }
    options.set(key, trim(line.substr(eq + 1)));
  }
  return options;
}

Options Options::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read config file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return from_config_text(text.str());
}

void Options::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool Options::has(const std::string& key) const {
  return values_.count(key) > 0;
}

void Options::merge(const Options& other) {
  for (const auto& [key, value] : other.values_) values_[key] = value;
}

std::string Options::get(const std::string& key,
                         const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double Options::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : to_double(key, it->second);
}

std::int64_t Options::get_int(const std::string& key,
                              std::int64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : to_int(key, it->second);
}

int Options::get_int32(const std::string& key, int fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : to_int32(key, it->second);
}

std::vector<std::string> Options::get_list(
    const std::string& key, const std::vector<std::string>& fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::vector<std::string> items;
  std::istringstream in(it->second);
  std::string item;
  while (std::getline(in, item, ',')) {
    item = trim(item);
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

std::vector<double> Options::get_double_list(
    const std::string& key, const std::vector<double>& fallback) const {
  if (!has(key)) return fallback;
  std::vector<double> out;
  for (const std::string& item : get_list(key, {})) {
    out.push_back(to_double(key, item));
  }
  return out;
}

std::vector<int> Options::get_int_list(const std::string& key,
                                       const std::vector<int>& fallback) const {
  if (!has(key)) return fallback;
  std::vector<int> out;
  for (const std::string& item : get_list(key, {})) {
    out.push_back(to_int32(key, item));
  }
  return out;
}

std::string Options::to_config_text() const {
  std::ostringstream out;
  for (const auto& [key, value] : values_) out << key << " = " << value << "\n";
  return out.str();
}

}  // namespace numfabric::app
