#include "app/scenario.h"

#include <algorithm>
#include <cctype>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "util/parse.h"

namespace numfabric::app {

Knobs::Knobs(std::string scenario, const std::vector<ParamSpec>& declared,
             const Options& given)
    : scenario_(std::move(scenario)) {
  for (const ParamSpec& spec : declared) {
    values_.set(spec.key, given.get(spec.key, spec.default_value));
    if (given.has(spec.key)) given_.insert(spec.key);
  }
}

const std::string& Knobs::checked(const std::string& key) const {
  if (!declares(key)) {
    throw std::logic_error("scenario " + scenario_ +
                           " reads undeclared knob '" + key + "'");
  }
  return key;
}

ScenarioRegistry& ScenarioRegistry::global() {
  static ScenarioRegistry registry;
  return registry;
}

void ScenarioRegistry::add(Scenario scenario) {
  if (scenario.name.empty()) {
    throw std::invalid_argument("scenario with empty name");
  }
  if (!scenario.run) {
    throw std::invalid_argument("scenario " + scenario.name +
                                ": missing run function");
  }
  const auto [it, inserted] =
      scenarios_.emplace(scenario.name, std::move(scenario));
  if (!inserted) {
    throw std::invalid_argument("duplicate scenario name: " + it->first);
  }
}

const Scenario* ScenarioRegistry::find(const std::string& name) const {
  const auto it = scenarios_.find(name);
  return it == scenarios_.end() ? nullptr : &it->second;
}

std::vector<const Scenario*> ScenarioRegistry::list() const {
  std::vector<const Scenario*> out;
  out.reserve(scenarios_.size());
  for (const auto& [name, scenario] : scenarios_) out.push_back(&scenario);
  return out;  // map iteration order is already name order
}

transport::Scheme parse_scheme(const std::string& name) {
  std::string token = name;
  std::transform(token.begin(), token.end(), token.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (token == "numfabric") return transport::Scheme::kNumFabric;
  if (token == "dctcp") return transport::Scheme::kDctcp;
  if (token == "pfabric") return transport::Scheme::kPFabric;
  if (token == "rcp" || token == "rcp*" || token == "rcpstar") {
    return transport::Scheme::kRcpStar;
  }
  if (token == "dgd") return transport::Scheme::kDgd;
  throw std::invalid_argument(
      "unknown transport '" + name +
      "' (expected numfabric, dctcp, pfabric, rcp or dgd)");
}

std::string scheme_token(transport::Scheme scheme) {
  switch (scheme) {
    case transport::Scheme::kNumFabric: return "numfabric";
    case transport::Scheme::kDgd: return "dgd";
    case transport::Scheme::kRcpStar: return "rcp";
    case transport::Scheme::kDctcp: return "dctcp";
    case transport::Scheme::kPFabric: return "pfabric";
  }
  return "?";
}

std::array<int, 3> parse_topology_token(const std::string& token,
                                        bool allow_jellyfish) {
  const std::string prefix = "jellyfish:";
  const bool jellyfish = allow_jellyfish && token.rfind(prefix, 0) == 0;
  const std::string body = jellyfish ? token.substr(prefix.size()) : token;
  const char separator = jellyfish ? ',' : 'x';
  const std::invalid_argument bad(
      "bad topology '" + token + "' (expected " +
      (jellyfish ? "jellyfish:switches,ports,hosts, e.g. jellyfish:12,4,24)"
                 : "HxLxS, e.g. 16x8x4)"));
  std::array<int, 3> fields{};
  std::size_t start = 0;
  for (std::size_t field = 0; field < 3; ++field) {
    const std::size_t end = std::min(body.find(separator, start), body.size());
    const std::string digits = body.substr(start, end - start);
    // Digits only: parse_int alone would accept a sign or leading blanks.
    const auto value =
        digits.find_first_not_of("0123456789") == std::string::npos
            ? util::parse_int(digits)
            : std::nullopt;
    // Fields 1-2 end at a separator, field 3 at the end of the token.
    if (!value || *value < 1 || *value > std::numeric_limits<int>::max() ||
        (end == body.size()) != (field == 2)) {
      throw bad;
    }
    fields[field] = static_cast<int>(*value);
    start = end + 1;
  }
  return fields;
}

}  // namespace numfabric::app
