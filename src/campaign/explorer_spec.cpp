#include "campaign/explorer_spec.hpp"

#include "explore/dfs_explorer.hpp"
#include "explore/dpor_explorer.hpp"
#include "explore/parallel_explorer.hpp"
#include "explore/random_explorer.hpp"
#include "support/diagnostics.hpp"
#include "support/options.hpp"

namespace lazyhb::campaign {

std::unique_ptr<explore::Explorer> ExplorerSpec::create(
    const explore::ExplorerOptions& options, std::uint64_t seed) const {
  switch (search) {
    case Search::Tree:
      // The tree searches' counts are order-independent, so they shard
      // whenever the options allow it (explore/parallel_explorer.hpp).
      if (explore::ParallelExplorer::shardable(options)) {
        return std::make_unique<explore::ParallelExplorer>(options, cacheKey);
      }
      return std::make_unique<explore::DfsExplorer>(options, cacheKey);
    case Search::Random:
      return std::make_unique<explore::RandomExplorer>(options, seed);
    case Search::Dpor:
      return std::make_unique<explore::DporExplorer>(options);
  }
  LAZYHB_UNREACHABLE("unhandled ExplorerSpec::Search");
}

const std::vector<ExplorerSpec>& allExplorers() {
  using enum ExplorerSpec::Search;
  static const std::vector<ExplorerSpec> specs = {
      {Tree, std::nullopt, "dfs"},
      {Random, std::nullopt, "random"},
      {Dpor, std::nullopt, "dpor"},
      {Tree, trace::Relation::Full, "caching-full"},
      {Tree, trace::Relation::Lazy, "caching-lazy"},
  };
  return specs;
}

const std::vector<ExplorerSpec>& extendedExplorers() {
  static const std::vector<ExplorerSpec> specs = {
      {ExplorerSpec::Search::Tree, trace::Relation::Value, "caching-value"},
  };
  return specs;
}

std::optional<ExplorerSpec> parseExplorerSpec(const std::string& name) {
  for (const ExplorerSpec& spec : allExplorers()) {
    if (spec.name == name) return spec;
  }
  for (const ExplorerSpec& spec : extendedExplorers()) {
    if (spec.name == name) return spec;
  }
  return std::nullopt;
}

std::optional<std::vector<ExplorerSpec>> parseExplorerList(const std::string& csv,
                                                           std::string* badName) {
  if (csv.empty()) return allExplorers();
  std::vector<ExplorerSpec> specs;
  for (const std::string& token : support::splitCsv(csv)) {
    const auto spec = parseExplorerSpec(token);
    if (!spec) {
      if (badName != nullptr) *badName = token;
      return std::nullopt;
    }
    specs.push_back(*spec);
  }
  return specs;
}

std::string explorerNamesHelp(bool includeExtended) {
  std::string out;
  for (const ExplorerSpec& spec : allExplorers()) {
    if (!out.empty()) out += ", ";
    out += spec.name;
  }
  if (includeExtended) {
    for (const ExplorerSpec& spec : extendedExplorers()) {
      out += ", " + spec.name;
    }
  }
  return out;
}

}  // namespace lazyhb::campaign
