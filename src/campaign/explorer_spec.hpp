// lazyhb/campaign/explorer_spec.hpp
//
// The one explorer factory shared by the CLI, the benches and the campaign
// runner. An ExplorerSpec is a *value* naming an explorer
// configuration; `create()` builds a fresh explorer instance from it.
// Because explorers are single-use (ExplorerBase::explore may run once),
// every campaign cell constructs its own explorer from the spec — which is
// also what makes the (program × explorer) matrix embarrassingly parallel.
//
// The mode names are the strings the CLI accepts for --explorer /
// --explorers: the canonical dfs, random, dpor, caching-full, caching-lazy,
// and the extended caching-value. A caching mode is the dfs search keyed on
// a relation, so each name maps to a search plus an optional cache key.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "explore/explorer.hpp"

namespace lazyhb::campaign {

struct ExplorerSpec {
  enum class Search : std::uint8_t {
    Tree,    ///< explore::DfsExplorer (sharded: explore::ParallelExplorer)
    Random,  ///< explore::RandomExplorer
    Dpor,    ///< explore::DporExplorer
  };

  Search search = Search::Tree;
  /// The tree search's prefix-cache key: Full, Lazy or Value for the
  /// caching modes, nullopt for plain dfs (and for random and dpor).
  std::optional<trace::Relation> cacheKey;
  std::string name;  ///< mode name, e.g. "caching-lazy"

  /// Build a fresh single-use explorer. `seed` affects Search::Random
  /// only. With workers >= 2 the tree searches (dfs,
  /// caching-full, caching-lazy, caching-value) come back as a
  /// ParallelExplorer unless an order-sensitive option forbids sharding;
  /// random and dpor always stay sequential — counts are byte-identical
  /// either way, so the choice is an implementation detail, not a
  /// behaviour change.
  [[nodiscard]] std::unique_ptr<explore::Explorer> create(
      const explore::ExplorerOptions& options, std::uint64_t seed) const;
};

/// The five canonical explorer modes, in the order tables print them.
[[nodiscard]] const std::vector<ExplorerSpec>& allExplorers();

/// The observation-centric "caching-value" explorer: constructible through
/// the same factory, excluded from the default campaign matrix so
/// historical reports stay comparable cell-for-cell. Select with
/// --explorers.
[[nodiscard]] const std::vector<ExplorerSpec>& extendedExplorers();

/// Resolve a canonical or extended mode name; nullopt for unknown names.
[[nodiscard]] std::optional<ExplorerSpec> parseExplorerSpec(const std::string& name);

/// Parse a comma-separated mode list ("dpor,caching-lazy"). An empty string
/// selects every mode. Returns nullopt on the first unknown name, copying
/// it into *badName (when non-null) for the error message.
[[nodiscard]] std::optional<std::vector<ExplorerSpec>> parseExplorerList(
    const std::string& csv, std::string* badName = nullptr);

/// "dfs, random, dpor, caching-full, caching-lazy" — for usage strings.
/// With includeExtended, caching-value is appended too (use in
/// unknown-name error messages, where every accepted spelling belongs).
[[nodiscard]] std::string explorerNamesHelp(bool includeExtended = false);

}  // namespace lazyhb::campaign
