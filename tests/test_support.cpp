// Unit tests for the support layer: hashing, multiset accumulators, thread
// sets, RNG determinism, tables, option parsing and the JSON reader's
// guards against hostile input.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "runtime/operation.hpp"
#include "support/hash.hpp"
#include "support/json_reader.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/thread_set.hpp"
#include "support/undo_log.hpp"

namespace {

using namespace lazyhb::support;

TEST(Hash, Mix64IsInjectiveOnSamples) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(seen.insert(mix64(i)).second);
  }
}

TEST(Hash, Hash128DiffersAcrossInputsAndStreams) {
  EXPECT_NE(hash128(1), hash128(2));
  EXPECT_NE(hash128(1).lo, hash128(1).hi);
  EXPECT_EQ(hash128(7, 9), hash128(7, 9));
  EXPECT_NE(hash128(7, 9), hash128(9, 7));
}

// mix64, hashCombine and Rng are the seed hashes: random walk k of a
// random exploration runs on Rng(mix64(seed + k)), and perfbench derives
// every workload's exploration seeds from mix64 and hashCombine. Changing
// any of them silently changes which walks run, and with them every random
// count in the baselines and perfbench's goldens, so their outputs are
// pinned here (the fingerprint mixers are free to change).
TEST(Hash, SeedHashesArePinned) {
  EXPECT_EQ(mix64(0), 0u);
  EXPECT_EQ(mix64(1), 0x5692161d100b05e5ULL);
  EXPECT_EQ(mix64(0x0123456789abcdefULL), 0xb2c058e4ebb5112cULL);
  // splitmix64's first output from seed 0.
  EXPECT_EQ(hashCombine(0, 0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(hashCombine(1, 2), 0x3706970b052f16b1ULL);
  EXPECT_EQ(hashCombine(mix64(1), 0), 0xf374c6fa32af5d36ULL);
}

TEST(Rng, StreamIsPinned) {
  Rng rng(1);
  EXPECT_EQ(rng.nextU64(), 0xb3f2af6d0fc710c5ULL);
  EXPECT_EQ(rng.nextU64(), 0x853b559647364ceaULL);
  EXPECT_EQ(rng.nextU64(), 0x92f89756082a4514ULL);
  EXPECT_EQ(rng.nextU64(), 0x642e1c7bc266a3a7ULL);
  EXPECT_EQ(Rng{}.nextU64(), 0x4c2182cc85538f25ULL);
  // Walk 0 of seed 1: the first pick among 1,000 enabled threads.
  Rng walk(mix64(1 + 0));
  EXPECT_EQ(walk.below(1000), 986u);
}

/// Sorts `words` and counts adjacent duplicates.
std::size_t duplicateCount(std::vector<std::uint64_t>& words) {
  std::sort(words.begin(), words.end());
  std::size_t duplicates = 0;
  for (std::size_t i = 1; i < words.size(); ++i) duplicates += words[i] == words[i - 1];
  return duplicates;
}

TEST(Hash, FingerprintMixerHasNoCollisionsOnStructuredInputs) {
  // The labels a fingerprint mixes are highly structured: small per-thread
  // indices and a handful of kinds. 64 sequential thread uids x 1,024
  // indices x 17 op kinds = 1,114,112 (> 2^20) labels; neither 64-bit word
  // of the label may collide.
  std::vector<std::uint64_t> lo;
  std::vector<std::uint64_t> hi;
  for (std::uint64_t uid = 1; uid <= 64; ++uid) {
    for (std::uint32_t index = 0; index < 1024; ++index) {
      for (int kind = 0; kind <= static_cast<int>(lazyhb::runtime::OpKind::Fence); ++kind) {
        lazyhb::runtime::EventRecord ev;
        ev.threadUid = uid;
        ev.indexInThread = index;
        ev.kind = static_cast<lazyhb::runtime::OpKind>(kind);
        const Hash128 label = ev.labelHash();
        lo.push_back(label.lo);
        hi.push_back(label.hi);
      }
    }
  }
  ASSERT_EQ(lo.size(), 1'114'112u);
  EXPECT_EQ(duplicateCount(lo), 0u);
  EXPECT_EQ(duplicateCount(hi), 0u);

  // The pair mixer and the order-sensitive combine on 2^20 sequential pairs.
  lo.clear();
  hi.clear();
  std::vector<std::uint64_t> combinedLo;
  std::vector<std::uint64_t> combinedHi;
  for (std::uint64_t a = 0; a < 1024; ++a) {
    for (std::uint64_t b = 0; b < 1024; ++b) {
      const Hash128 pair = hash128(a, b);
      lo.push_back(pair.lo);
      hi.push_back(pair.hi);
      const Hash128 combined = hash128(a).mixedWith(hash128(b));
      combinedLo.push_back(combined.lo);
      combinedHi.push_back(combined.hi);
    }
  }
  EXPECT_EQ(duplicateCount(lo), 0u);
  EXPECT_EQ(duplicateCount(hi), 0u);
  EXPECT_EQ(duplicateCount(combinedLo), 0u);
  EXPECT_EQ(duplicateCount(combinedHi), 0u);
}

TEST(Hash, ToHexRoundTripFormat) {
  const Hash128 h{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  EXPECT_EQ(h.toHex().size(), 32u);
  EXPECT_EQ(h.toHex(), "fedcba98765432100123456789abcdef");
}

TEST(MultisetHash, OrderIndependent) {
  MultisetHash a;
  MultisetHash b;
  const Hash128 x = hash128(1);
  const Hash128 y = hash128(2);
  const Hash128 z = hash128(3);
  a.add(x); a.add(y); a.add(z);
  b.add(z); b.add(x); b.add(y);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(MultisetHash, DuplicatesMatter) {
  MultisetHash once;
  MultisetHash twice;
  const Hash128 x = hash128(42);
  once.add(x);
  twice.add(x);
  twice.add(x);
  EXPECT_NE(once.digest(), twice.digest());  // XOR-style hashing would collide
}

TEST(MultisetHash, RemoveUndoesAdd) {
  MultisetHash acc;
  acc.add(hash128(1));
  const Hash128 before = acc.digest();
  acc.add(hash128(2));
  acc.remove(hash128(2));
  EXPECT_EQ(acc.digest(), before);
}

TEST(MultisetHash, EmptyVsNonEmpty) {
  MultisetHash empty;
  MultisetHash one;
  one.add(Hash128{0, 0});  // all-zero element still changes the count
  EXPECT_NE(empty.digest(), one.digest());
}

TEST(ThreadSet, BasicSetAlgebra) {
  ThreadSet s;
  EXPECT_TRUE(s.empty());
  s.insert(3);
  s.insert(17);
  s.insert(63);
  EXPECT_EQ(s.size(), 3);
  EXPECT_TRUE(s.contains(17));
  EXPECT_FALSE(s.contains(16));
  EXPECT_EQ(s.first(), 3);
  EXPECT_EQ(s.next(3), 17);
  EXPECT_EQ(s.next(17), 63);
  EXPECT_EQ(s.next(63), -1);
  s.erase(17);
  EXPECT_FALSE(s.contains(17));
}

TEST(ThreadSet, UnionIntersectMinus) {
  ThreadSet a = ThreadSet::single(1).unionWith(ThreadSet::single(2));
  ThreadSet b = ThreadSet::single(2).unionWith(ThreadSet::single(3));
  EXPECT_EQ(a.intersect(b), ThreadSet::single(2));
  EXPECT_EQ(a.minus(b), ThreadSet::single(1));
  EXPECT_EQ(a.unionWith(b).size(), 3);
}

TEST(ThreadSet, FirstNAndIteration) {
  const ThreadSet s = ThreadSet::firstN(5);
  EXPECT_EQ(s.size(), 5);
  std::vector<int> seen;
  for (const int tid : s) seen.push_back(tid);
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ThreadSet::firstN(64).size(), 64);
  EXPECT_TRUE(ThreadSet::firstN(0).empty());
}

TEST(ThreadSet, SizeMatchesALoopCount) {
  // Structured words (every single bit, every prefix and suffix, the
  // alternating and byte-lane masks, the extremes) and random ones.
  std::vector<std::uint64_t> words = {0, ~0ULL, 0x5555555555555555ULL,
                                      0xaaaaaaaaaaaaaaaaULL, 0x3333333333333333ULL,
                                      0x0f0f0f0f0f0f0f0fULL, 0x00ff00ff00ff00ffULL,
                                      0x0101010101010101ULL, 0x8080808080808080ULL};
  for (int b = 0; b < 64; ++b) {
    words.push_back(1ULL << b);
    words.push_back(~0ULL << b);
    words.push_back(~0ULL >> b);
  }
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) words.push_back(rng.nextU64());
  for (const std::uint64_t word : words) {
    ThreadSet set;
    int count = 0;
    for (int b = 0; b < 64; ++b) {
      if ((word >> b) & 1) {
        set.insert(b);
        ++count;
      }
    }
    ASSERT_EQ(set.raw(), word);
    EXPECT_EQ(set.size(), count) << std::hex << word;
  }
}

TEST(UndoLog, LogsFirstTouchPerEpochAndRollsBackNewestFirst) {
  UndoLog<int> log;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  EXPECT_FALSE(log.firstTouch(a));  // nothing is logged before the first mark
  const std::size_t m0 = log.mark();
  ASSERT_TRUE(log.firstTouch(a));
  log.append() = 1;
  EXPECT_FALSE(log.firstTouch(a));  // coalesces within the epoch
  ASSERT_TRUE(log.firstTouch(b));
  log.append() = 2;
  const std::size_t m1 = log.mark();
  ASSERT_TRUE(log.firstTouch(a));  // a new epoch logs `a` again
  log.append() = 3;
  EXPECT_EQ(log.size(), 3u);

  std::vector<int> undone;
  const auto collect = [&](int entry) { undone.push_back(entry); };
  log.rollBack(m1, collect);
  EXPECT_EQ(undone, std::vector<int>{3});
  EXPECT_TRUE(log.firstTouch(a));  // the rollback opened a new epoch
  log.append() = 4;
  log.rollBack(m0, collect);  // past m1: every entry above m0, newest first
  EXPECT_EQ(undone, (std::vector<int>{3, 4, 2, 1}));
  EXPECT_EQ(log.size(), 0u);

  log.clear();
  EXPECT_FALSE(log.firstTouch(b));  // cleared: off until the next mark
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(123);
  Rng b(123);
  Rng c(124);
  bool allEqual = true;
  bool anyDiffer = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.nextU64();
    allEqual = allEqual && va == b.nextU64();
    anyDiffer = anyDiffer || va != c.nextU64();
  }
  EXPECT_TRUE(allEqual);
  EXPECT_TRUE(anyDiffer);
}

TEST(Rng, BelowIsInRangeAndCoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.below(5);
    ASSERT_LT(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Table, AlignmentAndCsv) {
  Table t({"name", "count"});
  t.beginRow();
  t.cell(std::string("alpha"));
  t.cell(static_cast<std::int64_t>(42));
  t.beginRow();
  t.cell(std::string("b"));
  t.cell(static_cast<std::int64_t>(7));
  const std::string text = t.toText();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_EQ(t.toCsv(), "name,count\nalpha,42\nb,7\n");
  EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, WithCommas) {
  EXPECT_EQ(withCommas(0), "0");
  EXPECT_EQ(withCommas(999), "999");
  EXPECT_EQ(withCommas(1000), "1,000");
  EXPECT_EQ(withCommas(910007), "910,007");
  EXPECT_EQ(withCommas(1234567890), "1,234,567,890");
}

TEST(Options, ParsesIntFlagString) {
  Options options("test", "test options");
  options.addInt("limit", 100, "limit");
  options.addFlag("verbose", "verbose");
  options.addString("name", "default", "name");
  const char* argv[] = {"test", "--limit", "42", "--verbose", "--name=hello", "extra"};
  ASSERT_TRUE(options.parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(options.getInt("limit"), 42);
  EXPECT_TRUE(options.getFlag("verbose"));
  EXPECT_EQ(options.getString("name"), "hello");
  ASSERT_EQ(options.positional().size(), 1u);
  EXPECT_EQ(options.positional()[0], "extra");
}

TEST(Options, RejectsUnknownOption) {
  Options options("test", "test options");
  options.addInt("limit", 100, "limit");
  const char* argv[] = {"test", "--nope"};
  EXPECT_FALSE(options.parse(2, const_cast<char**>(argv)));
  EXPECT_TRUE(options.parseError());
}

// A value is a decimal integer in full and within the declared range: a
// numeric prefix ("12abc", "1e5", "10k") is rejected rather than
// truncated, and a value outside the range rather than wrapped.
TEST(Options, RejectsNonIntegerValue) {
  for (const char* value : {"abc", "12abc", "1e5", "10k", "", " 42", "+42", "4.0", "-1",
                            "4294967296", "9223372036854775808"}) {
    SCOPED_TRACE(value);
    Options options("test", "test options");
    options.addInt("limit", 100, "limit", 0, 4294967295);
    const char* argv[] = {"test", "--limit", value};
    testing::internal::CaptureStderr();
    EXPECT_FALSE(options.parse(3, const_cast<char**>(argv)));
    const std::string diagnostic = testing::internal::GetCapturedStderr();
    EXPECT_TRUE(options.parseError());
    EXPECT_NE(diagnostic.find("--limit expects an integer in [0, 4294967295]"),
              std::string::npos)
        << diagnostic;
    EXPECT_EQ(options.getInt("limit"), 100);
  }
  // The bounds themselves are accepted.
  for (const char* value : {"0", "4294967295"}) {
    Options options("test", "test options");
    options.addInt("limit", 100, "limit", 0, 4294967295);
    const char* argv[] = {"test", "--limit", value};
    ASSERT_TRUE(options.parse(3, const_cast<char**>(argv))) << value;
    EXPECT_EQ(std::to_string(options.getInt("limit")), value);
  }
}

TEST(Options, EqualsAndSpaceFormsAreEquivalent) {
  Options spaced("test", "test options");
  spaced.addInt("limit", 100, "limit");
  spaced.addString("name", "default", "name");
  const char* spacedArgv[] = {"test", "--limit", "42", "--name", "hello"};
  ASSERT_TRUE(spaced.parse(5, const_cast<char**>(spacedArgv)));

  Options inlined("test", "test options");
  inlined.addInt("limit", 100, "limit");
  inlined.addString("name", "default", "name");
  const char* inlinedArgv[] = {"test", "--limit=42", "--name=hello"};
  ASSERT_TRUE(inlined.parse(3, const_cast<char**>(inlinedArgv)));

  EXPECT_EQ(spaced.getInt("limit"), inlined.getInt("limit"));
  EXPECT_EQ(spaced.getString("name"), inlined.getString("name"));
}

TEST(Options, InlineValueMayContainEquals) {
  Options options("test", "test options");
  options.addString("filter", "", "filter");
  const char* argv[] = {"test", "--filter=key=value"};
  ASSERT_TRUE(options.parse(2, const_cast<char**>(argv)));
  EXPECT_EQ(options.getString("filter"), "key=value");
}

TEST(Options, FlagAcceptsInlineBoolean) {
  Options options("test", "test options");
  options.addFlag("verbose", "verbose");
  options.addFlag("quiet", "quiet");
  options.addFlag("loud", "loud");
  const char* argv[] = {"test", "--verbose=false", "--quiet=1", "--loud=true"};
  ASSERT_TRUE(options.parse(4, const_cast<char**>(argv)));
  EXPECT_FALSE(options.getFlag("verbose"));
  EXPECT_TRUE(options.getFlag("quiet"));
  EXPECT_TRUE(options.getFlag("loud"));
}

TEST(Options, FlagDoesNotConsumeFollowingArgument) {
  Options options("test", "test options");
  options.addFlag("verbose", "verbose");
  const char* argv[] = {"test", "--verbose", "positional"};
  ASSERT_TRUE(options.parse(3, const_cast<char**>(argv)));
  EXPECT_TRUE(options.getFlag("verbose"));
  ASSERT_EQ(options.positional().size(), 1u);
  EXPECT_EQ(options.positional()[0], "positional");
}

TEST(Options, MissingValueAtEndOfArgvIsAnError) {
  Options options("test", "test options");
  options.addInt("limit", 100, "limit");
  const char* argv[] = {"test", "--limit"};
  EXPECT_FALSE(options.parse(2, const_cast<char**>(argv)));
  EXPECT_TRUE(options.parseError());
}

TEST(Options, DefaultsSurviveWhenNotPassed) {
  Options options("test", "test options");
  options.addInt("limit", 100, "limit");
  options.addFlag("verbose", "verbose");
  options.addString("name", "default", "name");
  const char* argv[] = {"test"};
  ASSERT_TRUE(options.parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(options.getInt("limit"), 100);
  EXPECT_FALSE(options.getFlag("verbose"));
  EXPECT_EQ(options.getString("name"), "default");
  EXPECT_FALSE(options.parseError());
}

TEST(Options, LastOccurrenceWins) {
  Options options("test", "test options");
  options.addInt("limit", 100, "limit");
  const char* argv[] = {"test", "--limit", "1", "--limit=2"};
  ASSERT_TRUE(options.parse(4, const_cast<char**>(argv)));
  EXPECT_EQ(options.getInt("limit"), 2);
}

TEST(Options, WasSetDistinguishesDefaultsFromExplicit) {
  Options options("test", "test options");
  options.addInt("limit", 100, "limit");
  options.addFlag("verbose", "verbose");
  const char* argv[] = {"test", "--limit", "100"};
  ASSERT_TRUE(options.parse(3, const_cast<char**>(argv)));
  EXPECT_TRUE(options.wasSet("limit"));  // explicit, even if == default
  EXPECT_FALSE(options.wasSet("verbose"));
}

TEST(Options, SplitCsvStripsSpacesAndEmptyTokens) {
  EXPECT_TRUE(splitCsv("").empty());
  EXPECT_EQ(splitCsv("a"), (std::vector<std::string>{"a"}));
  EXPECT_EQ(splitCsv("a, b ,,c,"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(splitCsv(", ,"), std::vector<std::string>{});
}

TEST(Options, HelpPrintsEveryOptionAndIsNotAnError) {
  Options options("myprog", "does things");
  options.addInt("limit", 100, "the schedule budget");
  options.addFlag("verbose", "print more");
  options.addString("name", "default", "a label");
  const char* argv[] = {"myprog", "--help"};
  testing::internal::CaptureStdout();
  EXPECT_FALSE(options.parse(2, const_cast<char**>(argv)));  // caller should exit
  const std::string usage = testing::internal::GetCapturedStdout();
  EXPECT_FALSE(options.parseError());  // --help is a clean exit, not a failure
  EXPECT_NE(usage.find("myprog"), std::string::npos);
  EXPECT_NE(usage.find("does things"), std::string::npos);
  EXPECT_NE(usage.find("--limit"), std::string::npos);
  EXPECT_NE(usage.find("the schedule budget"), std::string::npos);
  EXPECT_NE(usage.find("(default 100)"), std::string::npos);
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
  EXPECT_NE(usage.find("--name"), std::string::npos);
  EXPECT_NE(usage.find("(default 'default')"), std::string::npos);
  EXPECT_NE(usage.find("--help"), std::string::npos);
}

TEST(Options, NegativeIntegerValues) {
  Options options("test", "test options");
  options.addInt("delta", 0, "delta");
  const char* argv[] = {"test", "--delta", "-5"};
  ASSERT_TRUE(options.parse(3, const_cast<char**>(argv)));
  EXPECT_EQ(options.getInt("delta"), -5);
}

TEST(JsonReader, NestingDeeperThanTheCapIsAParseError) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  std::string error;
  EXPECT_NE(JsonValue::parse(nested(JsonValue::kMaxDepth), &error), nullptr);
  EXPECT_EQ(JsonValue::parse(nested(JsonValue::kMaxDepth + 1), &error), nullptr);
  EXPECT_EQ(JsonValue::parse(std::string(1'000'000, '['), &error), nullptr);
  EXPECT_NE(error.find("nesting deeper than"), std::string::npos) << error;
}

TEST(JsonReader, NumbersOutOfRangeReadAsTheFallback) {
  std::string error;
  const auto root = JsonValue::parse(
      R"({"big": 1e30, "negative": -1, "huge": 18446744073709551615,)"
      R"( "half": 2.5, "low": -1e30})",
      &error);
  ASSERT_NE(root, nullptr) << error;
  EXPECT_EQ(root->uintAt("big", 7), 7u);
  EXPECT_EQ(root->intAt("big", 7), 7);
  EXPECT_EQ(root->intAt("low", 7), 7);
  EXPECT_EQ(root->uintAt("negative", 7), 7u);
  EXPECT_EQ(root->intAt("negative", 7), -1);
  EXPECT_EQ(root->uintAt("huge", 7), UINT64_MAX);
  EXPECT_EQ(root->intAt("huge", 7), 7);
  EXPECT_EQ(root->uintAt("half", 7), 2u);
  EXPECT_EQ(root->intAt("half", 7), 2);
}

}  // namespace
