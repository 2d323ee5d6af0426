// Unit tests for the support utilities: text handling, line counting,
// diagnostics rendering, hashing, the flat probe table, the visited-state
// table, reserved words; plus the checker's COLLAPSE component table, which
// is built the same way.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <thread>
#include <utility>
#include <vector>

#include "src/check/state_codec.h"
#include "src/support/diagnostics.h"
#include "src/support/hash.h"
#include "src/support/probe_table.h"
#include "src/support/reserved_words.h"
#include "src/support/source_buffer.h"
#include "src/support/state_table.h"
#include "src/support/text.h"

namespace efeu {
namespace {

TEST(Text, SplitLinesBasic) {
  auto lines = SplitLines("a\nb\nc");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[2], "c");
}

TEST(Text, SplitLinesTrailingNewline) {
  auto lines = SplitLines("a\nb\n");
  ASSERT_EQ(lines.size(), 2u);
}

TEST(Text, SplitLinesEmpty) { EXPECT_TRUE(SplitLines("").empty()); }

TEST(Text, SplitLinesBlankLinesPreserved) {
  auto lines = SplitLines("a\n\nb");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1], "");
}

TEST(Text, TrimBothEnds) { EXPECT_EQ(Trim("  \thi \n"), "hi"); }

TEST(Text, TrimAllWhitespace) { EXPECT_EQ(Trim(" \t\r\n"), ""); }

TEST(Text, StartsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

TEST(Text, CountCodeLinesSkipsBlanksAndComments) {
  const char* source =
      "// header comment\n"
      "\n"
      "int x;\n"
      "  // indented comment\n"
      "int y; // trailing comment counts as code\n";
  EXPECT_EQ(CountCodeLines(source), 2);
}

TEST(Text, CountCodeLinesBlockComments) {
  const char* source =
      "/* one\n"
      "   two\n"
      "   three */\n"
      "code;\n"
      "/* inline */ more;\n";
  EXPECT_EQ(CountCodeLines(source), 2);
}

TEST(Text, CountCodeLinesCustomLineComment) {
  EXPECT_EQ(CountCodeLines("-- vhdl comment\nsignal x;\n", "--"), 1);
}

TEST(Text, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
}

TEST(Text, CodeWriterIndentation) {
  CodeWriter writer;
  writer.Line("top {");
  {
    CodeWriter::Scope scope(writer);
    writer.Line("inner;");
  }
  writer.Line("}");
  EXPECT_EQ(writer.str(), "top {\n  inner;\n}\n");
}

TEST(Text, CodeWriterBlankNeverIndented) {
  CodeWriter writer;
  writer.Indent();
  writer.Blank();
  writer.Dedent();
  EXPECT_EQ(writer.str(), "\n");
}

TEST(SourceBuffer, LineAtMiddleLine) {
  SourceBuffer buffer("test", "first\nsecond\nthird");
  SourceLocation loc{2, 3, 8};  // inside "second"
  EXPECT_EQ(buffer.LineAt(loc), "second");
}

TEST(SourceBuffer, LineAtInvalid) {
  SourceBuffer buffer("test", "abc");
  EXPECT_EQ(buffer.LineAt(SourceLocation{}), "");
}

TEST(Diagnostics, RenderIncludesCaret) {
  SourceBuffer buffer("spec.esm", "int x = 3;");
  DiagnosticEngine diag;
  diag.Error(buffer, SourceLocation{1, 7, 6}, "no initialization");
  ASSERT_EQ(diag.error_count(), 1u);
  std::string rendered = diag.RenderAll();
  EXPECT_NE(rendered.find("spec.esm:1:7: error: no initialization"), std::string::npos);
  EXPECT_NE(rendered.find("^"), std::string::npos);
}

TEST(Diagnostics, WarningsDoNotCountAsErrors) {
  SourceBuffer buffer("b", "x");
  DiagnosticEngine diag;
  diag.Warning(buffer, SourceLocation{1, 1, 0}, "meh");
  EXPECT_FALSE(diag.HasErrors());
  EXPECT_EQ(diag.diagnostics().size(), 1u);
}

TEST(Hash, DistinctForDifferentData) {
  std::vector<int32_t> a = {1, 2, 3};
  std::vector<int32_t> b = {1, 2, 4};
  EXPECT_NE(HashWords(a), HashWords(b));
}

TEST(Hash, StableForSameData) {
  std::vector<int32_t> a = {5, 6};
  EXPECT_EQ(HashWords(a), HashWords(a));
}

// Avalanche: flipping a single input bit should flip close to half the 64
// output bits. A weak word mix (like byte-FNV folded to 64 bits) fails this
// badly for low-entropy int32 state vectors.
TEST(Hash, SingleBitAvalanche) {
  std::vector<int32_t> base = {7, -3, 1 << 20, 0, 42};
  uint64_t h0 = HashWords(base);
  for (size_t word = 0; word < base.size(); ++word) {
    for (int bit = 0; bit < 32; ++bit) {
      std::vector<int32_t> flipped = base;
      flipped[word] ^= (int32_t{1} << bit);
      uint64_t h1 = HashWords(flipped);
      int changed = std::popcount(h0 ^ h1);
      EXPECT_GE(changed, 16) << "word " << word << " bit " << bit;
      EXPECT_LE(changed, 48) << "word " << word << " bit " << bit;
    }
  }
}

TEST(Hash, LengthIsSignificant) {
  std::vector<int32_t> a = {0, 0};
  std::vector<int32_t> b = {0, 0, 0};
  EXPECT_NE(HashWords(a), HashWords(b));
}

TEST(StateTable, ClaimOnceThenDuplicate) {
  ShardedStateTable table;
  std::vector<int32_t> s1 = {1, 2, 3};
  std::vector<int32_t> s2 = {1, 2, 4};
  EXPECT_TRUE(table.WouldClaim(s1));
  EXPECT_TRUE(table.Claim(s1));
  EXPECT_FALSE(table.Claim(s1));
  EXPECT_FALSE(table.WouldClaim(s1));
  EXPECT_TRUE(table.Claim(s2));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.payload_bytes(), 2u * 3u * sizeof(int32_t));
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.WouldClaim(s1));
}

TEST(StateTable, FingerprintOnlyStoresEightBytesPerState) {
  StateTableOptions options;
  options.fingerprint_only = true;
  ShardedStateTable table(options);
  std::vector<int32_t> s1(64, 7);
  std::vector<int32_t> s2(64, 8);
  EXPECT_TRUE(table.Claim(s1));
  EXPECT_FALSE(table.Claim(s1));
  EXPECT_TRUE(table.Claim(s2));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.payload_bytes(), 16u);  // 8 bytes each, not 256.
}

TEST(StateTable, TrackProgressReadmitsLowerCredit) {
  StateTableOptions options;
  options.track_progress = true;
  ShardedStateTable table(options);
  std::vector<int32_t> s = {9, 9};
  EXPECT_TRUE(table.Claim(s, 5));
  EXPECT_FALSE(table.Claim(s, 5));   // Same credit: pruned.
  EXPECT_FALSE(table.Claim(s, 7));   // Higher credit: pruned.
  EXPECT_TRUE(table.WouldClaim(s, 3));
  EXPECT_TRUE(table.Claim(s, 3));    // Strictly lower: re-admitted.
  EXPECT_FALSE(table.Claim(s, 4));   // Minimum is now 3.
  EXPECT_EQ(table.size(), 1u);       // Still one distinct state.
}

TEST(StateTable, ConcurrentClaimsAdmitEachStateOnce) {
  StateTableOptions options;
  options.num_shards = 16;
  ShardedStateTable table(options);
  constexpr int kThreads = 8;
  constexpr int32_t kStates = 2000;
  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, &admitted] {
      for (int32_t i = 0; i < kStates; ++i) {
        std::vector<int32_t> state = {i, i * 3, i ^ 0x55};
        if (table.Claim(state)) {
          admitted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  // All threads race on the same 2000 states; each must be admitted to
  // exactly one of them.
  EXPECT_EQ(admitted.load(), kStates);
  EXPECT_EQ(table.size(), static_cast<uint64_t>(kStates));
}

TEST(Hash, ResumableStepsMatchHashWords) {
  for (size_t size : {0u, 1u, 2u, 7u, 64u, 65u}) {
    std::vector<int32_t> words(size);
    for (size_t i = 0; i < size; ++i) {
      words[i] = static_cast<int32_t>(i * 2654435761u);
    }
    size_t lanes = size / 2;
    size_t split = lanes / 3;
    uint64_t head = HashWordsLanes(HashWordsStart(size), words, 0, split);
    uint64_t resumed = HashWordsFinish(HashWordsLanes(head, words, split, lanes), words);
    EXPECT_EQ(resumed, HashWords(words)) << "size " << size;
  }
}

TEST(StateTable, ExactModeKeepsFingerprintCollisionsApart) {
  // Two distinct states handed over with the same fingerprint: exact mode
  // compares the words and stores both, fingerprint-only mode merges them.
  std::vector<int32_t> a = {1, 2, 3};
  std::vector<int32_t> b = {4, 5, 6};
  std::vector<int32_t> c = {1, 2};  // A prefix of `a`, same fingerprint too.
  constexpr uint64_t kFingerprint = 0x1234;

  ShardedStateTable exact;
  EXPECT_TRUE(exact.ClaimHashed(kFingerprint, a));
  EXPECT_TRUE(exact.WouldClaimHashed(kFingerprint, b));
  EXPECT_TRUE(exact.ClaimHashed(kFingerprint, b));
  EXPECT_TRUE(exact.ClaimHashed(kFingerprint, c));
  EXPECT_FALSE(exact.ClaimHashed(kFingerprint, a));
  EXPECT_FALSE(exact.ClaimHashed(kFingerprint, b));
  EXPECT_FALSE(exact.ClaimHashed(kFingerprint, c));
  EXPECT_EQ(exact.size(), 3u);

  StateTableOptions options;
  options.fingerprint_only = true;
  ShardedStateTable compact(options);
  EXPECT_TRUE(compact.ClaimHashed(kFingerprint, a));
  EXPECT_FALSE(compact.WouldClaimHashed(kFingerprint, b));
  EXPECT_FALSE(compact.ClaimHashed(kFingerprint, b));
  EXPECT_EQ(compact.size(), 1u);
}

// States of lengths 1..7 with distinct contents.
std::vector<int32_t> MixedLengthState(int32_t i) {
  return std::vector<int32_t>(static_cast<size_t>(1 + i % 7), i);
}

TEST(StateTable, MembershipAndCreditsSurviveRehashes) {
  // 256 initial slots, grown at half full: 5000 states force at least five
  // doublings, and the states span several arena blocks' worth of lengths.
  for (bool fingerprint_only : {false, true}) {
    StateTableOptions options;
    options.fingerprint_only = fingerprint_only;
    options.track_progress = true;
    ShardedStateTable table(options);
    constexpr int32_t kStates = 5000;
    uint64_t payload = 0;
    for (int32_t i = 0; i < kStates; ++i) {
      std::vector<int32_t> state = MixedLengthState(i);
      ASSERT_TRUE(table.Claim(state, static_cast<uint64_t>(100 + i % 10)));
      payload += (fingerprint_only ? 8 : state.size() * sizeof(int32_t)) + sizeof(uint64_t);
    }
    EXPECT_EQ(table.size(), static_cast<uint64_t>(kStates));
    EXPECT_EQ(table.payload_bytes(), payload);
    for (int32_t i = 0; i < kStates; ++i) {
      std::vector<int32_t> state = MixedLengthState(i);
      uint64_t credit = static_cast<uint64_t>(100 + i % 10);
      EXPECT_FALSE(table.WouldClaim(state, credit)) << i;
      EXPECT_TRUE(table.WouldClaim(state, credit - 1)) << i;
    }
    // A different length with the same words is a different state.
    EXPECT_TRUE(table.WouldClaim(std::vector<int32_t>(8, 0)));
    EXPECT_TRUE(table.Claim(MixedLengthState(42), 1));  // Lower credit: re-admitted.
    EXPECT_FALSE(table.Claim(MixedLengthState(42), 1));
    EXPECT_EQ(table.size(), static_cast<uint64_t>(kStates));
  }
}

TEST(StateTable, ClearThenReuse) {
  ShardedStateTable table;
  for (int round = 0; round < 3; ++round) {
    // Rounds claim overlapping ranges of different sizes: whatever a cleared
    // round stored must be gone, and the kept arena is refilled correctly.
    int32_t first = round * 100;
    int32_t count = 2000 - round * 600;
    for (int32_t i = first; i < first + count; ++i) {
      ASSERT_TRUE(table.Claim(MixedLengthState(i))) << round << " " << i;
    }
    for (int32_t i = first; i < first + count; ++i) {
      ASSERT_FALSE(table.Claim(MixedLengthState(i))) << round << " " << i;
    }
    EXPECT_TRUE(table.WouldClaim(MixedLengthState(first + count)));
    EXPECT_EQ(table.size(), static_cast<uint64_t>(count));
    table.Clear();
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.payload_bytes(), 0u);
    EXPECT_TRUE(table.WouldClaim(MixedLengthState(first)));
  }
}

TEST(CollapseTable, IdsStayDenseAndStableAcrossIndexGrowth) {
  check::CollapseTable table({3, 1});
  constexpr int32_t kComponents = 3000;  // Many index doublings.
  for (int32_t i = 0; i < kComponents; ++i) {
    std::vector<int32_t> snapshot = {i, -i, i * 7};
    EXPECT_EQ(table.Intern(0, snapshot), i);  // Ids are handed out densely.
    EXPECT_EQ(table.Intern(1, std::vector<int32_t>{i % 5}), i % 5);  // First seen in order.
  }
  EXPECT_EQ(table.components(), static_cast<uint64_t>(kComponents + 5));
  std::vector<int32_t> out(3);
  for (int32_t i = 0; i < kComponents; ++i) {
    std::vector<int32_t> snapshot = {i, -i, i * 7};
    EXPECT_EQ(table.Intern(0, snapshot), i);  // Same content, same id.
    table.Expand(0, i, out);
    EXPECT_EQ(out, snapshot);
  }
  EXPECT_EQ(table.components(), static_cast<uint64_t>(kComponents + 5));
  EXPECT_EQ(table.payload_bytes(),
            static_cast<uint64_t>(kComponents) * (3 + 1) * sizeof(int32_t) +
                5u * (1 + 1) * sizeof(int32_t));
}

TEST(CollapseTable, ConcurrentInternAndExpand) {
  // Four threads intern overlapping snapshot sets and expand every id they
  // get back; content addressing must give every thread the same ids, and
  // the ids must stay dense. Run under TSan by the sanitizer CI job.
  check::CollapseTable table({4});
  constexpr int kThreads = 4;
  constexpr int32_t kSnapshots = 4096;
  std::vector<std::vector<int32_t>> ids(kThreads, std::vector<int32_t>(kSnapshots));
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<int32_t> out(4);
      for (int32_t n = 0; n < kSnapshots; ++n) {
        // Each thread walks the set in its own order (odd strides permute
        // a power-of-two range).
        int32_t i = (n * (2 * t + 1) + t * 997) % kSnapshots;
        std::vector<int32_t> snapshot = {i, i + 1, i * 31, -i};
        int32_t id = table.Intern(0, snapshot);
        ids[static_cast<size_t>(t)][static_cast<size_t>(i)] = id;
        table.Expand(0, id, out);
        if (out != snapshot) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(table.components(), static_cast<uint64_t>(kSnapshots));
  std::vector<bool> seen(kSnapshots, false);
  for (int32_t i = 0; i < kSnapshots; ++i) {
    int32_t id = ids[0][static_cast<size_t>(i)];
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(ids[static_cast<size_t>(t)][static_cast<size_t>(i)], id) << i;
    }
    ASSERT_GE(id, 0);
    ASSERT_LT(id, kSnapshots);
    EXPECT_FALSE(seen[static_cast<size_t>(id)]) << "id " << id << " handed out twice";
    seen[static_cast<size_t>(id)] = true;
  }
}

TEST(ProbeTable, EraseKeepsCollidingRunsFindable) {
  // Homes come from the top bits, so in 16 slots fingerprint h << 60 has
  // home h. Runs that start at slots 14 and 15 wrap past the end; erasing
  // inside them must pull later entries back without stranding any.
  struct Slot {
    uint64_t fingerprint = 0;
    int value = -1;
    bool empty() const { return value < 0; }
  };
  ProbeTable<Slot> table(16);
  auto locate = [&table](uint64_t fingerprint, int value) {
    return table.Find(fingerprint, [value](const Slot& slot) { return slot.value == value; });
  };
  auto find = [&](uint64_t fingerprint, int value) {
    const Slot& slot = table[locate(fingerprint, value)];
    return slot.empty() ? -1 : slot.value;
  };
  const std::vector<std::pair<uint64_t, int>> entries = {
      {uint64_t{14} << 60, 0}, {uint64_t{15} << 60, 1}, {uint64_t{14} << 60, 2},
      {uint64_t{15} << 60, 3}, {uint64_t{0} << 60, 4},  {uint64_t{1} << 60, 5},
      {uint64_t{14} << 60, 6}};
  for (const auto& [fingerprint, value] : entries) {
    size_t i = locate(fingerprint, value);
    ASSERT_TRUE(table[i].empty());
    table.InsertAt(i, Slot{fingerprint, value});
  }
  EXPECT_EQ(table.count(), entries.size());
  for (int erased : {0, 3, 5}) {
    const auto& [fingerprint, value] = entries[static_cast<size_t>(erased)];
    table.EraseAt(locate(fingerprint, value));
    EXPECT_EQ(find(fingerprint, value), -1);
  }
  EXPECT_EQ(table.count(), entries.size() - 3);
  for (const auto& [fingerprint, value] : entries) {
    bool erased = value == 0 || value == 3 || value == 5;
    EXPECT_EQ(find(fingerprint, value), erased ? -1 : value) << "value " << value;
  }
  // Growing past half full rehashes every survivor.
  for (int value = 10; value < 20; ++value) {
    uint64_t fingerprint = static_cast<uint64_t>(value) * 0x9e3779b97f4a7c15ull;
    table.InsertAt(locate(fingerprint, value), Slot{fingerprint, value});
  }
  for (const auto& [fingerprint, value] : entries) {
    bool erased = value == 0 || value == 3 || value == 5;
    EXPECT_EQ(find(fingerprint, value), erased ? -1 : value) << "value " << value;
  }
}

TEST(ReservedWords, PromelaKeywords) {
  EXPECT_TRUE(IsPromelaReservedWord("len"));
  EXPECT_TRUE(IsPromelaReservedWord("timeout"));
  EXPECT_TRUE(IsPromelaReservedWord("active"));
  EXPECT_TRUE(IsPromelaReservedWord("mtype"));
  EXPECT_FALSE(IsPromelaReservedWord("plen"));
  EXPECT_FALSE(IsPromelaReservedWord("CSymbol"));
}

}  // namespace
}  // namespace efeu
