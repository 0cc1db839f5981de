// Bloom-filter tests: Eq. 2 sizing law, no-false-negative guarantee, a
// parameterized sweep verifying the realized FPR respects the configured
// target across (capacity, fp_rate) operating points, and the word-level
// operations (BloomWords: probes_for / insert_probes / contains_probes /
// gathered words) the read signature and the batched ingest drain run on.
// Every case runs BloomWords over a test-local word array, the same
// operations the read signature runs over one slot of its slab; the per-key
// insert/contains are the reference the precomputed-probe path is checked
// against.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <tuple>
#include <vector>

#include "support/bloom.hpp"

namespace cs = commscope::support;

namespace {

/// One filter's words, zero-filled, and the BloomWords view over them.
struct LocalFilter {
  explicit LocalFilter(cs::BloomParams params)
      : words(params.bits / 64), bloom(words.data(), params) {}
  LocalFilter(std::size_t capacity, double fp_rate)
      : LocalFilter(cs::bloom_params(capacity, fp_rate)) {}

  [[nodiscard]] std::size_t popcount() const {
    std::size_t n = 0;
    for (const cs::BloomWords::Word& w : words) {
      n += static_cast<std::size_t>(__builtin_popcountll(w.load()));
    }
    return n;
  }

  std::vector<cs::BloomWords::Word> words;
  cs::BloomWords bloom;
};

}  // namespace

TEST(BloomParams, MatchesEq2Formula) {
  // m = -t ln(p) / ln^2(2); the paper's reference point t=32, p=0.001
  // gives ~460 bits (rounded up to a 64-bit word multiple).
  const cs::BloomParams p = cs::bloom_params(32, 0.001);
  const double ln2 = std::log(2.0);
  const double m = -32.0 * std::log(0.001) / (ln2 * ln2);
  EXPECT_NEAR(static_cast<double>(p.bits), m, 64.0);
  EXPECT_EQ(p.bits % 64, 0u);
  // k = m/t * ln 2 ~ 10 hash functions at p = 0.001.
  EXPECT_NEAR(p.hashes, 10u, 1u);
}

TEST(BloomParams, DegenerateInputsAreClamped) {
  EXPECT_GE(cs::bloom_params(0, 0.001).bits, 64u);
  EXPECT_GE(cs::bloom_params(8, -1.0).hashes, 1u);
  EXPECT_GE(cs::bloom_params(8, 2.0).hashes, 1u);
}

TEST(BloomWords, NoFalseNegatives) {
  LocalFilter f(64, 0.01);
  for (std::uint64_t k = 0; k < 64; ++k) f.bloom.insert(k * 977 + 13);
  for (std::uint64_t k = 0; k < 64; ++k) {
    EXPECT_TRUE(f.bloom.contains(k * 977 + 13));
  }
}

TEST(BloomWords, EmptyFilterContainsNothing) {
  LocalFilter f(32, 0.001);
  EXPECT_FALSE(f.bloom.any());
  for (std::uint64_t k = 0; k < 100; ++k) EXPECT_FALSE(f.bloom.contains(k));
}

TEST(BloomWords, InsertReportsPriorMembership) {
  LocalFilter f(32, 0.001);
  EXPECT_FALSE(f.bloom.insert(7));  // first insertion: not previously present
  EXPECT_TRUE(f.bloom.insert(7));   // second: already present
}

TEST(BloomWords, ClearResets) {
  LocalFilter f(32, 0.001);
  f.bloom.insert(1);
  f.bloom.insert(2);
  ASSERT_TRUE(f.bloom.any());
  f.bloom.clear();
  EXPECT_FALSE(f.bloom.any());
  EXPECT_FALSE(f.bloom.contains(1));
  EXPECT_FALSE(f.bloom.contains(2));
  f.bloom.clear();  // clear skips zero words: idempotent on an empty filter
  EXPECT_FALSE(f.bloom.any());
}

TEST(BloomWords, SlotsOfOneArrayAreIndependentFilters) {
  // The read signature's layout: several filters back to back in one word
  // array. Each BloomWords over its own stretch must behave like a separate
  // filter with the same params, and never touch its neighbours.
  const cs::BloomParams params = cs::bloom_params(8, 0.001);
  const std::size_t per = params.bits / 64;
  std::vector<cs::BloomWords::Word> slab(3 * per);
  const cs::BloomWords mid(slab.data() + per, params);
  LocalFilter ref(params);
  for (std::uint64_t key = 0; key < 8; key += 2) {
    ASSERT_EQ(mid.insert(key), ref.bloom.insert(key));
  }
  for (std::uint64_t key = 0; key < 8; ++key) {
    EXPECT_EQ(mid.contains(key), ref.bloom.contains(key)) << "key " << key;
  }
  for (std::size_t w = 0; w < per; ++w) {
    EXPECT_EQ(slab[per + w].load(), ref.words[w].load()) << "word " << w;
    EXPECT_EQ(slab[w].load(), 0u);
    EXPECT_EQ(slab[2 * per + w].load(), 0u);
  }
  mid.clear();
  EXPECT_FALSE(mid.any());
}

// --- word-level probe paths -------------------------------------------------

TEST(BloomProbes, ProbesForDedupesWordsAndBoundsCount) {
  // Across many keys and parameter points: probe-group words must be unique
  // (the dedupe insert_probes' skip test relies on), group count bounded by
  // the hash count, and every mask nonzero and confined to in-range words.
  for (const auto& [cap, fp] : {std::pair<std::size_t, double>{8, 0.01},
                                {32, 0.001},
                                {64, 0.001}}) {
    const cs::BloomParams params = cs::bloom_params(cap, fp);
    for (std::uint64_t key = 0; key < 200; ++key) {
      cs::BloomWords::Probe probes[cs::BloomWords::kMaxProbes];
      const std::uint32_t n = cs::BloomWords::probes_for(params, key, probes);
      ASSERT_GE(n, 1u);
      ASSERT_LE(n, params.hashes);
      std::uint32_t total_bits = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        ASSERT_NE(probes[i].mask, 0u);
        ASSERT_LT(probes[i].word, params.bits / 64);
        total_bits += static_cast<std::uint32_t>(
            __builtin_popcountll(probes[i].mask));
        for (std::uint32_t j = i + 1; j < n; ++j) {
          ASSERT_NE(probes[i].word, probes[j].word) << "key " << key;
        }
      }
      // Grouped masks hold exactly the distinct probed positions.
      ASSERT_LE(total_bits, params.hashes);
    }
  }
}

TEST(BloomProbes, InsertProbesMatchesPerKeyInsertExactly) {
  // Drive two filters with the same key sequence, one through insert(), one
  // through the precomputed-probe path; state and return values must agree
  // at every step (this is the bit-identity the signature fast path assumes).
  const cs::BloomParams params = cs::bloom_params(16, 0.001);
  LocalFilter a(params);
  LocalFilter b(params);
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t key = 0; key < 16; ++key) {
      cs::BloomWords::Probe probes[cs::BloomWords::kMaxProbes];
      const std::uint32_t n = cs::BloomWords::probes_for(params, key, probes);
      ASSERT_EQ(a.bloom.insert(key), b.bloom.insert_probes(probes, n))
          << "round " << round << " key " << key;
      for (std::size_t w = 0; w < a.words.size(); ++w) {
        ASSERT_EQ(a.words[w].load(), b.words[w].load()) << "word " << w;
      }
      ASSERT_TRUE(b.bloom.contains_probes(probes, n));
      ASSERT_EQ(a.bloom.contains(key), b.bloom.contains(key));
    }
  }
}

TEST(BloomProbes, InsertProbesSecondCallTakesLoadSkipPath) {
  // The load-before-RMW skip: a fully-present probe set must still report
  // "already present" and leave the filter unchanged.
  const cs::BloomParams params = cs::bloom_params(32, 0.001);
  LocalFilter f(params);
  cs::BloomWords::Probe probes[cs::BloomWords::kMaxProbes];
  const std::uint32_t n = cs::BloomWords::probes_for(params, 5, probes);
  EXPECT_FALSE(f.bloom.insert_probes(probes, n));
  const std::size_t pop = f.popcount();
  EXPECT_TRUE(f.bloom.insert_probes(probes, n));
  EXPECT_EQ(f.popcount(), pop);
}

TEST(BloomProbes, GatheredWordsJudgeLikeContainsProbes) {
  // words_cover over a gather_probe_words snapshot is contains_probes split
  // into its load and judge halves; they must agree before and after the
  // key is present, and a snapshot taken before an insert must still judge
  // the old state (it is a pure function of the snapshot).
  const cs::BloomParams params = cs::bloom_params(16, 0.001);
  LocalFilter f(params);
  cs::BloomWords::Probe probes[cs::BloomWords::kMaxProbes];
  const std::uint32_t n = cs::BloomWords::probes_for(params, 3, probes);
  std::uint64_t words[cs::BloomWords::kMaxProbes];
  f.bloom.gather_probe_words(probes, n, words);
  EXPECT_FALSE(cs::BloomWords::words_cover(probes, words, n));
  EXPECT_EQ(cs::BloomWords::words_cover(probes, words, n),
            f.bloom.contains_probes(probes, n));
  f.bloom.insert(3);
  // Stale snapshot still judges the pre-insert state...
  EXPECT_FALSE(cs::BloomWords::words_cover(probes, words, n));
  // ...and a fresh gather agrees with contains_probes again.
  f.bloom.gather_probe_words(probes, n, words);
  EXPECT_TRUE(cs::BloomWords::words_cover(probes, words, n));
  EXPECT_TRUE(f.bloom.contains_probes(probes, n));
}

TEST(BloomProbes, ConcurrentSameFilterInsertsLoseNoKey) {
  // Concurrent insert_probes into ONE filter — the hot-slot contention shape
  // of the signature drain; run under TSan in CI. No key may be lost, and
  // the final state must equal the union of all probe masks.
  const cs::BloomParams params = cs::bloom_params(64, 0.001);
  LocalFilter f(params);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&f, &params, t] {
      cs::BloomWords::Probe probes[cs::BloomWords::kMaxProbes];
      for (int rep = 0; rep < 500; ++rep) {
        for (std::uint64_t key = static_cast<std::uint64_t>(t); key < 64;
             key += kThreads) {
          const std::uint32_t n =
              cs::BloomWords::probes_for(params, key, probes);
          f.bloom.insert_probes(probes, n);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::uint64_t key = 0; key < 64; ++key) {
    EXPECT_TRUE(f.bloom.contains(key)) << "lost key " << key;
  }
}

// Parameterized sweep: fill to capacity, then measure the false-positive
// rate on 20000 keys never inserted; it must stay within ~4x of the target
// (the standard bloom bound is asymptotic; small filters wobble).
class BloomFprSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(BloomFprSweep, RealizedFprRespectsTarget) {
  const auto [capacity, target] = GetParam();
  LocalFilter f(capacity, target);
  for (std::uint64_t k = 0; k < capacity; ++k) {
    f.bloom.insert(0xabcd0000 + k * 3);
  }
  int fp = 0;
  constexpr int kProbes = 20000;
  for (int i = 0; i < kProbes; ++i) {
    if (f.bloom.contains(0x99990000 + static_cast<std::uint64_t>(i) * 7 + 1)) {
      ++fp;
    }
  }
  const double realized = static_cast<double>(fp) / kProbes;
  EXPECT_LE(realized, std::max(4.0 * target, 8e-4))
      << "capacity=" << capacity << " target=" << target
      << " realized=" << realized;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BloomFprSweep,
    ::testing::Values(std::make_tuple(std::size_t{8}, 0.01),
                      std::make_tuple(std::size_t{16}, 0.01),
                      std::make_tuple(std::size_t{32}, 0.001),
                      std::make_tuple(std::size_t{32}, 0.01),
                      std::make_tuple(std::size_t{64}, 0.001),
                      std::make_tuple(std::size_t{64}, 0.1),
                      std::make_tuple(std::size_t{128}, 0.001)));
