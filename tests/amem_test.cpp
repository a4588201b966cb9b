// Unit tests for the asymmetric-memory cost model substrate.
#include <gtest/gtest.h>

#include <thread>

#include "amem/asym_array.hpp"
#include "amem/counters.hpp"
#include "amem/sym_scratch.hpp"

namespace {

using namespace wecc;

class AmemTest : public ::testing::Test {
 protected:
  void SetUp() override { amem::reset(); }
};

TEST_F(AmemTest, CountersStartAtZeroAfterReset) {
  const auto s = amem::snapshot();
  EXPECT_EQ(s.reads, 0u);
  EXPECT_EQ(s.writes, 0u);
}

TEST_F(AmemTest, CountReadAndWriteAccumulate) {
  amem::count_read(3);
  amem::count_write(2);
  amem::count_read();
  const auto s = amem::snapshot();
  EXPECT_EQ(s.reads, 4u);
  EXPECT_EQ(s.writes, 2u);
}

TEST_F(AmemTest, WorkChargesOmegaPerWrite) {
  amem::Stats s{10, 7};
  EXPECT_EQ(s.work(1), 17u);
  EXPECT_EQ(s.work(16), 10u + 16u * 7u);
}

TEST_F(AmemTest, StatsDeltaArithmetic) {
  amem::Stats a{10, 4}, b{3, 1};
  EXPECT_EQ((a - b).reads, 7u);
  EXPECT_EQ((a - b).writes, 3u);
  EXPECT_EQ((a + b).reads, 13u);
}

TEST_F(AmemTest, PhaseMeasuresOnlyItsScope) {
  amem::count_write(5);
  amem::Phase phase;
  amem::count_read(2);
  amem::count_write(1);
  const auto d = phase.delta();
  EXPECT_EQ(d.reads, 2u);
  EXPECT_EQ(d.writes, 1u);
}

TEST_F(AmemTest, CountersAreExactAcrossThreads) {
  constexpr int kThreads = 8, kOps = 1000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([] {
      for (int i = 0; i < kOps; ++i) {
        amem::count_read();
        amem::count_write();
      }
    });
  }
  for (auto& t : ts) t.join();
  const auto s = amem::snapshot();
  EXPECT_EQ(s.reads, std::uint64_t(kThreads) * kOps);
  EXPECT_EQ(s.writes, std::uint64_t(kThreads) * kOps);
}

TEST_F(AmemTest, AsymArrayChargesPerAccess) {
  amem::asym_array<int> a(10);
  amem::Phase p;
  a.write(3, 42);
  EXPECT_EQ(a.read(3), 42);
  const auto d = p.delta();
  EXPECT_EQ(d.reads, 1u);
  EXPECT_EQ(d.writes, 1u);
}

TEST_F(AmemTest, AsymArrayPushBackChargesOneWrite) {
  amem::asym_array<int> a;
  amem::Phase p;
  a.push_back(1);
  a.push_back(2);
  EXPECT_EQ(p.delta().writes, 2u);
  EXPECT_EQ(a.size(), 2u);
}

TEST_F(AmemTest, AsymArrayResizeIsUncharged) {
  amem::asym_array<int> a;
  amem::Phase p;
  a.resize(1000);
  EXPECT_EQ(p.delta().writes, 0u);
}

TEST_F(AmemTest, RawAccessBypassesCounters) {
  amem::asym_array<int> a(4);
  a.write(0, 9);
  amem::Phase p;
  EXPECT_EQ(a.raw()[0], 9);
  EXPECT_EQ(p.delta().reads, 0u);
}

TEST_F(AmemTest, SymScratchTracksHighWaterMark) {
  amem::sym_reset_peak();
  {
    amem::SymScratch a(100);
    EXPECT_GE(amem::sym_peak_words(), 100);
    {
      amem::SymScratch b(50);
      EXPECT_GE(amem::sym_peak_words(), 150);
    }
    amem::SymScratch c(10);
    EXPECT_GE(amem::sym_peak_words(), 110);  // peak persists
  }
  EXPECT_GE(amem::sym_peak_words(), 150);
}

TEST_F(AmemTest, SymScratchGrow) {
  amem::sym_reset_peak();
  amem::SymScratch s(10);
  s.grow(40);
  EXPECT_GE(amem::sym_peak_words(), 50);
}

TEST_F(AmemTest, ToStringMentionsAllFields) {
  const std::string str = amem::to_string({3, 2}, 8);
  EXPECT_NE(str.find("reads=3"), std::string::npos);
  EXPECT_NE(str.find("writes=2"), std::string::npos);
  EXPECT_NE(str.find("19"), std::string::npos);  // 3 + 8*2
}

TEST_F(AmemTest, PhaseBucketsAccumulate) {
  amem::reset_phases();
  amem::accumulate_phase("alpha", {5, 2});
  amem::accumulate_phase("beta", {1, 1});
  amem::accumulate_phase("alpha", {3, 4});
  EXPECT_EQ(amem::phase_total("alpha"), (amem::Stats{8, 6}));
  EXPECT_EQ(amem::phase_total("beta"), (amem::Stats{1, 1}));
  EXPECT_EQ(amem::phase_total("missing"), (amem::Stats{0, 0}));
  const auto totals = amem::phase_totals();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0].first, "alpha");  // sorted by name
  EXPECT_EQ(totals[1].first, "beta");
  amem::reset_phases();
  EXPECT_TRUE(amem::phase_totals().empty());
}

TEST_F(AmemTest, ScopedPhaseRecordsDelta) {
  amem::reset_phases();
  {
    amem::ScopedPhase phase("scoped");
    amem::count_read(7);
    amem::count_write(2);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(amem::phase_total("scoped"), (amem::Stats{7, 2}));
  EXPECT_GE(amem::phase_ns("scoped"), 2'000'000u);  // its wall time
  EXPECT_EQ(amem::phase_ns("missing"), 0u);
}

TEST_F(AmemTest, PhaseWallTimeAccumulates) {
  amem::reset_phases();
  amem::accumulate_phase("timed", {1, 0}, 300);
  amem::accumulate_phase("timed", {1, 0}, 200);
  amem::accumulate_phase("untimed", {1, 0});
  EXPECT_EQ(amem::phase_ns("timed"), 500u);
  EXPECT_EQ(amem::phase_ns("untimed"), 0u);
  EXPECT_EQ(amem::phase_total("timed"), (amem::Stats{2, 0}));
  amem::reset_phases();
  EXPECT_EQ(amem::phase_ns("timed"), 0u);
}

}  // namespace
