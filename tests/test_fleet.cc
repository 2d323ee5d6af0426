// Fleet tests: report plumbing, the fleet determinism invariants (the
// aggregate signature is byte-identical across thread counts and across
// repeated runs, and a single-stack fleet run matches the same stack run
// standalone), and the tier-1 fleet soak slice (the >=1024-stack nightly soak
// runs behind EFEU_FLEET_SOAK; EFEU_FLEET_SEED reseeds it).

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/driver/resources.h"
#include "src/sim/fleet.h"

namespace efeu::sim {
namespace {

// ---------------------------------------------------------------------------
// Report plumbing
// ---------------------------------------------------------------------------

TEST(FleetReportUnits, HistogramBuckets) {
  EXPECT_EQ(HistogramBucket(0), 0);
  EXPECT_EQ(HistogramBucket(1), 1);
  EXPECT_EQ(HistogramBucket(2), 2);
  EXPECT_EQ(HistogramBucket(3), 3);
  EXPECT_EQ(HistogramBucket(4), 3);
  EXPECT_EQ(HistogramBucket(5), 4);
  EXPECT_EQ(HistogramBucket(8), 4);
  EXPECT_EQ(HistogramBucket(9), 5);
  EXPECT_EQ(HistogramBucket(1000), 5);
  EXPECT_STREQ(HistogramBucketLabel(3), "3-4");
}

TEST(FleetReportUnits, SoakMixCoversClassesAndModes) {
  int class_seen[kNumStackClasses] = {};
  bool irq_seen = false;
  bool polling_seen = false;
  for (int i = 0; i < 8; ++i) {
    StackConfig config = MakeSoakStack(i, 100);
    ++class_seen[static_cast<int>(config.stack_class)];
    (config.interrupt_driven ? irq_seen : polling_seen) = true;
    EXPECT_EQ(config.seed, 100u + static_cast<uint64_t>(i));
  }
  for (int c = 0; c < kNumStackClasses; ++c) {
    EXPECT_EQ(class_seen[c], 2) << StackClassName(static_cast<StackClass>(c));
  }
  EXPECT_TRUE(irq_seen);
  EXPECT_TRUE(polling_seen);
}

TEST(FleetReportUnits, EmptyFleetRunsToAnEmptyReport) {
  Fleet fleet;
  FleetReport report = fleet.Run();
  EXPECT_EQ(report.num_stacks, 0);
  EXPECT_EQ(report.events_processed, 0u);
  EXPECT_TRUE(report.failures.empty());
}

// ---------------------------------------------------------------------------
// Determinism invariants
// ---------------------------------------------------------------------------

// The determinism regression: one fixed stack list, five thread counts
// (including one that does not divide the 8 stacks and one above the stack
// count), one byte-identical aggregate signature. Stacks are isolated and the
// merge runs in stack-id order, so the worker pool must be invisible in every
// counter. A second Run() of the same Fleet rebuilds every stack and must
// reproduce the signature (checked once, at the uneven 3-thread split).
TEST(FleetDeterminism, SignatureInvariantAcrossThreadCounts) {
  std::string baseline;
  for (int threads : {1, 2, 3, 8, 16}) {
    FleetOptions options;
    options.num_threads = threads;
    Fleet fleet(options);
    for (int i = 0; i < 8; ++i) {
      fleet.AddStack(MakeSoakStack(i, /*base_seed=*/42));
    }
    FleetReport report = fleet.Run();
    EXPECT_TRUE(report.failures.empty()) << report.Format();
    if (baseline.empty()) {
      baseline = report.CounterSignature();
    } else {
      EXPECT_EQ(report.CounterSignature(), baseline)
          << "thread count " << threads << " changed the aggregate\n"
          << report.Format();
    }
    if (threads == 3) {
      EXPECT_EQ(fleet.Run().CounterSignature(), baseline)
          << "a second run of the same fleet changed the aggregate";
    }
  }
  EXPECT_NE(baseline.find("stacks=8"), std::string::npos) << baseline;
}

// A single-stack fleet must reproduce exactly what the same stack does run
// directly to completion.
TEST(FleetDeterminism, SingleStackMatchesStandaloneRun) {
  StackConfig config;
  config.stack_class = StackClass::kEeprom;
  config.seed = 7;
  StackReport standalone = RunStackStandalone(0, config);

  Fleet fleet;
  fleet.AddStack(config);
  FleetReport report = fleet.Run();
  ASSERT_EQ(report.num_stacks, 1);
  EXPECT_EQ(report.ops_completed, standalone.ops_completed);
  EXPECT_EQ(report.faults_injected, standalone.faults_injected);
  EXPECT_EQ(report.makespan_ns, standalone.finished_at_ns);
  EXPECT_EQ(driver::FormatRecoveryCounters(report.recovery),
            driver::FormatRecoveryCounters(standalone.recovery));
  EXPECT_EQ(report.worst.health, standalone.health);
}

// ---------------------------------------------------------------------------
// Fleet soak
// ---------------------------------------------------------------------------

// Tier-1 runs a 16-stack slice of the fleet soak; the nightly CI job sets
// EFEU_FLEET_SOAK for >=1024 stacks under a fresh daily base seed
// (EFEU_FLEET_SEED). Every failure block embeds the per-stack replay command.
TEST(FleetSoak, MixedFleetSoaksToQuiescence) {
  const bool full = std::getenv("EFEU_FLEET_SOAK") != nullptr;
  const int num_stacks = full ? 1024 : 16;
  uint64_t base_seed = 1;
  if (const char* env_seed = std::getenv("EFEU_FLEET_SEED")) {
    base_seed = std::strtoull(env_seed, nullptr, 10);
    if (base_seed == 0) {
      base_seed = 1;
    }
  }
  Fleet fleet;
  uint64_t expected_ops = 0;
  for (int i = 0; i < num_stacks; ++i) {
    StackConfig config = MakeSoakStack(i, base_seed);
    expected_ops += static_cast<uint64_t>(config.rounds) * 2 +
                    (config.stack_class == StackClass::kMfd ? 5 : 0);
    fleet.AddStack(config);
  }
  FleetReport report = fleet.Run();

  std::string all;
  for (const std::string& failure : report.failures) {
    all += failure + "\n---\n";
  }
  EXPECT_TRUE(report.failures.empty()) << all;
  EXPECT_EQ(report.wedged, 0) << report.Format();
  EXPECT_EQ(report.healthy + report.degraded, num_stacks);
  // One event per supervised operation.
  EXPECT_EQ(report.ops_completed, expected_ops);
  EXPECT_EQ(report.events_processed, expected_ops);
  EXPECT_GT(report.makespan_ns, 0.0);
  EXPECT_NE(report.Format().find("fleet: "), std::string::npos);
}

}  // namespace
}  // namespace efeu::sim
