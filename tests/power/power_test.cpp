#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <memory>

#include "power/energy_buffer.hpp"
#include "power/manager.hpp"
#include "power/supply.hpp"
#include "support/test_dir.hpp"

namespace iprune::power {
namespace {

TEST(Supply, ConstantIsConstant) {
  ConstantSupply s(0.008);
  EXPECT_DOUBLE_EQ(s.power_w(0.0), 0.008);
  EXPECT_DOUBLE_EQ(s.power_w(1e6), 0.008);
}

TEST(Supply, PresetsMatchPaperTableI) {
  EXPECT_DOUBLE_EQ(SupplyPresets::continuous()->power_w(0), 1.65);
  EXPECT_DOUBLE_EQ(SupplyPresets::strong()->power_w(0), 8.0e-3);
  EXPECT_DOUBLE_EQ(SupplyPresets::weak()->power_w(0), 4.0e-3);
}

TEST(Supply, TraceStepsThroughSamples) {
  TraceSupply trace({1.0, 2.0, 3.0}, 0.5);
  EXPECT_DOUBLE_EQ(trace.power_w(0.1), 1.0);
  EXPECT_DOUBLE_EQ(trace.power_w(0.6), 2.0);
  EXPECT_DOUBLE_EQ(trace.power_w(1.2), 3.0);
}

TEST(Supply, TraceWrapsCyclically) {
  TraceSupply trace({1.0, 2.0}, 1.0);
  EXPECT_DOUBLE_EQ(trace.power_w(2.5), 1.0);
  EXPECT_DOUBLE_EQ(trace.power_w(3.5), 2.0);
}

TEST(Supply, TraceValidatesInput) {
  EXPECT_THROW(TraceSupply({}, 1.0), std::invalid_argument);
  EXPECT_THROW(TraceSupply({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(TraceSupply({-1.0}, 1.0), std::invalid_argument);
}

TEST(Supply, SolarDayPeaksMidday) {
  auto solar = SupplyPresets::solar_day(0.01, 1000.0);
  const double morning = solar->power_w(50.0);
  const double noon = solar->power_w(500.0);
  const double evening = solar->power_w(950.0);
  EXPECT_GT(noon, morning);
  EXPECT_GT(noon, evening);
  EXPECT_NEAR(noon, 0.01, 1e-3);
}

TEST(Supply, FromCsvParsesMilliwattsAndComments) {
  const test::TestDir tmp;
  const std::string path = tmp.file("trace.csv");
  {
    std::ofstream out(path);
    out << "# solar trace, mW\n5.0\n 2.5 # midday dip\n\n10\n";
  }
  const TraceSupply trace = TraceSupply::from_csv(path, 1.0);
  EXPECT_DOUBLE_EQ(trace.power_w(0.5), 5.0e-3);
  EXPECT_DOUBLE_EQ(trace.power_w(1.5), 2.5e-3);
  EXPECT_DOUBLE_EQ(trace.power_w(2.5), 10.0e-3);
}

TEST(Supply, FromCsvRejectsMissingAndEmptyFiles) {
  const test::TestDir tmp;
  EXPECT_THROW(TraceSupply::from_csv("/no/such/file.csv", 1.0),
               std::runtime_error);
  const std::string path = tmp.file("empty_trace.csv");
  {
    std::ofstream out(path);
    out << "# only comments\n";
  }
  EXPECT_THROW(TraceSupply::from_csv(path, 1.0), std::runtime_error);
}

TEST(Supply, FromCsvRejectsNegativeSamples) {
  const test::TestDir tmp;
  const std::string path = tmp.file("neg_trace.csv");
  {
    std::ofstream out(path);
    out << "5\n-1\n";
  }
  EXPECT_THROW(TraceSupply::from_csv(path, 1.0), std::runtime_error);
}

TEST(Supply, FromCsvRejectsNonFiniteSamples) {
  // operator>> accepts "nan"/"inf" spellings, and NaN slips past any
  // `< 0` comparison — from_csv must reject them explicitly.
  const test::TestDir tmp;
  for (const char* bad : {"5\nnan\n", "5\ninf\n", "5\n-inf\n"}) {
    const std::string path = tmp.file("nonfinite_trace.csv");
    {
      std::ofstream out(path);
      out << bad;
    }
    EXPECT_THROW(TraceSupply::from_csv(path, 1.0), std::runtime_error)
        << bad;
  }
  EXPECT_THROW(
      TraceSupply({std::numeric_limits<double>::quiet_NaN()}, 1.0),
      std::invalid_argument);
  EXPECT_THROW(TraceSupply({std::numeric_limits<double>::infinity()}, 1.0),
               std::invalid_argument);
}

TEST(Supply, FromCsvErrorNamesOffendingLine) {
  const test::TestDir tmp;
  const std::string path = tmp.file("bad_line_trace.csv");
  {
    std::ofstream out(path);
    out << "# header comment\n5\n\nnan\n";
  }
  try {
    (void)TraceSupply::from_csv(path, 1.0);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
}

TEST(Supply, FromCsvHandlesCommentOnlyAndTrailingNewlineFiles) {
  // A comment-only file has no samples: clear error, not a bogus supply.
  const test::TestDir tmp;
  const std::string empty_path = tmp.file("comment_trace.csv");
  {
    std::ofstream out(empty_path);
    out << "# a\n# b\n\n   \n";
  }
  EXPECT_THROW(TraceSupply::from_csv(empty_path, 1.0), std::runtime_error);

  // Trailing newlines (and a final line without one) must not add
  // phantom samples or drop the last real one.
  for (const char* body : {"5\n7\n", "5\n7", "5\n7\n\n\n"}) {
    const std::string path = tmp.file("newline_trace.csv");
    {
      std::ofstream out(path);
      out << body;
    }
    const TraceSupply trace = TraceSupply::from_csv(path, 1.0);
    EXPECT_DOUBLE_EQ(trace.power_w(0.5), 5.0e-3) << body;
    EXPECT_DOUBLE_EQ(trace.power_w(1.5), 7.0e-3) << body;
    EXPECT_DOUBLE_EQ(trace.power_w(2.5), 5.0e-3) << body;  // wraps: 2 samples
  }
}

TEST(Buffer, UsableEnergyMatchesCapacitorFormula) {
  EnergyBuffer buffer({.capacitance_f = 100e-6, .v_on = 2.8, .v_off = 2.4});
  // E = 1/2 * C * (v_on^2 - v_off^2) = 0.5 * 1e-4 * 2.08 = 104 uJ
  EXPECT_NEAR(buffer.usable_j(), 104e-6, 1e-9);
  EXPECT_DOUBLE_EQ(buffer.stored_j(), buffer.usable_j());
}

TEST(Buffer, RejectsInvalidConfig) {
  EXPECT_THROW(EnergyBuffer({.capacitance_f = 0.0}), std::invalid_argument);
  EXPECT_THROW(EnergyBuffer({.capacitance_f = 1e-6, .v_on = 2.0,
                             .v_off = 2.5}),
               std::invalid_argument);
}

TEST(Buffer, DepositSaturates) {
  EnergyBuffer buffer({});
  buffer.deposit(1.0);
  EXPECT_DOUBLE_EQ(buffer.stored_j(), buffer.usable_j());
}

TEST(Buffer, WithdrawBrownsOutWhenInsufficient) {
  EnergyBuffer buffer({});
  EXPECT_TRUE(buffer.withdraw(buffer.usable_j() / 2));
  EXPECT_FALSE(buffer.withdraw(buffer.usable_j()));
  EXPECT_DOUBLE_EQ(buffer.stored_j(), 0.0);
  buffer.refill();
  EXPECT_DOUBLE_EQ(buffer.stored_j(), buffer.usable_j());
}

TEST(Manager, ContinuousSupplySustainsLoad) {
  PowerManager pm(SupplyPresets::continuous(), {});
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(pm.consume(i * 1e-3, 1e-3, 50e-6));
  }
  EXPECT_EQ(pm.stats().power_failures, 0u);
}

TEST(Manager, OverDrawFailsAndCountsFailure) {
  PowerManager pm(SupplyPresets::weak(), {});
  // Draw far more than harvest replaces.
  bool failed = false;
  for (int i = 0; i < 100 && !failed; ++i) {
    failed = !pm.consume(i * 1e-4, 1e-4, 20e-6);
  }
  EXPECT_TRUE(failed);
  EXPECT_EQ(pm.stats().power_failures, 1u);
}

TEST(Manager, RechargeDurationMatchesConstantSupply) {
  PowerManager pm(SupplyPresets::strong(), {});
  // Drain completely, then recharge at 8 mW.
  (void)pm.consume(0.0, 0.0, 1.0);  // guaranteed brown-out
  const double duration = pm.recharge(0.0);
  EXPECT_NEAR(duration, 104e-6 / 8e-3, 1e-6);
  EXPECT_DOUBLE_EQ(pm.buffer().stored_j(), pm.buffer().usable_j());
  EXPECT_GT(pm.stats().off_time_s, 0.0);
}

TEST(Manager, WeakPowerRechargesSlowerThanStrong) {
  PowerManager strong(SupplyPresets::strong(), {});
  PowerManager weak(SupplyPresets::weak(), {});
  (void)strong.consume(0, 0, 1.0);
  (void)weak.consume(0, 0, 1.0);
  EXPECT_GT(weak.recharge(0.0), strong.recharge(0.0) * 1.9);
}

TEST(Manager, TraceSupplyRechargeIntegrates) {
  // 1 mW for the first second, then 10 mW: recharge started at t=0 should
  // take longer than at a constant 10 mW.
  auto trace = std::make_unique<TraceSupply>(
      std::vector<double>{1e-3, 10e-3}, 1.0);
  PowerManager pm(std::move(trace), {});
  (void)pm.consume(0, 0, 1.0);
  const double duration = pm.recharge(0.0);
  EXPECT_GT(duration, 104e-6 / 10e-3);
}

TEST(Manager, DeadSupplyThrowsOnRecharge) {
  PowerManager pm(std::make_unique<ConstantSupply>(0.0), {});
  (void)pm.consume(0, 0, 1.0);
  EXPECT_THROW((void)pm.recharge(0.0), std::runtime_error);
}

TEST(Manager, HarvestedEnergyTracked) {
  PowerManager pm(SupplyPresets::strong(), {});
  (void)pm.consume(0.0, 1.0, 1e-6);  // 1 s at 8 mW harvests 8 mJ
  EXPECT_NEAR(pm.stats().harvested_j, 8e-3, 1e-9);
  EXPECT_NEAR(pm.stats().consumed_j, 1e-6, 1e-12);
}

// --- Energy-conservation ledger ---
//
// Pinned invariant (manager.hpp): across any sequence of consume() and
// recharge() calls, organic or injected,
//   initial_stored + harvested_j == consumed_j + wasted_j + stored_j
// Drift here silently corrupts every energy figure the benches report.

double ledger_drift(const PowerManager& pm, double initial_stored) {
  return initial_stored + pm.stats().harvested_j - pm.stats().consumed_j -
         pm.stats().wasted_j - pm.buffer().stored_j();
}

/// Minimal deterministic hook: force a brown-out at one global call index.
struct FailAtCall final : FaultHook {
  explicit FailAtCall(std::uint64_t target) : target_(target) {}
  bool should_fail(FaultPoint) override { return count_++ == target_; }
  std::uint64_t target_;
  std::uint64_t count_ = 0;
};

TEST(Manager, EnergyConservationAcrossOrganicOutages) {
  PowerManager pm(SupplyPresets::weak(), {});
  const double initial = pm.buffer().stored_j();
  double t = 0.0;
  std::size_t outages = 0;
  for (int i = 0; i < 400; ++i) {
    if (!pm.consume(t, 1e-4, 2e-6)) {
      ++outages;
      t += pm.recharge(t);
    }
    t += 1e-4;
  }
  ASSERT_GT(outages, 0u);
  EXPECT_EQ(pm.stats().injected_failures, 0u);
  EXPECT_NEAR(ledger_drift(pm, initial), 0.0, 1e-12);
}

TEST(Manager, EnergyConservationAcrossInjectedOutage) {
  PowerManager pm(SupplyPresets::strong(), {});
  const double initial = pm.buffer().stored_j();
  FailAtCall hook(5);
  pm.set_fault_hook(&hook);
  double t = 0.0;
  std::size_t outages = 0;
  for (int i = 0; i < 12; ++i) {
    if (!pm.consume(t, 1e-3, 5e-6, FaultPoint::kNvmWrite)) {
      ++outages;
      t += pm.recharge(t);
    }
    t += 1e-3;
  }
  EXPECT_EQ(outages, 1u);
  EXPECT_EQ(pm.stats().injected_failures, 1u);
  EXPECT_EQ(pm.stats().power_failures, 1u);
  // The injected outage discarded residual charge as waste, not as
  // consumption: consumed_j covers exactly the 11 completed operations.
  EXPECT_NEAR(pm.stats().consumed_j, 11 * 5e-6, 1e-12);
  EXPECT_GT(pm.stats().wasted_j, 0.0);
  EXPECT_NEAR(ledger_drift(pm, initial), 0.0, 1e-12);
}

TEST(Manager, OrganicBrownOutConsumesOnlyWhatTheBufferHeld) {
  // The interrupted operation must not be double-counted: only the energy
  // the buffer actually held is consumed, the demanded remainder was
  // never delivered.
  PowerManager pm(std::make_unique<ConstantSupply>(0.0), {});
  const double initial = pm.buffer().stored_j();
  ASSERT_FALSE(pm.consume(0.0, 0.0, initial * 2));
  EXPECT_NEAR(pm.stats().consumed_j, initial, 1e-15);
  EXPECT_NEAR(ledger_drift(pm, initial), 0.0, 1e-15);
}

TEST(Manager, SteppedRechargeCountsOvershootAsWaste) {
  // Non-constant supply forces the integrating recharge path, whose final
  // step overshoots the on-threshold; the overshoot must land in
  // wasted_j, not vanish.
  auto trace = std::make_unique<TraceSupply>(
      std::vector<double>{3e-3, 7e-3}, 0.01);
  PowerManager pm(std::move(trace), {});
  const double initial = pm.buffer().stored_j();
  (void)pm.consume(0.0, 0.0, 1.0);  // guaranteed organic brown-out
  (void)pm.recharge(0.0);
  EXPECT_DOUBLE_EQ(pm.buffer().stored_j(), pm.buffer().usable_j());
  EXPECT_GT(pm.stats().wasted_j, 0.0);
  EXPECT_NEAR(ledger_drift(pm, initial), 0.0, 1e-12);
}

}  // namespace
}  // namespace iprune::power
