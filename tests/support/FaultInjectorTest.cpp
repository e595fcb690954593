//===----------------------------------------------------------------------===//
// Unit tests for the fault-injection harness (arming, skip/count
// semantics, spec parsing). The end-to-end property tests - every
// injected fault surfaces as a clean Status through the runtime - live in
// tests/fhe/FaultInjectionTest.cpp.
//===----------------------------------------------------------------------===//

#include "support/FaultInjector.h"

#include <gtest/gtest.h>

using namespace ace;

namespace {

/// Every test leaves the process-wide singleton clean.
class FaultInjectorTest : public ::testing::Test {
protected:
  void SetUp() override { FaultInjector::instance().reset(); }
  void TearDown() override { FaultInjector::instance().reset(); }
};

TEST_F(FaultInjectorTest, DisabledByDefault) {
  FaultInjector &FI = FaultInjector::instance();
  EXPECT_FALSE(FI.enabled());
  EXPECT_FALSE(FI.shouldFire(FaultKind::ScaleDrift));
  EXPECT_EQ(FI.firedCount(FaultKind::ScaleDrift), 0u);
}

TEST_F(FaultInjectorTest, FiresArmedCountThenDisarms) {
  FaultInjector &FI = FaultInjector::instance();
  FI.arm(FaultKind::DropGaloisKey, /*Count=*/2);
  EXPECT_TRUE(FI.enabled());
  EXPECT_TRUE(FI.shouldFire(FaultKind::DropGaloisKey));
  EXPECT_TRUE(FI.shouldFire(FaultKind::DropGaloisKey));
  EXPECT_FALSE(FI.shouldFire(FaultKind::DropGaloisKey));
  EXPECT_EQ(FI.firedCount(FaultKind::DropGaloisKey), 2u);
  EXPECT_FALSE(FI.enabled());
}

TEST_F(FaultInjectorTest, KindsAreIndependent) {
  FaultInjector &FI = FaultInjector::instance();
  FI.arm(FaultKind::ScaleDrift);
  EXPECT_FALSE(FI.shouldFire(FaultKind::SlotCorrupt));
  EXPECT_TRUE(FI.shouldFire(FaultKind::ScaleDrift));
}

TEST_F(FaultInjectorTest, SkipDelaysFiring) {
  FaultInjector &FI = FaultInjector::instance();
  FI.arm(FaultKind::AllocFail, /*Count=*/1, /*SkipFirst=*/2);
  EXPECT_FALSE(FI.shouldFire(FaultKind::AllocFail)); // skip 1
  EXPECT_FALSE(FI.shouldFire(FaultKind::AllocFail)); // skip 2
  EXPECT_TRUE(FI.shouldFire(FaultKind::AllocFail));  // fires
  EXPECT_FALSE(FI.shouldFire(FaultKind::AllocFail)); // exhausted
}

TEST_F(FaultInjectorTest, UnlimitedCountKeepsFiring) {
  FaultInjector &FI = FaultInjector::instance();
  FI.arm(FaultKind::DropRelinKey, /*Count=*/-1);
  for (int I = 0; I < 10; ++I)
    EXPECT_TRUE(FI.shouldFire(FaultKind::DropRelinKey));
  EXPECT_EQ(FI.firedCount(FaultKind::DropRelinKey), 10u);
  EXPECT_TRUE(FI.enabled());
}

TEST_F(FaultInjectorTest, DisarmStopsFiringButKeepsCounter) {
  FaultInjector &FI = FaultInjector::instance();
  FI.arm(FaultKind::TruncateChain, /*Count=*/-1);
  EXPECT_TRUE(FI.shouldFire(FaultKind::TruncateChain));
  FI.disarm(FaultKind::TruncateChain);
  EXPECT_FALSE(FI.shouldFire(FaultKind::TruncateChain));
  EXPECT_EQ(FI.firedCount(FaultKind::TruncateChain), 1u);
  FI.reset();
  EXPECT_EQ(FI.firedCount(FaultKind::TruncateChain), 0u);
}

TEST_F(FaultInjectorTest, ConfigureParsesSpecList) {
  FaultInjector &FI = FaultInjector::instance();
  ASSERT_TRUE(FI.configure("scale-drift,drop-galois-key:2:1"));
  EXPECT_TRUE(FI.shouldFire(FaultKind::ScaleDrift));
  EXPECT_FALSE(FI.shouldFire(FaultKind::ScaleDrift));
  EXPECT_FALSE(FI.shouldFire(FaultKind::DropGaloisKey)); // skipped
  EXPECT_TRUE(FI.shouldFire(FaultKind::DropGaloisKey));
  EXPECT_TRUE(FI.shouldFire(FaultKind::DropGaloisKey));
  EXPECT_FALSE(FI.shouldFire(FaultKind::DropGaloisKey));
}

TEST_F(FaultInjectorTest, ConfigureRejectsMalformedSpecs) {
  FaultInjector &FI = FaultInjector::instance();
  EXPECT_FALSE(FI.configure("no-such-fault"));
  EXPECT_FALSE(FI.configure("scale-drift:banana"));
  EXPECT_FALSE(FI.configure("scale-drift:1:2:3"));
  // A list with one bad item arms none of its good ones.
  EXPECT_FALSE(FI.configure("scale-drift,bogus"));
  EXPECT_FALSE(FI.shouldFire(FaultKind::ScaleDrift));
  // An empty spec is well-formed: it arms nothing.
  EXPECT_TRUE(FI.configure(""));
  EXPECT_FALSE(FI.enabled());
}

TEST_F(FaultInjectorTest, KindNamesRoundTrip) {
  EXPECT_STREQ(faultKindName(FaultKind::ScaleDrift), "scale-drift");
  EXPECT_STREQ(faultKindName(FaultKind::SlotCorrupt), "slot-corrupt");
  EXPECT_STREQ(faultKindName(FaultKind::TruncateChain), "truncate-chain");
  EXPECT_STREQ(faultKindName(FaultKind::DropGaloisKey), "drop-galois-key");
  EXPECT_STREQ(faultKindName(FaultKind::DropRelinKey), "drop-relin-key");
  EXPECT_STREQ(faultKindName(FaultKind::AllocFail), "alloc-fail");
  EXPECT_STREQ(faultKindName(FaultKind::BudgetExceeded),
               "budget-exceeded");
}

} // namespace
