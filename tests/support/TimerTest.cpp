//===----------------------------------------------------------------------===//
// Unit tests for timing utilities and byte formatting.
//===----------------------------------------------------------------------===//

#include "support/MemTrack.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

using namespace ace;

TEST(TimerTest, RegistryAccumulates) {
  TimingRegistry Reg;
  Reg.add("vector-ir", 1.5);
  Reg.add("ckks-ir", 0.5);
  Reg.add("vector-ir", 0.5);
  EXPECT_DOUBLE_EQ(Reg.get("vector-ir"), 2.0);
  EXPECT_DOUBLE_EQ(Reg.get("ckks-ir"), 0.5);
  EXPECT_DOUBLE_EQ(Reg.get("missing"), 0.0);
  EXPECT_DOUBLE_EQ(Reg.total(), 2.5);
}

TEST(TimerTest, EntriesPreserveFirstSeenOrder) {
  TimingRegistry Reg;
  Reg.add("b", 1);
  Reg.add("a", 1);
  Reg.add("b", 1);
  ASSERT_EQ(Reg.entries().size(), 2u);
  EXPECT_EQ(Reg.entries()[0].first, "b");
  EXPECT_EQ(Reg.entries()[1].first, "a");
}

TEST(TimerTest, WallTimerAdvances) {
  WallTimer T;
  volatile double Sink = 0;
  for (int I = 0; I < 100000; ++I)
    Sink += I;
  EXPECT_GT(T.seconds(), 0.0);
}

TEST(MemTrackTest, FormatBytes) {
  EXPECT_EQ(formatBytes(512), "512.0 B");
  EXPECT_EQ(formatBytes(2048), "2.0 KB");
  EXPECT_EQ(formatBytes(3 * 1024 * 1024), "3.0 MB");
}
