//===----------------------------------------------------------------------===//
// Tests for the runtime settings module (support/Env.h). One table lists
// every ACE_* variable with each documented spelling and one malformed
// value. Each row runs in a fresh process - a threadsafe-style death test
// re-executes this binary with the row's variable set - so process-start
// and first-use reads happen exactly as in a real program. An accepted
// spelling takes effect silently; a malformed one keeps the builtin
// default and prints exactly one `ace: ignoring` line, although the
// child reads the variable twice wherever its subsystem allows.
//===----------------------------------------------------------------------===//

#include "support/Env.h"

#include "fhe/PolyBackend.h"
#include "support/EventLog.h"
#include "support/FaultInjector.h"
#include "support/LimbPool.h"
#include "support/ResourceGovernor.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace ace;
using env::Setting;

namespace {

/// One spelling of one variable.
struct Row {
  Setting Var;
  std::string Value;
  bool Accepted;
  /// Runs in the child: true when the value took effect (for a rejected
  /// value: when the builtin default is still in place).
  std::function<bool()> Holds;
  /// For the exit writers: the file the child must leave behind in the
  /// working directory, and a string it must contain.
  std::string File = "", FileText = "";
};

/// Names each ctest instance after its row ("ACE_THREADS=4x").
void PrintTo(const Row &R, std::ostream *OS) {
  *OS << env::name(R.Var) << "=" << R.Value;
}

std::vector<Row> rows() {
  auto Threads = [](size_t N) {
    return [N] {
      ThreadPool &Pool = ThreadPool::instance(); // first use reads it
      bool AtFirstUse = Pool.numThreads() == N;
      (void)Pool.setNumThreads(0); // and 0 re-reads it
      return AtFirstUse && Pool.numThreads() == N;
    };
  };
  auto Backend = [](std::string Name) {
    return [Name] { return fhe::activePolyBackendName() == Name; };
  };
  auto Pool = [](bool On) {
    return [On] {
      return LimbPool::instance().enabled() == On &&
             env::readSwitch(Setting::LimbPool, true) == On;
    };
  };
  auto Budget = [](size_t Bytes) {
    return [Bytes] {
      return ResourceGovernor::instance().budgetBytes() == Bytes;
    };
  };
  auto Faults = [](bool Armed) {
    return [Armed] { return FaultInjector::instance().enabled() == Armed; };
  };
  auto Collecting = [](bool On) {
    return [On] { return telemetry::enabled() == On; };
  };
  auto Logging = [](bool On) {
    return [On] {
      return obs::EventLog::instance().enabled() == On &&
             telemetry::enabled() == On;
    };
  };
  auto Slow = [](double Seconds) {
    return [Seconds] {
      return obs::EventLog::instance().slowThresholdSeconds() == Seconds;
    };
  };
  const bool Simd = fhe::simdPolyBackendSupported();
  const std::string Auto = Simd ? "simd" : "scalar";
  return {
      {Setting::Threads, "1", true, Threads(1)},
      {Setting::Threads, "4", true, Threads(4)},
      {Setting::Threads, "999999", true, Threads(256)},
      {Setting::Threads, "4x", false, Threads(1)},
      {Setting::PolyBackend, "scalar", true, Backend("scalar")},
      // On a host without vector kernels "simd" is rejected like a typo.
      {Setting::PolyBackend, "simd", Simd, Backend(Auto)},
      {Setting::PolyBackend, "auto", true, Backend(Auto)},
      {Setting::PolyBackend, "vector", false, Backend(Auto)},
      {Setting::LimbPool, "1", true, Pool(true)},
      {Setting::LimbPool, "0", true, Pool(false)},
      {Setting::LimbPool, "on", true, Pool(true)},
      {Setting::LimbPool, "OFF", true, Pool(false)},
      {Setting::LimbPool, "true", true, Pool(true)},
      {Setting::LimbPool, "false", true, Pool(false)},
      {Setting::LimbPool, "no", false, Pool(true)},
      {Setting::MemoryBudget, "0", true, Budget(0)},
      {Setting::MemoryBudget, "4096", true, Budget(4096)},
      {Setting::MemoryBudget, "64k", true, Budget(64u << 10)},
      {Setting::MemoryBudget, "512M", true, Budget(512u << 20)},
      {Setting::MemoryBudget, "2g", true, Budget(size_t(2) << 30)},
      {Setting::MemoryBudget, "12q", false, Budget(0)},
      {Setting::FaultInject, "scale-drift", true, Faults(true)},
      {Setting::FaultInject, "drop-galois-key:2:1,alloc-fail", true,
       Faults(true)},
      {Setting::FaultInject, "scale-drift,bogus", false, Faults(false)},
      {Setting::Trace, "ace_env_trace.json", true, Collecting(true),
       "ace_env_trace.json", "traceEvents"},
      {Setting::Telemetry, "1", true, Collecting(true)},
      {Setting::Telemetry, "On", true, Collecting(true)},
      {Setting::Telemetry, "true", true, Collecting(true)},
      {Setting::Telemetry, "0", true, Collecting(false)},
      {Setting::Telemetry, "off", true, Collecting(false)},
      {Setting::Telemetry, "FALSE", true, Collecting(false)},
      {Setting::Telemetry, "maybe", false, Collecting(false)},
      {Setting::Metrics, "ace_env_metrics.prom", true, Collecting(true),
       "ace_env_metrics.prom", "ace_ops_total"},
      {Setting::EventLog, "ace_env_events.jsonl", true, Logging(true),
       "ace_env_events.jsonl", ""},
      {Setting::EventLog, "ace-no-such-dir/events.jsonl", false,
       Logging(false)},
      {Setting::SlowRequestSeconds, "0.25", true, Slow(0.25)},
      {Setting::SlowRequestSeconds, "2", true, Slow(2.0)},
      {Setting::SlowRequestSeconds, "0", true, Slow(0.0)},
      {Setting::SlowRequestSeconds, "fast", false, Slow(0.0)},
  };
}

/// \p Text as a POSIX extended regex matching itself.
std::string escapeRegex(const std::string &Text) {
  std::string Out;
  for (char C : Text) {
    if (std::string("\\.^$|()[]{}*+?").find(C) != std::string::npos)
      Out += '\\';
    Out += C;
  }
  return Out;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Clears every ACE_* setting while a row runs (the CI matrix runs the
/// suite under ACE_THREADS and ACE_POLY_BACKEND) and restores the
/// caller's values afterwards.
class EnvSpellingTest : public ::testing::TestWithParam<Row> {
protected:
  void SetUp() override {
    for (unsigned I = 0; I < static_cast<unsigned>(Setting::Count); ++I) {
      const char *Name = env::name(static_cast<Setting>(I));
      if (const char *V = std::getenv(Name))
        Saved.emplace_back(Name, V);
      unsetenv(Name);
    }
  }
  void TearDown() override {
    for (const auto &[Name, V] : Saved)
      setenv(Name.c_str(), V.c_str(), 1);
  }

private:
  std::vector<std::pair<std::string, std::string>> Saved;
};

TEST_P(EnvSpellingTest, TakesEffectOrWarnsOnce) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Row &R = GetParam();
  const std::string Name = env::name(R.Var);
  if (!R.File.empty())
    std::remove(R.File.c_str());
  setenv(Name.c_str(), R.Value.c_str(), 1);
  const std::string Stderr =
      R.Accepted ? "^$"
                 : "^ace: ignoring " + Name + "='" + escapeRegex(R.Value) +
                       "' \\(want [^\n]*\\)\n$";
  EXPECT_EXIT(std::exit(R.Holds() ? 0 : 1), ::testing::ExitedWithCode(0),
              Stderr);
  if (!R.File.empty()) {
    EXPECT_NE(slurp(R.File).find(R.FileText), std::string::npos) << R.File;
  }
}

INSTANTIATE_TEST_SUITE_P(EveryVariable, EnvSpellingTest,
                         ::testing::ValuesIn(rows()));

TEST(EnvTest, RowsCoverEverySetting) {
  std::set<Setting> Covered;
  std::set<Setting> Rejected;
  for (const Row &R : rows()) {
    Covered.insert(R.Var);
    if (!R.Accepted)
      Rejected.insert(R.Var);
  }
  EXPECT_EQ(Covered.size(), static_cast<size_t>(Setting::Count));
  // Every variable that can be malformed has a malformed row; a trace or
  // metrics path is only ever opened at exit.
  EXPECT_EQ(Rejected.size(), static_cast<size_t>(Setting::Count) - 2);
}

TEST(EnvTest, ThreadCountSpecParsing) {
  const char *Saved = std::getenv("ACE_THREADS");
  const std::string Restore = Saved ? Saved : "";
  const std::pair<const char *, size_t> Cases[] = {
      {"", 1},   {"not-a-number", 1}, {"0", 1},  {"-4", 1},   {"-2", 1},
      {"4x", 1}, {"1", 1},            {"8", 8},  {"999999", 256}};
  for (const auto &[Spec, Want] : Cases) {
    setenv("ACE_THREADS", Spec, 1);
    EXPECT_EQ(env::threadCount(), Want) << "ACE_THREADS='" << Spec << "'";
  }
  unsetenv("ACE_THREADS");
  EXPECT_EQ(env::threadCount(), 1u);
  if (Saved)
    setenv("ACE_THREADS", Restore.c_str(), 1);
}

} // namespace
