//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
//
// Telemetry unit tests: counter atomicity under threads, span nesting in
// the event buffer, JSON escaping, the Chrome trace shape, health
// aggregation, and the disabled-path contract (no events, no counts).
//
//===----------------------------------------------------------------------===//

#include "support/EventLog.h"
#include "support/MetricsRegistry.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <fstream>

#include <sstream>
#include <thread>
#include <vector>

using namespace ace;
using namespace ace::telemetry;

namespace {

/// Every test runs against the process-wide singleton, so serialize state:
/// clear + enable on entry, clear + restore-disabled on exit.
class TelemetryTest : public ::testing::Test {
protected:
  void SetUp() override {
    Telemetry::instance().clear();
    Telemetry::instance().setEnabled(true);
  }
  void TearDown() override {
    Telemetry::instance().setEnabled(false);
    Telemetry::instance().clear();
  }
};

// Reports, traces and the Prometheus families key counters by name.
TEST_F(TelemetryTest, CounterNamesAreDistinct) {
  std::set<std::string> Names;
  for (size_t I = 0; I < kCounterCount; ++I) {
    std::string Name = counterName(static_cast<Counter>(I));
    EXPECT_FALSE(Name.empty()) << "counter " << I;
    EXPECT_NE(Name, "unknown") << "counter " << I;
    EXPECT_TRUE(Names.insert(Name).second) << Name;
  }
}

TEST_F(TelemetryTest, AtomicCountersUnderThreads) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < kThreads; ++T)
    Threads.emplace_back([] {
      for (uint64_t I = 0; I < kPerThread; ++I)
        Telemetry::instance().count(Counter::Rotate);
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(kThreads * kPerThread,
            Telemetry::instance().counterValue(Counter::Rotate));
}

TEST_F(TelemetryTest, DisabledPathRecordsNothing) {
  Telemetry::instance().setEnabled(false);
  {
    TraceSpan Span("test", "invisible");
    FheOpSpan Op;
    if (enabled()) // mirrors every hook site
      Op.begin(Counter::CtCtMul, 3, 1.0, 10.0);
  }
  EXPECT_EQ(0u, Telemetry::instance().eventCount());
  EXPECT_EQ(0.0, Telemetry::instance().phaseSeconds("invisible"));
  EXPECT_EQ(0u, Telemetry::instance().counterValue(Counter::CtCtMul));
  EXPECT_TRUE(Telemetry::instance().health().empty());
}

TEST_F(TelemetryTest, SpanNestingByContainment) {
  {
    TraceSpan Outer("test", "outer");
    { TraceSpan Inner("test", "inner"); }
  }
  auto Events = Telemetry::instance().eventsCopy();
  ASSERT_EQ(2u, Events.size());
  // Inner closes first, so it lands first in the buffer.
  const TraceEvent &Inner = Events[0];
  const TraceEvent &Outer = Events[1];
  EXPECT_EQ("inner", Inner.Name);
  EXPECT_EQ("outer", Outer.Name);
  // chrome://tracing infers nesting from ts/dur containment per thread.
  EXPECT_EQ(Inner.Tid, Outer.Tid);
  EXPECT_GE(Inner.TsUs, Outer.TsUs);
  EXPECT_LE(Inner.TsUs + Inner.DurUs, Outer.TsUs + Outer.DurUs + 1e-6);
}

TEST_F(TelemetryTest, PhaseSecondsAccumulateAcrossSpans) {
  { TraceSpan A("test", "phase-x"); }
  { TraceSpan B("test", "phase-x"); }
  EXPECT_GT(Telemetry::instance().phaseSeconds("phase-x"), 0.0);
  EXPECT_EQ(0.0, Telemetry::instance().phaseSeconds("phase-y"));
}

TEST_F(TelemetryTest, FheOpSpanRecordsHealthAndEvent) {
  {
    FheOpSpan Op;
    Op.begin(Counter::Rescale, /*NumQ=*/5, /*Scale=*/1024.0,
             /*NoiseBudgetBits=*/42.5);
  }
  EXPECT_EQ(1u, Telemetry::instance().counterValue(Counter::Rescale));
  auto Events = Telemetry::instance().eventsCopy();
  ASSERT_EQ(1u, Events.size());
  EXPECT_EQ("rescale", Events[0].Name);
  EXPECT_EQ(5, Events[0].Level);
  EXPECT_DOUBLE_EQ(10.0, Events[0].Log2Scale);
  EXPECT_DOUBLE_EQ(42.5, Events[0].NoiseBudgetBits);

  auto Health = Telemetry::instance().health();
  ASSERT_EQ(1u, Health.size());
  EXPECT_EQ(Counter::Rescale, Health[0].first);
  EXPECT_EQ(1u, Health[0].second.Count);
  EXPECT_EQ(5, Health[0].second.MinLevel);
  EXPECT_EQ(5, Health[0].second.MaxLevel);
  EXPECT_DOUBLE_EQ(42.5, Health[0].second.MinNoiseBudgetBits);
}

TEST_F(TelemetryTest, JsonEscape) {
  EXPECT_EQ("plain", jsonEscape("plain"));
  EXPECT_EQ("a\\\"b", jsonEscape("a\"b"));
  EXPECT_EQ("a\\\\b", jsonEscape("a\\b"));
  EXPECT_EQ("a\\nb\\tc", jsonEscape("a\nb\tc"));
  EXPECT_EQ("ctl\\u0001", jsonEscape(std::string("ctl\x01")));
}

TEST_F(TelemetryTest, ChromeTraceShape) {
  { TraceSpan Span("cat", "span \"quoted\""); }
  Telemetry::instance().count(Counter::Bootstrap);
  std::ostringstream OS;
  Telemetry::instance().writeChromeTrace(OS);
  std::string S = OS.str();
  EXPECT_NE(std::string::npos, S.find("\"traceEvents\":["));
  EXPECT_NE(std::string::npos, S.find("\"name\":\"span \\\"quoted\\\"\""));
  EXPECT_NE(std::string::npos, S.find("\"ph\":\"X\""));
  EXPECT_NE(std::string::npos, S.find("\"droppedEvents\":0"));
}

TEST_F(TelemetryTest, SinkReceivesEvents) {
  struct CountingSink : TraceSink {
    size_t Seen = 0;
    void onEvent(const TraceEvent &) override { ++Seen; }
  } Sink;
  Telemetry::instance().setSink(&Sink);
  { TraceSpan Span("test", "sinked"); }
  Telemetry::instance().setSink(nullptr);
  EXPECT_EQ(1u, Sink.Seen);
}

TEST_F(TelemetryTest, SnapshotDeltas) {
  Telemetry::instance().count(Counter::CtCtMul, 3);
  Telemetry::instance().recordSnapshot("after-three");
  Telemetry::instance().count(Counter::CtCtMul, 2);
  Telemetry::instance().recordSnapshot("after-five");
  auto Snaps = Telemetry::instance().snapshots();
  ASSERT_EQ(2u, Snaps.size());
  EXPECT_EQ("after-three", Snaps[0].first);
  EXPECT_EQ(3u, Snaps[0].second.get(Counter::CtCtMul));
  CounterSnapshot D = Snaps[1].second.deltaSince(Snaps[0].second);
  EXPECT_EQ(2u, D.get(Counter::CtCtMul));
}

TEST_F(TelemetryTest, ReportMentionsCountersAndJsonParsesShape) {
  Telemetry::instance().count(Counter::Rotate, 7);
  std::string Text = Telemetry::instance().reportString(/*Json=*/false);
  EXPECT_NE(std::string::npos, Text.find("rotate"));
  std::string Json = Telemetry::instance().reportString(/*Json=*/true);
  EXPECT_EQ('{', Json.front());
  EXPECT_NE(std::string::npos, Json.find("\"rotate\":7"));
}

TEST_F(TelemetryTest, RssSampleFoldsIntoPeak) {
  Telemetry::instance().sampleRss("rss-test");
  // Linux exposes VmRSS; elsewhere the sample is 0 and peak stays 0.
#if defined(__linux__)
  EXPECT_GT(Telemetry::instance().peakRssBytes(), 0u);
#endif
  auto Events = Telemetry::instance().eventsCopy();
  ASSERT_EQ(1u, Events.size());
  EXPECT_EQ('C', Events[0].Phase);
}

TEST_F(TelemetryTest, ThreadNamesEmitChromeMetadata) {
  std::thread([] {
    Telemetry::instance().nameThread("ace-test-worker");
    TraceSpan Span("test", "named-thread-work");
  }).join();
  std::ostringstream OS;
  Telemetry::instance().writeChromeTrace(OS);
  std::string S = OS.str();
  EXPECT_NE(std::string::npos, S.find("\"ph\":\"M\""));
  EXPECT_NE(std::string::npos, S.find("\"thread_name\""));
  EXPECT_NE(std::string::npos, S.find("ace-test-worker"));
  EXPECT_NE(std::string::npos, S.find("\"process_name\""));
}

TEST_F(TelemetryTest, RequestScopeAttributesCounterDeltas) {
  RequestContext Ctx;
  Ctx.TraceId = 0x1234;
  RequestContext Inner;
  Telemetry::instance().count(Counter::Rotate, 2); // before: unattributed
  {
    RequestScope Scope(Ctx);
    Telemetry::instance().count(Counter::Rotate, 5);
    Telemetry::instance().count(Counter::CtCtMul, 3);
    // Nested scopes save and restore the outer request.
    {
      RequestScope InnerScope(Inner);
      Telemetry::instance().count(Counter::Rescale, 1);
    }
    Telemetry::instance().count(Counter::Rotate, 1);
  }
  Telemetry::instance().count(Counter::Rotate, 7); // after: unattributed
  CounterSnapshot Delta = Ctx.opSnapshot();
  EXPECT_EQ(6u, Delta.get(Counter::Rotate));
  EXPECT_EQ(3u, Delta.get(Counter::CtCtMul));
  EXPECT_EQ(0u, Delta.get(Counter::Rescale)); // went to the inner request
  EXPECT_EQ(1u, Inner.opSnapshot().get(Counter::Rescale));
  // Global counters saw everything regardless of attribution.
  EXPECT_EQ(15u, Telemetry::instance().counterValue(Counter::Rotate));
}

TEST_F(TelemetryTest, RequestScopeCollectsSpansAndTraceIds) {
  RequestContext Ctx;
  Ctx.TraceId = 0xabcdef;
  {
    RequestScope Scope(Ctx);
    { TraceSpan Span("test", "inside-request"); }
  }
  ASSERT_EQ(1u, Ctx.Spans.size());
  EXPECT_EQ("inside-request", Ctx.Spans[0].first);
  EXPECT_GE(Ctx.Spans[0].second, 0.0);
  // The emitted event carries the owning request's trace id...
  auto Events = Telemetry::instance().eventsCopy();
  ASSERT_EQ(1u, Events.size());
  EXPECT_EQ(0xabcdefu, Events[0].Id);
  // ...and the Chrome trace renders it as a joinable arg.
  std::ostringstream OS;
  Telemetry::instance().writeChromeTrace(OS);
  EXPECT_NE(std::string::npos,
            OS.str().find("\"trace\":\"0x0000000000abcdef\""));
}

TEST_F(TelemetryTest, PrometheusExpositionCoversBuiltinsAndRegistered) {
  Telemetry::instance().count(Counter::Rotate, 4);
  {
    FheOpSpan Op;
    Op.begin(Counter::Rotate, 3, 2.0, 30.0);
  }
  metrics::MetricsRegistry &Reg = metrics::MetricsRegistry::instance();
  uint64_t GaugeId = Reg.addGauge("ace_test_gauge", "A test gauge.",
                                  "kind=\"unit\"", [] { return 42.0; });
  Histogram H;
  H.recordSeconds(0.002);
  uint64_t HistId =
      Reg.addHistogram("ace_test_seconds", "A test histogram.", "", &H);
  std::string S = Reg.prometheusString();
  Reg.remove(GaugeId);
  Reg.remove(HistId);
  EXPECT_NE(std::string::npos, S.find("# TYPE ace_ops_total counter"));
  EXPECT_NE(std::string::npos, S.find("ace_ops_total{op=\"rotate\"} 5"));
  // Satellite: dropped trace events are a first-class metric.
  EXPECT_NE(std::string::npos,
            S.find("ace_trace_dropped_events_total 0"));
  EXPECT_NE(std::string::npos,
            S.find("ace_fhe_op_seconds_bucket{op=\"rotate\",le=\"+Inf\"} 1"));
  EXPECT_NE(std::string::npos, S.find("ace_fhe_op_seconds_count"));
  EXPECT_NE(std::string::npos,
            S.find("ace_test_gauge{kind=\"unit\"} 42"));
  EXPECT_NE(std::string::npos, S.find("# TYPE ace_test_seconds histogram"));
  EXPECT_NE(std::string::npos, S.find("ace_test_seconds_count 1"));
  // After remove(), the registered families disappear.
  std::string After = Reg.prometheusString();
  EXPECT_EQ(std::string::npos, After.find("ace_test_gauge"));
}

TEST_F(TelemetryTest, EventLogRenderLineSchema) {
  obs::RequestLogEntry E;
  E.SessionId = 3;
  E.TraceId = 0xfeed;
  E.RequestId = 9;
  E.ClientTag = 12;
  E.StatusName = "ok";
  E.QueueSeconds = 0.001;
  E.ExecSeconds = 0.02;
  E.TotalSeconds = 0.021;
  E.OpDelta.Values[static_cast<size_t>(Counter::Rotate)] = 8;
  E.HasMinNoiseBudget = true;
  E.MinNoiseBudgetBits = 17.25;
  E.Spans.emplace_back("executor", 0.0195);
  E.Spans.emplace_back("executor", 0.0005); // aggregated with the first

  std::string Line = obs::EventLog::renderLine(E, /*Slow=*/false);
  EXPECT_EQ('\n', Line.back());
  for (const char *Key :
       {"\"event\":\"request\"", "\"session\":3",
        "\"trace_id\":\"0x000000000000feed\"", "\"request\":9",
        "\"client_tag\":12", "\"status\":\"ok\"", "\"queue_s\":0.001000",
        "\"exec_s\":0.020000", "\"total_s\":0.021000", "\"rotate\":8",
        "\"min_noise_budget_bits\":17.25"})
    EXPECT_NE(std::string::npos, Line.find(Key)) << Key << " in " << Line;
  EXPECT_EQ(std::string::npos, Line.find("\"slow\""));

  // The slow upgrade adds the span breakdown and a health snapshot.
  {
    FheOpSpan Op;
    Op.begin(Counter::Rescale, 4, 1.0, 21.5);
  }
  std::string Slow = obs::EventLog::renderLine(E, /*Slow=*/true);
  for (const char *Key :
       {"\"slow\":true",
        "\"spans\":{\"executor\":{\"seconds\":0.020000,\"count\":2}",
        "\"health\":{\"rescale\":{\"count\":1,\"minLevel\":4"})
    EXPECT_NE(std::string::npos, Slow.find(Key)) << Key << " in " << Slow;
}

TEST_F(TelemetryTest, EventLogWritesBoundedJsonl) {
  std::string Path = ::testing::TempDir() + "/ace_event_log_test.jsonl";
  obs::EventLog &Log = obs::EventLog::instance();
  ASSERT_TRUE(Log.open(Path).ok());
  Log.setMaxRecords(2);
  obs::RequestLogEntry E;
  E.TraceId = 0x1;
  for (int I = 0; I < 3; ++I) {
    E.RequestId = static_cast<uint64_t>(I);
    Log.record(E);
  }
  EXPECT_EQ(2u, Log.writtenCount());
  EXPECT_EQ(1u, Log.droppedCount()); // bounded: the third line is counted
  Log.close();
  Log.setMaxRecords(uint64_t(1) << 20);
  // Closed again, record() is a no-op.
  Log.record(E);
  EXPECT_EQ(2u, Log.writtenCount());

  std::ifstream IS(Path);
  std::string L1, L2, L3;
  ASSERT_TRUE(std::getline(IS, L1));
  ASSERT_TRUE(std::getline(IS, L2));
  EXPECT_FALSE(std::getline(IS, L3));
  EXPECT_NE(std::string::npos, L1.find("\"request\":0"));
  EXPECT_NE(std::string::npos, L2.find("\"request\":1"));
  std::remove(Path.c_str());
}

TEST(TimingRegistryTest, IndexedAddPreservesFirstSeenOrder) {
  TimingRegistry T;
  T.add("b", 1.0);
  T.add("a", 2.0);
  T.add("b", 3.0);
  ASSERT_EQ(2u, T.entries().size());
  EXPECT_EQ("b", T.entries()[0].first);
  EXPECT_EQ("a", T.entries()[1].first);
  EXPECT_DOUBLE_EQ(4.0, T.get("b"));
  EXPECT_DOUBLE_EQ(2.0, T.get("a"));
  EXPECT_DOUBLE_EQ(6.0, T.total());
  T.clear();
  EXPECT_TRUE(T.entries().empty());
  EXPECT_DOUBLE_EQ(0.0, T.get("b"));
  T.add("c", 1.5);
  EXPECT_DOUBLE_EQ(1.5, T.get("c"));
}

} // namespace
