//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "support/MetricsRegistry.h"

#include "support/LimbPool.h"
#include "support/ResourceGovernor.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <vector>

using namespace ace;
using namespace ace::metrics;

const double ace::metrics::kExportBoundsSeconds[] = {
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1,
    0.25, 0.5,  1.0,  2.5,  5.0,  10.0, 30.0,   60.0};
const size_t ace::metrics::kExportBoundCount =
    sizeof(kExportBoundsSeconds) / sizeof(kExportBoundsSeconds[0]);

namespace {

void writeSampleLine(std::ostream &OS, const std::string &Name,
                     const std::string &Labels, double Value) {
  char Buf[64];
  // Counters and cumulative bucket counts are integral; print them
  // without a fraction so the exposition is stable to diff.
  if (Value == static_cast<double>(static_cast<long long>(Value)))
    std::snprintf(Buf, sizeof(Buf), "%lld",
                  static_cast<long long>(Value));
  else
    std::snprintf(Buf, sizeof(Buf), "%.9g", Value);
  OS << Name;
  if (!Labels.empty())
    OS << "{" << Labels << "}";
  OS << " " << Buf << "\n";
}

std::string joinLabels(const std::string &A, const std::string &B) {
  if (A.empty())
    return B;
  if (B.empty())
    return A;
  return A + "," + B;
}

} // namespace

void ace::metrics::writeHistogramSeries(std::ostream &OS,
                                        const std::string &Name,
                                        const std::string &Labels,
                                        const Histogram::Snapshot &S) {
  for (size_t I = 0; I < kExportBoundCount; ++I) {
    char Le[64];
    std::snprintf(Le, sizeof(Le), "le=\"%.9g\"", kExportBoundsSeconds[I]);
    writeSampleLine(OS, Name + "_bucket", joinLabels(Labels, Le),
                    static_cast<double>(
                        S.cumulativeCount(kExportBoundsSeconds[I])));
  }
  writeSampleLine(OS, Name + "_bucket", joinLabels(Labels, "le=\"+Inf\""),
                  static_cast<double>(S.Count));
  writeSampleLine(OS, Name + "_sum", Labels, S.sumSeconds());
  writeSampleLine(OS, Name + "_count", Labels,
                  static_cast<double>(S.Count));
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

struct MetricsRegistry::Impl {
  struct Entry {
    enum Kind { Gauge, Counter, Hist } K = Gauge;
    std::string Name;
    std::string Help;
    std::string Labels;
    GaugeFn GFn;
    CounterFn CFn;
    const Histogram *H = nullptr;
  };

  mutable std::mutex Mutex;
  std::map<uint64_t, Entry> Entries;
  uint64_t NextId = 1;
};

MetricsRegistry::MetricsRegistry() : P(new Impl) {}

MetricsRegistry &MetricsRegistry::instance() {
  // Leaked on purpose: atexit exporters and static-destruction-order
  // races must never observe a destroyed registry.
  static MetricsRegistry *R = new MetricsRegistry();
  return *R;
}

uint64_t MetricsRegistry::addGauge(std::string Name, std::string Help,
                                   std::string Labels, GaugeFn Fn) {
  std::lock_guard<std::mutex> Lock(P->Mutex);
  uint64_t Id = P->NextId++;
  Impl::Entry &E = P->Entries[Id];
  E.K = Impl::Entry::Gauge;
  E.Name = std::move(Name);
  E.Help = std::move(Help);
  E.Labels = std::move(Labels);
  E.GFn = std::move(Fn);
  return Id;
}

uint64_t MetricsRegistry::addCounter(std::string Name, std::string Help,
                                     std::string Labels, CounterFn Fn) {
  std::lock_guard<std::mutex> Lock(P->Mutex);
  uint64_t Id = P->NextId++;
  Impl::Entry &E = P->Entries[Id];
  E.K = Impl::Entry::Counter;
  E.Name = std::move(Name);
  E.Help = std::move(Help);
  E.Labels = std::move(Labels);
  E.CFn = std::move(Fn);
  return Id;
}

uint64_t MetricsRegistry::addHistogram(std::string Name, std::string Help,
                                       std::string Labels,
                                       const Histogram *H) {
  std::lock_guard<std::mutex> Lock(P->Mutex);
  uint64_t Id = P->NextId++;
  Impl::Entry &E = P->Entries[Id];
  E.K = Impl::Entry::Hist;
  E.Name = std::move(Name);
  E.Help = std::move(Help);
  E.Labels = std::move(Labels);
  E.H = H;
  return Id;
}

void MetricsRegistry::remove(uint64_t Id) {
  std::lock_guard<std::mutex> Lock(P->Mutex);
  P->Entries.erase(Id);
}

void MetricsRegistry::writePrometheus(std::ostream &OS) const {
  telemetry::Telemetry &T = telemetry::Telemetry::instance();

  // Built-in: every telemetry counter as one family, labeled by op.
  telemetry::CounterSnapshot S = T.counters();
  OS << "# HELP ace_ops_total Process-wide telemetry counters (FHE ops, "
        "wire bytes, service request lifecycle).\n";
  OS << "# TYPE ace_ops_total counter\n";
  for (size_t I = 0; I < telemetry::kCounterCount; ++I) {
    std::string Label =
        std::string("op=\"") +
        telemetry::counterName(static_cast<telemetry::Counter>(I)) + "\"";
    writeSampleLine(OS, "ace_ops_total", Label,
                    static_cast<double>(S.Values[I]));
  }

  // Built-in: trace-buffer accounting. Silent overflow in long service
  // runs must be visible to a monitoring stack, not just the report.
  OS << "# HELP ace_trace_events_total Telemetry trace events currently "
        "buffered.\n";
  OS << "# TYPE ace_trace_events_total gauge\n";
  writeSampleLine(OS, "ace_trace_events_total", "",
                  static_cast<double>(T.eventCount()));
  OS << "# HELP ace_trace_dropped_events_total Trace events dropped on "
        "buffer overflow.\n";
  OS << "# TYPE ace_trace_dropped_events_total counter\n";
  writeSampleLine(OS, "ace_trace_dropped_events_total", "",
                  static_cast<double>(T.droppedEventCount()));

  OS << "# HELP ace_peak_rss_bytes Peak resident set size sampled by "
        "telemetry.\n";
  OS << "# TYPE ace_peak_rss_bytes gauge\n";
  writeSampleLine(OS, "ace_peak_rss_bytes", "",
                  static_cast<double>(T.peakRssBytes()));

  // Built-in: resource governor accounting (docs/memory.md). A
  // long-running server is tuned off these four families: how much of
  // the budget is charged (by category), how often admission shed work,
  // and how the limb pool / key caches behave under that budget.
  GovernorStats G = ResourceGovernor::instance().stats();
  OS << "# HELP ace_memory_budget_bytes Configured process memory "
        "budget (0 = unlimited).\n";
  OS << "# TYPE ace_memory_budget_bytes gauge\n";
  writeSampleLine(OS, "ace_memory_budget_bytes", "",
                  static_cast<double>(G.BudgetBytes));
  OS << "# HELP ace_memory_charged_bytes Bytes currently charged to the "
        "resource governor, by category.\n";
  OS << "# TYPE ace_memory_charged_bytes gauge\n";
  for (size_t I = 0;
       I < static_cast<size_t>(MemCategory::CategoryCount); ++I) {
    std::string Label = std::string("category=\"") +
                        memCategoryName(static_cast<MemCategory>(I)) +
                        "\"";
    writeSampleLine(OS, "ace_memory_charged_bytes", Label,
                    static_cast<double>(G.ChargedBytes[I]));
  }
  OS << "# HELP ace_memory_remaining_bytes Budget headroom "
        "(budget - charged; 0 when over budget or unlimited).\n";
  OS << "# TYPE ace_memory_remaining_bytes gauge\n";
  writeSampleLine(OS, "ace_memory_remaining_bytes", "",
                  G.BudgetBytes == 0
                      ? 0.0
                      : static_cast<double>(G.remainingBytes()));
  OS << "# HELP ace_memory_shed_total Admissions refused with "
        "ResourceExhausted after reclaim could not cover the charge.\n";
  OS << "# TYPE ace_memory_shed_total counter\n";
  writeSampleLine(OS, "ace_memory_shed_total", "",
                  static_cast<double>(G.Sheds));
  OS << "# HELP ace_memory_reclaimed_bytes_total Bytes recovered by "
        "governor reclaim callbacks (cold keys, pool trims).\n";
  OS << "# TYPE ace_memory_reclaimed_bytes_total counter\n";
  writeSampleLine(OS, "ace_memory_reclaimed_bytes_total", "",
                  static_cast<double>(G.ReclaimedBytes));

  LimbPoolStats PoolStats = LimbPool::instance().stats();
  OS << "# HELP ace_limb_pool_resident_bytes RNS limb blocks owned by "
        "the pool (free + in use).\n";
  OS << "# TYPE ace_limb_pool_resident_bytes gauge\n";
  writeSampleLine(OS, "ace_limb_pool_resident_bytes", "",
                  static_cast<double>(PoolStats.residentBytes()));
  OS << "# HELP ace_limb_pool_free_bytes Parked limb blocks available "
        "for reuse.\n";
  OS << "# TYPE ace_limb_pool_free_bytes gauge\n";
  writeSampleLine(OS, "ace_limb_pool_free_bytes", "",
                  static_cast<double>(PoolStats.FreeBytes));
  OS << "# HELP ace_limb_pool_acquires_total Limb block acquisitions, "
        "split by whether a parked block was reused.\n";
  OS << "# TYPE ace_limb_pool_acquires_total counter\n";
  writeSampleLine(OS, "ace_limb_pool_acquires_total", "kind=\"hit\"",
                  static_cast<double>(PoolStats.Hits));
  writeSampleLine(OS, "ace_limb_pool_acquires_total", "kind=\"miss\"",
                  static_cast<double>(PoolStats.Misses));

  OS << "# HELP ace_key_cache_requests_total Rotation-key cache "
        "lookups across all sessions, split by hit/miss.\n";
  OS << "# TYPE ace_key_cache_requests_total counter\n";
  writeSampleLine(OS, "ace_key_cache_requests_total", "kind=\"hit\"",
                  static_cast<double>(G.KeyCacheHits));
  writeSampleLine(OS, "ace_key_cache_requests_total", "kind=\"miss\"",
                  static_cast<double>(G.KeyCacheMisses));
  OS << "# HELP ace_key_cache_evictions_total Rotation keys dropped by "
        "LRU/budget/idle eviction (regenerated on next use).\n";
  OS << "# TYPE ace_key_cache_evictions_total counter\n";
  writeSampleLine(OS, "ace_key_cache_evictions_total", "",
                  static_cast<double>(G.KeyCacheEvictions));
  OS << "# HELP ace_key_cache_hit_ratio Hits / (hits + misses) since "
        "process start; 0 before any lookup.\n";
  OS << "# TYPE ace_key_cache_hit_ratio gauge\n";
  uint64_t Lookups = G.KeyCacheHits + G.KeyCacheMisses;
  writeSampleLine(OS, "ace_key_cache_hit_ratio", "",
                  Lookups == 0 ? 0.0
                               : static_cast<double>(G.KeyCacheHits) /
                                     static_cast<double>(Lookups));

  // Built-in: run metadata as a constant-1 info gauge, labels from the
  // telemetry metadata map (the runtime stamps poly_backend there when
  // it selects a kernel path - docs/kernels.md). Omitted entirely when
  // nothing was stamped so expositions from metadata-free processes
  // stay unchanged.
  auto Meta = T.metadata();
  if (!Meta.empty()) {
    OS << "# HELP ace_build_info Constant run metadata (selected kernel "
          "backend, ...); value is always 1.\n";
    OS << "# TYPE ace_build_info gauge\n";
    std::string Labels;
    for (const auto &[Key, Value] : Meta) {
      if (!Labels.empty())
        Labels += ",";
      Labels += Key + "=\"" + Value + "\"";
    }
    writeSampleLine(OS, "ace_build_info", Labels, 1.0);
  }

  // Built-in: per-FHE-op latency histograms (only ops that ran; an
  // all-zero histogram for every taxonomy slot would triple the
  // exposition for no information).
  bool WroteOpHeader = false;
  for (size_t I = 0; I < telemetry::kCounterCount; ++I) {
    const Histogram &H =
        T.opLatency(static_cast<telemetry::Counter>(I));
    if (H.count() == 0)
      continue;
    if (!WroteOpHeader) {
      OS << "# HELP ace_fhe_op_seconds Wall time per traced FHE "
            "primitive.\n";
      OS << "# TYPE ace_fhe_op_seconds histogram\n";
      WroteOpHeader = true;
    }
    std::string Label =
        std::string("op=\"") +
        telemetry::counterName(static_cast<telemetry::Counter>(I)) + "\"";
    writeHistogramSeries(OS, "ace_fhe_op_seconds", Label, H.snapshot());
  }

  // Registered metrics, grouped by family so # TYPE headers are emitted
  // once per name (map iteration orders by id; collect names first).
  std::vector<Impl::Entry> Entries;
  {
    std::lock_guard<std::mutex> Lock(P->Mutex);
    Entries.reserve(P->Entries.size());
    for (const auto &KV : P->Entries)
      Entries.push_back(KV.second);
  }
  std::stable_sort(Entries.begin(), Entries.end(),
                   [](const Impl::Entry &A, const Impl::Entry &B) {
                     return A.Name < B.Name;
                   });
  std::string LastFamily;
  for (const Impl::Entry &E : Entries) {
    if (E.Name != LastFamily) {
      const char *Type = E.K == Impl::Entry::Gauge
                             ? "gauge"
                             : E.K == Impl::Entry::Counter ? "counter"
                                                           : "histogram";
      OS << "# HELP " << E.Name << " " << E.Help << "\n";
      OS << "# TYPE " << E.Name << " " << Type << "\n";
      LastFamily = E.Name;
    }
    switch (E.K) {
    case Impl::Entry::Gauge:
      writeSampleLine(OS, E.Name, E.Labels, E.GFn ? E.GFn() : 0.0);
      break;
    case Impl::Entry::Counter:
      writeSampleLine(OS, E.Name, E.Labels,
                      static_cast<double>(E.CFn ? E.CFn() : 0));
      break;
    case Impl::Entry::Hist:
      if (E.H)
        writeHistogramSeries(OS, E.Name, E.Labels, E.H->snapshot());
      break;
    }
  }
}

std::string MetricsRegistry::prometheusString() const {
  std::ostringstream OS;
  writePrometheus(OS);
  return OS.str();
}

Status MetricsRegistry::writePrometheusFile(const std::string &Path) const {
  std::ofstream OS(Path);
  if (!OS)
    return Status::error("metrics: cannot write exposition file '" + Path +
                         "'");
  writePrometheus(OS);
  return Status::success();
}
