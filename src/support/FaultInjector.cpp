//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjector.h"

#include "support/Env.h"

#include <cstdlib>
#include <tuple>
#include <vector>

using namespace ace;

const char *ace::faultKindName(FaultKind Kind) {
  switch (Kind) {
  case FaultKind::ScaleDrift:
    return "scale-drift";
  case FaultKind::SlotCorrupt:
    return "slot-corrupt";
  case FaultKind::TruncateChain:
    return "truncate-chain";
  case FaultKind::DropGaloisKey:
    return "drop-galois-key";
  case FaultKind::DropRelinKey:
    return "drop-relin-key";
  case FaultKind::AllocFail:
    return "alloc-fail";
  case FaultKind::ShortRead:
    return "short-read";
  case FaultKind::ShortWrite:
    return "short-write";
  case FaultKind::ChecksumCorrupt:
    return "checksum-corrupt";
  case FaultKind::BudgetExceeded:
    return "budget-exceeded";
  case FaultKind::KindCount:
    break;
  }
  return "unknown";
}

static bool kindFromName(const std::string &Name, FaultKind &Out) {
  for (unsigned I = 0; I < static_cast<unsigned>(FaultKind::KindCount); ++I) {
    FaultKind K = static_cast<FaultKind>(I);
    if (Name == faultKindName(K)) {
      Out = K;
      return true;
    }
  }
  return false;
}

FaultInjector::FaultInjector() {
  env::read(env::Setting::FaultInject,
            [this](const char *Spec) { return configure(Spec); });
}

FaultInjector &FaultInjector::instance() {
  static FaultInjector Injector;
  return Injector;
}

void FaultInjector::arm(FaultKind Kind, int Count, int SkipFirst) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Slot &S = Slots[static_cast<size_t>(Kind)];
  S.Armed = true;
  S.Skip = SkipFirst < 0 ? 0 : SkipFirst;
  S.Remaining = Count;
  recomputeAnyArmed();
}

void FaultInjector::disarm(FaultKind Kind) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Slots[static_cast<size_t>(Kind)].Armed = false;
  recomputeAnyArmed();
}

void FaultInjector::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (Slot &S : Slots)
    S = Slot();
  recomputeAnyArmed();
}

bool FaultInjector::shouldFire(FaultKind Kind) {
  if (!enabled())
    return false;
  std::lock_guard<std::mutex> Lock(Mutex);
  Slot &S = Slots[static_cast<size_t>(Kind)];
  if (!S.Armed || S.Remaining == 0)
    return false;
  if (S.Skip > 0) {
    --S.Skip;
    return false;
  }
  if (S.Remaining > 0)
    --S.Remaining;
  if (S.Remaining == 0) {
    S.Armed = false;
    recomputeAnyArmed();
  }
  ++S.Fired;
  return true;
}

size_t FaultInjector::firedCount(FaultKind Kind) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Slots[static_cast<size_t>(Kind)].Fired;
}

bool FaultInjector::configure(const std::string &Spec) {
  std::vector<std::tuple<FaultKind, int, int>> Parsed;
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    std::string Item = Spec.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    Pos = Comma == std::string::npos ? Spec.size() : Comma + 1;
    if (Item.empty())
      continue;

    int Count = 1, Skip = 0;
    std::string Name = Item;
    size_t Colon = Item.find(':');
    if (Colon != std::string::npos) {
      Name = Item.substr(0, Colon);
      char *End = nullptr;
      std::string Rest = Item.substr(Colon + 1);
      Count = static_cast<int>(std::strtol(Rest.c_str(), &End, 10));
      if (End == Rest.c_str())
        return false;
      if (*End == ':') {
        const char *SkipStr = End + 1;
        Skip = static_cast<int>(std::strtol(SkipStr, &End, 10));
        if (End == SkipStr)
          return false;
      }
      if (*End != '\0')
        return false;
    }
    FaultKind Kind;
    if (!kindFromName(Name, Kind))
      return false;
    Parsed.emplace_back(Kind, Count, Skip);
  }
  // Arm only a spec that parsed whole.
  for (auto [Kind, Count, Skip] : Parsed)
    arm(Kind, Count, Skip);
  return true;
}

void FaultInjector::recomputeAnyArmed() {
  bool Any = false;
  for (const Slot &S : Slots)
    Any = Any || (S.Armed && S.Remaining != 0);
  AnyArmed.store(Any, std::memory_order_relaxed);
}
