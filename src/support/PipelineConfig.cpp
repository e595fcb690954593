//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "support/PipelineConfig.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace ace;

namespace {

bool equalsIgnoreCase(const char *A, const char *B) {
  for (; *A && *B; ++A, ++B)
    if ((*A | 0x20) != (*B | 0x20))
      return false;
  return *A == *B;
}

void warnOnce(const char *Var, const char *Value, const char *Want) {
  static std::atomic<bool> Warned{false};
  if (Warned.exchange(true))
    return;
  std::fprintf(stderr, "ace: ignoring unknown %s='%s' (want %s)\n", Var,
               Value, Want);
}

} // namespace

const char *ace::packingStrategyName(PackingStrategy Strategy) {
  switch (Strategy) {
  case PackingStrategy::PS_Auto:
    return "auto";
  case PackingStrategy::PS_Diag:
    return "diag";
  case PackingStrategy::PS_Bsgs:
    return "bsgs";
  case PackingStrategy::PS_Column:
    return "column";
  }
  return "auto";
}

bool ace::parsePackingStrategy(const char *Spec, PackingStrategy &Out) {
  if (!Spec)
    return false;
  if (equalsIgnoreCase(Spec, "auto")) {
    Out = PackingStrategy::PS_Auto;
  } else if (equalsIgnoreCase(Spec, "diag")) {
    Out = PackingStrategy::PS_Diag;
  } else if (equalsIgnoreCase(Spec, "bsgs")) {
    Out = PackingStrategy::PS_Bsgs;
  } else if (equalsIgnoreCase(Spec, "column")) {
    Out = PackingStrategy::PS_Column;
  } else {
    return false;
  }
  return true;
}

PackingStrategy ace::resolvePackingStrategy(PackingStrategy Option) {
  if (Option != PackingStrategy::PS_Auto)
    return Option;
  if (const char *Env = std::getenv("ACE_PACKING")) {
    PackingStrategy Parsed;
    if (parsePackingStrategy(Env, Parsed))
      return Parsed;
    if (*Env)
      warnOnce("ACE_PACKING", Env, "auto|diag|bsgs|column");
  }
  return PackingStrategy::PS_Auto;
}
