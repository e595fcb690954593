//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "support/PipelineConfig.h"

#include <strings.h>

using namespace ace;

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
  if (strcasecmp(Spec, "auto") == 0) {
    Out = PackingStrategy::PS_Auto;
  } else if (strcasecmp(Spec, "diag") == 0) {
    Out = PackingStrategy::PS_Diag;
  } else if (strcasecmp(Spec, "bsgs") == 0) {
    Out = PackingStrategy::PS_Bsgs;
  } else if (strcasecmp(Spec, "column") == 0) {
    Out = PackingStrategy::PS_Column;
  } else {
    return false;
  }
  return true;
}
