//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "expert/ExpertBaseline.h"

using namespace ace;

air::CompileOptions expert::expertOptions(air::CompileOptions Base) {
  Base.EnableRotationKeyAnalysis = false;
  Base.EnableMinimalBootstrapLevel = false;
  Base.EnableRescalePlacement = false;
  return Base;
}
