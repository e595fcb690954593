//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "support/MemTrack.h"

#include <cstdio>
#include <cstring>

using namespace ace;

std::string ace::formatBytes(size_t Bytes) {
  const char *Units[] = {"B", "KB", "MB", "GB", "TB"};
  double Value = static_cast<double>(Bytes);
  int Unit = 0;
  while (Value >= 1024.0 && Unit < 4) {
    Value /= 1024.0;
    ++Unit;
  }
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "%.1f %s", Value, Units[Unit]);
  return Buffer;
}

namespace {

/// Reads a "<Key>:  <kB> kB" line from /proc/self/status; 0 if absent.
size_t readProcStatusKb(const char *Key) {
#if defined(__linux__)
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  size_t KeyLen = std::strlen(Key);
  char Line[256];
  size_t Kb = 0;
  while (std::fgets(Line, sizeof(Line), F)) {
    if (std::strncmp(Line, Key, KeyLen) == 0 && Line[KeyLen] == ':') {
      unsigned long long Value = 0;
      if (std::sscanf(Line + KeyLen + 1, "%llu", &Value) == 1)
        Kb = static_cast<size_t>(Value);
      break;
    }
  }
  std::fclose(F);
  return Kb;
#else
  (void)Key;
  return 0;
#endif
}

} // namespace

size_t ace::currentRssBytes() { return readProcStatusKb("VmRSS") * 1024; }

size_t ace::peakRssBytes() { return readProcStatusKb("VmHWM") * 1024; }
