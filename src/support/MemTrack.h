//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte formatting and process resident-set readers for the memory
/// benches. Key-material bytes come from the executor's key store
/// (codegen::CkksExecutor::evalKeyBytes) and resident charges from the
/// ResourceGovernor.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_SUPPORT_MEMTRACK_H
#define ACE_SUPPORT_MEMTRACK_H

#include <cstddef>
#include <string>

namespace ace {

/// Formats a byte count as a human-friendly string ("12.3 MB").
std::string formatBytes(size_t Bytes);

/// Current process resident-set size in bytes (/proc/self/status VmRSS).
/// Returns 0 when the platform does not expose it.
size_t currentRssBytes();

/// Process peak resident-set size in bytes (/proc/self/status VmHWM).
/// Returns 0 when the platform does not expose it.
size_t peakRssBytes();

} // namespace ace

#endif // ACE_SUPPORT_MEMTRACK_H
