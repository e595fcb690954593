//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ciphertext lifetimes of a compiled program: for every ciphertext value,
/// the node that reads it last. Both code generators release a value right
/// after that node runs - CkksExecutor drops it, and the emitted C calls
/// ace_ct_free - so a run holds the values still to be read instead of
/// every value the program defines (docs/memory.md, "What a run holds").
///
//===----------------------------------------------------------------------===//

#ifndef ACE_AIR_LASTUSE_H
#define ACE_AIR_LASTUSE_H

#include "air/Ir.h"

#include <vector>

namespace ace {
namespace air {

/// The last-reader table of one function. Every vector is indexed by node
/// id; a "value" is a node of Cipher or Cipher3 type.
struct LastUses {
  /// The id of the node after which a value is read no more: its last
  /// reader, or the node that produces it when nothing reads it. -1 for a
  /// node that is not a value (constants, encodes, the return).
  std::vector<int> LastReader;
  /// The ids of the values whose last read is this node, in program
  /// order, each once.
  std::vector<std::vector<int>> Released;
  /// Hoisted rotation batches: for every member, the id of the batch's
  /// first member, where the batch runs; -1 for every other node.
  std::vector<int> BatchLeader;
  /// At a batch's first member, every member in program order; empty at
  /// every other node.
  std::vector<std::vector<const IrNode *>> BatchMembers;

  /// True when \p Reader is where \p Value is read for the last time.
  bool lastReadAt(const IrNode *Value, const IrNode *Reader) const {
    return LastReader[Value->Id] == Reader->Id;
  }
  /// True when \p N is a batch member that an earlier member's batch
  /// already produced.
  bool servedByBatch(const IrNode *N) const {
    return BatchLeader[N->Id] >= 0 && BatchLeader[N->Id] != N->Id;
  }
};

/// Computes the table of \p F in program order. With \p HoistRotations,
/// the CKKS rotations of one operand, when there are two or more, form a
/// batch that runs at the first of them, as CkksExecutor serves them: the
/// batch reads the operand there and produces every member's value there,
/// so a member nothing reads is released right after the batch.
LastUses computeLastUses(const IrFunction &F, bool HoistRotations);

} // namespace air
} // namespace ace

#endif // ACE_AIR_LASTUSE_H
