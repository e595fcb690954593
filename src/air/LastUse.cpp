//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "air/LastUse.h"

#include <algorithm>
#include <map>

using namespace ace;
using namespace ace::air;

static bool isValue(const IrNode *N) {
  return N->Type == TypeKind::TK_Cipher || N->Type == TypeKind::TK_Cipher3;
}

LastUses ace::air::computeLastUses(const IrFunction &F,
                                   bool HoistRotations) {
  int MaxId = -1;
  for (const auto &N : F.nodes())
    MaxId = std::max(MaxId, N->Id);
  const size_t Count = static_cast<size_t>(MaxId + 1);
  LastUses U;
  U.LastReader.assign(Count, -1);
  U.Released.assign(Count, {});
  U.BatchLeader.assign(Count, -1);
  U.BatchMembers.assign(Count, {});

  if (HoistRotations) {
    std::map<int, std::vector<const IrNode *>> ByOperand;
    for (const auto &N : F.nodes())
      if (N->Kind == NodeKind::NK_CkksRotate)
        ByOperand[N->Operands[0]->Id].push_back(N.get());
    for (auto &Group : ByOperand) {
      std::vector<const IrNode *> &Members = Group.second;
      if (Members.size() < 2)
        continue;
      for (const IrNode *M : Members)
        U.BatchLeader[M->Id] = Members.front()->Id;
      U.BatchMembers[Members.front()->Id] = std::move(Members);
    }
  }

  // Where each node runs, as a program-order position: a batch member
  // runs, and reads its operand, at the batch's first member.
  std::vector<size_t> Pos(Count, 0);
  for (size_t I = 0; I < F.nodes().size(); ++I)
    Pos[F.nodes()[I]->Id] = I;
  auto RunsAt = [&](const IrNode *N) {
    return U.BatchLeader[N->Id] >= 0 ? U.BatchLeader[N->Id] : N->Id;
  };

  // A value lives from where it is produced to its latest reader.
  for (const auto &N : F.nodes())
    if (isValue(N.get()))
      U.LastReader[N->Id] = RunsAt(N.get());
  for (const auto &N : F.nodes()) {
    int At = RunsAt(N.get());
    for (const IrNode *Op : N->Operands)
      if (isValue(Op) && Pos[At] > Pos[U.LastReader[Op->Id]])
        U.LastReader[Op->Id] = At;
  }
  for (const auto &N : F.nodes())
    if (isValue(N.get()))
      U.Released[U.LastReader[N->Id]].push_back(N->Id);
  return U;
}
