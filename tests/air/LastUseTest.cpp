//===----------------------------------------------------------------------===//
// Last-reader analysis tests: on a hand-built CKKS function, each value is
// released after the node that reads it last, once, including a diamond, a
// node that reads one value twice, a value nothing reads and the return;
// hoisting moves a rotation batch's reads and results to its first member.
//===----------------------------------------------------------------------===//

#include "air/LastUse.h"

#include <gtest/gtest.h>

using namespace ace;
using namespace ace::air;

namespace {

/// The hand-built program and its named nodes.
struct Program {
  IrFunction F{"last_use"};
  IrNode *X, *A, *B, *C, *D, *R1, *K, *E, *M, *R2, *R3, *S;
};

/// x -> (a, b) -> c = a + b -> d = c + c -> three rotations of d, of which
/// r1 feeds a plaintext product, r2 the sum, and r3 nothing.
void build(Program &P) {
  IrFunction &F = P.F;
  P.X = F.addInput("x", TypeKind::TK_Cipher);
  P.A = F.create(NodeKind::NK_CkksMulConst, TypeKind::TK_Cipher, {P.X});
  P.B = F.create(NodeKind::NK_CkksAddConst, TypeKind::TK_Cipher, {P.X});
  P.C = F.create(NodeKind::NK_CkksAdd, TypeKind::TK_Cipher, {P.A, P.B});
  P.D = F.create(NodeKind::NK_CkksAdd, TypeKind::TK_Cipher, {P.C, P.C});
  P.R1 = F.create(NodeKind::NK_CkksRotate, TypeKind::TK_Cipher, {P.D});
  P.R1->Ints = {1};
  P.K = F.create(NodeKind::NK_ConstVec, TypeKind::TK_Vector);
  P.K->Data = {1.0, 2.0};
  P.E = F.create(NodeKind::NK_CkksEncode, TypeKind::TK_Plain, {P.K});
  P.M = F.create(NodeKind::NK_CkksMul, TypeKind::TK_Cipher, {P.R1, P.E});
  P.R2 = F.create(NodeKind::NK_CkksRotate, TypeKind::TK_Cipher, {P.D});
  P.R2->Ints = {2};
  P.R3 = F.create(NodeKind::NK_CkksRotate, TypeKind::TK_Cipher, {P.D});
  P.R3->Ints = {3};
  P.S = F.create(NodeKind::NK_CkksAdd, TypeKind::TK_Cipher, {P.M, P.R2});
  F.setReturn(P.S);
}

std::vector<int> ids(std::initializer_list<const IrNode *> Nodes) {
  std::vector<int> Out;
  for (const IrNode *N : Nodes)
    Out.push_back(N->Id);
  return Out;
}

TEST(LastUseTest, EachValueIsReleasedAfterItsLastReader) {
  Program P;
  build(P);
  ASSERT_TRUE(verifyFunction(P.F, {DialectKind::DK_Ckks}).ok());
  LastUses U = computeLastUses(P.F, /*HoistRotations=*/false);
  const IrNode *Ret = P.F.nodes().back().get();
  ASSERT_EQ(Ret->Kind, NodeKind::NK_Return);

  // The diamond: x dies at its second reader, a and b at their join.
  EXPECT_EQ(U.LastReader[P.X->Id], P.B->Id);
  EXPECT_EQ(U.LastReader[P.A->Id], P.C->Id);
  EXPECT_EQ(U.LastReader[P.B->Id], P.C->Id);
  EXPECT_EQ(U.Released[P.C->Id], ids({P.A, P.B}));
  // c + c reads c twice and releases it once.
  EXPECT_EQ(U.LastReader[P.C->Id], P.D->Id);
  EXPECT_EQ(U.Released[P.D->Id], ids({P.C}));
  // Unhoisted, every rotation reads d itself; r3, which nothing reads,
  // dies where it is produced, together with d.
  EXPECT_EQ(U.LastReader[P.D->Id], P.R3->Id);
  EXPECT_EQ(U.LastReader[P.R3->Id], P.R3->Id);
  EXPECT_EQ(U.Released[P.R3->Id], ids({P.D, P.R3}));
  EXPECT_EQ(U.Released[P.R1->Id], std::vector<int>{});
  EXPECT_EQ(U.LastReader[P.R1->Id], P.M->Id);
  EXPECT_EQ(U.LastReader[P.R2->Id], P.S->Id);
  // The return is the result's last reader.
  EXPECT_EQ(U.LastReader[P.S->Id], Ret->Id);
  EXPECT_EQ(U.Released[Ret->Id], ids({P.S}));
  // Constants, encodes and the return are not values.
  EXPECT_EQ(U.LastReader[P.K->Id], -1);
  EXPECT_EQ(U.LastReader[P.E->Id], -1);
  EXPECT_EQ(U.LastReader[Ret->Id], -1);
  for (const auto &N : P.F.nodes()) {
    EXPECT_EQ(U.BatchLeader[N->Id], -1);
    EXPECT_FALSE(U.servedByBatch(N.get()));
  }

  // Every value is released exactly once.
  std::vector<int> Count(U.LastReader.size(), 0);
  for (const auto &Ids : U.Released)
    for (int Id : Ids)
      ++Count[Id];
  for (const auto &N : P.F.nodes())
    EXPECT_EQ(Count[N->Id], U.LastReader[N->Id] >= 0 ? 1 : 0)
        << "%" << N->Id;
}

TEST(LastUseTest, OneBatchServesARotationGroupAtItsFirstMember) {
  Program P;
  build(P);
  LastUses U = computeLastUses(P.F, /*HoistRotations=*/true);

  EXPECT_EQ(U.BatchMembers[P.R1->Id],
            (std::vector<const IrNode *>{P.R1, P.R2, P.R3}));
  for (const IrNode *Member : {P.R1, P.R2, P.R3})
    EXPECT_EQ(U.BatchLeader[Member->Id], P.R1->Id);
  EXPECT_FALSE(U.servedByBatch(P.R1));
  EXPECT_TRUE(U.servedByBatch(P.R2));
  EXPECT_TRUE(U.servedByBatch(P.R3));
  EXPECT_EQ(U.BatchLeader[P.D->Id], -1);

  // The batch reads d for the last time, and r3, which nothing reads,
  // dies as soon as the batch produces it; r2 lives until its reader.
  EXPECT_EQ(U.LastReader[P.D->Id], P.R1->Id);
  EXPECT_EQ(U.LastReader[P.R3->Id], P.R1->Id);
  EXPECT_EQ(U.Released[P.R1->Id], ids({P.D, P.R3}));
  EXPECT_EQ(U.Released[P.R2->Id], std::vector<int>{});
  EXPECT_EQ(U.Released[P.R3->Id], std::vector<int>{});
  EXPECT_EQ(U.LastReader[P.R2->Id], P.S->Id);
  EXPECT_EQ(U.Released[P.S->Id], ids({P.M, P.R2}));

  // A lone rotation is no batch.
  IrFunction G("lone");
  IrNode *Y = G.addInput("y", TypeKind::TK_Cipher);
  IrNode *R = G.create(NodeKind::NK_CkksRotate, TypeKind::TK_Cipher, {Y});
  R->Ints = {1};
  G.setReturn(R);
  LastUses V = computeLastUses(G, /*HoistRotations=*/true);
  EXPECT_EQ(V.BatchLeader[R->Id], -1);
  EXPECT_TRUE(V.BatchMembers[R->Id].empty());
  EXPECT_EQ(V.LastReader[Y->Id], R->Id);
}

} // namespace
