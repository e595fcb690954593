//===----------------------------------------------------------------------===//
// IR infrastructure tests: node construction, dialect classification,
// verifier acceptance/rejection, printing, layouts.
//===----------------------------------------------------------------------===//

#include "air/Ir.h"
#include "air/Layout.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace ace;
using namespace ace::air;

namespace {

TEST(IrTest, DialectClassification) {
  EXPECT_EQ(dialectOf(NodeKind::NK_NnConv), DialectKind::DK_Nn);
  EXPECT_EQ(dialectOf(NodeKind::NK_VecRoll), DialectKind::DK_Vector);
  EXPECT_EQ(dialectOf(NodeKind::NK_SiheMul), DialectKind::DK_Sihe);
  EXPECT_EQ(dialectOf(NodeKind::NK_CkksBootstrap), DialectKind::DK_Ckks);
  EXPECT_EQ(dialectOf(NodeKind::NK_Input), DialectKind::DK_Common);
}

TEST(IrTest, KindNamesFollowPaperConvention) {
  EXPECT_STREQ(nodeKindName(NodeKind::NK_CkksMul), "CKKS.mul");
  EXPECT_STREQ(nodeKindName(NodeKind::NK_VecRoll), "VECTOR.roll");
  EXPECT_STREQ(nodeKindName(NodeKind::NK_SiheEncode), "SIHE.encode");
}

IrFunction makeGemvLike() {
  // The paper's Listing 3 shape: rotate -> mul(encode) -> add.
  IrFunction F("linear_infer");
  IrNode *X = F.addInput("image", TypeKind::TK_Cipher);
  IrNode *R = F.create(NodeKind::NK_SiheRotate, TypeKind::TK_Cipher, {X});
  R->Ints = {1};
  IrNode *C = F.create(NodeKind::NK_ConstVec, TypeKind::TK_Vector);
  C->Data = {1.0, 2.0};
  IrNode *E = F.create(NodeKind::NK_SiheEncode, TypeKind::TK_Plain, {C});
  IrNode *M = F.create(NodeKind::NK_SiheMul, TypeKind::TK_Cipher, {R, E});
  IrNode *A = F.create(NodeKind::NK_SiheAdd, TypeKind::TK_Cipher, {M, M});
  F.setReturn(A);
  return F;
}

TEST(IrTest, VerifierAcceptsWellFormed) {
  IrFunction F = makeGemvLike();
  EXPECT_TRUE(verifyFunction(F).ok());
  EXPECT_TRUE(verifyFunction(F, {DialectKind::DK_Sihe}).ok());
}

TEST(IrTest, VerifierRejectsWrongDialect) {
  IrFunction F = makeGemvLike();
  Status S = verifyFunction(F, {DialectKind::DK_Ckks});
  EXPECT_FALSE(S.ok());
  EXPECT_NE(S.message().find("dialect"), std::string::npos);
}

TEST(IrTest, VerifierRejectsUseBeforeDef) {
  IrFunction F("bad");
  IrNode *X = F.addInput("x", TypeKind::TK_Cipher);
  // Manually create a forward reference by reordering operands.
  IrNode *A = F.create(NodeKind::NK_SiheAdd, TypeKind::TK_Cipher, {X, X});
  IrNode *R = F.create(NodeKind::NK_SiheRotate, TypeKind::TK_Cipher, {X});
  R->Ints = {1};
  A->Operands[1] = R; // now %A uses %R defined later
  F.setReturn(A);
  EXPECT_FALSE(verifyFunction(F).ok());
}

TEST(IrTest, VerifierChecksCkksTypes) {
  IrFunction F("ckks");
  IrNode *X = F.addInput("x", TypeKind::TK_Cipher);
  // ct*ct must produce Cipher3.
  IrNode *M = F.create(NodeKind::NK_CkksMul, TypeKind::TK_Cipher, {X, X});
  F.setReturn(M);
  EXPECT_FALSE(verifyFunction(F).ok());

  IrFunction G("ckks2");
  IrNode *Y = G.addInput("x", TypeKind::TK_Cipher);
  IrNode *M2 =
      G.create(NodeKind::NK_CkksMul, TypeKind::TK_Cipher3, {Y, Y});
  IrNode *Rl = G.create(NodeKind::NK_CkksRelin, TypeKind::TK_Cipher, {M2});
  G.setReturn(Rl);
  EXPECT_TRUE(verifyFunction(G).ok());
}

TEST(IrTest, PrinterEmitsPaperStyleMnemonics) {
  IrFunction F = makeGemvLike();
  std::string Text = printFunction(F);
  EXPECT_NE(Text.find("SIHE.rotate"), std::string::npos);
  EXPECT_NE(Text.find("SIHE.encode"), std::string::npos);
  EXPECT_NE(Text.find("\"image\""), std::string::npos);
  EXPECT_NE(Text.find("retv"), std::string::npos);
}

// A dump identifies every attribute: a changed weight shows in the
// constant's checksum and a changed scalar or scale in its round-trip
// digits, so byte-identical dumps mean identical programs.
TEST(IrTest, PrinterShowsEveryWeightAndScalar) {
  IrFunction F("weights");
  IrNode *X = F.addInput("x", TypeKind::TK_Cipher);
  IrNode *C = F.create(NodeKind::NK_ConstVec, TypeKind::TK_Vector);
  C->Data = {1.0, 2.0};
  IrNode *E = F.create(NodeKind::NK_SiheEncode, TypeKind::TK_Plain, {C});
  IrNode *M = F.create(NodeKind::NK_SiheMul, TypeKind::TK_Cipher, {X, E});
  M->CkksLevel = 2;
  M->CkksScale = std::ldexp(1.0, 45);
  IrNode *S = F.create(NodeKind::NK_SiheMulConst, TypeKind::TK_Cipher, {M});
  S->Scalar = 0.1;
  F.setReturn(S);
  const std::string Base = printFunction(F);
  EXPECT_NE(Base.find("data<2 crc32c="), std::string::npos) << Base;
  EXPECT_NE(Base.find("scalar=0.10000000000000001"), std::string::npos)
      << Base;

  // One weight one ulp away changes the dump; restoring it restores it.
  C->Data[1] = std::nextafter(2.0, 3.0);
  EXPECT_NE(printFunction(F), Base);
  C->Data[1] = 2.0;
  EXPECT_EQ(printFunction(F), Base);

  // Changes below six significant digits show too.
  S->Scalar = 0.1 + 1e-12;
  EXPECT_NE(printFunction(F), Base);
  S->Scalar = 0.1;
  M->CkksScale *= 1.0 + 1e-9;
  EXPECT_NE(printFunction(F), Base);
}

TEST(IrTest, CountDialectAndRenumber) {
  IrFunction F = makeGemvLike();
  EXPECT_EQ(F.countDialect(DialectKind::DK_Sihe), 4u);
  EXPECT_EQ(F.countDialect(DialectKind::DK_Ckks), 0u);
  F.renumber();
  int Expected = 0;
  for (const auto &N : F.nodes())
    EXPECT_EQ(N->Id, Expected++);
}

TEST(LayoutTest, SlotMapping) {
  CipherLayout L;
  L.C0 = 4;
  L.H0 = 4;
  L.W0 = 4;
  L.C = 3;
  L.H = 4;
  L.W = 4;
  EXPECT_EQ(L.slotCount(), 64u);
  EXPECT_EQ(L.channelStride(), 16u);
  EXPECT_EQ(L.slotOf(0, 0, 0), 0u);
  EXPECT_EQ(L.slotOf(2, 1, 3), 2 * 16 + 4 + 3u);
}

TEST(LayoutTest, StrideDilation) {
  CipherLayout L;
  L.C0 = 2;
  L.H0 = 4;
  L.W0 = 4;
  L.C = 2;
  L.H = 4;
  L.W = 4;
  CipherLayout D = L.afterStride(2);
  EXPECT_EQ(D.H, 2u);
  EXPECT_EQ(D.W, 2u);
  EXPECT_EQ(D.StrideH, 2u);
  // Logical (0,1,1) now sits at the dilated position.
  EXPECT_EQ(D.slotOf(0, 1, 1), 2u * 4 + 2);
  EXPECT_FALSE(D.sameGrid(L));
}

} // namespace
