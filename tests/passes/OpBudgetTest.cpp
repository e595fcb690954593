//===----------------------------------------------------------------------===//
// Op-count contract tests for the rescale/relinearize placement policies
// (docs/compiler.md). The budgets below are exact: any change to lowering
// or placement legality that moves an op count must update these numbers
// deliberately, with the reasoning in the commit. The eager-vs-lazy
// deltas are the PR's headline claim (>=20% fewer rescale+relin ops on
// the MLP zoo model).
//===----------------------------------------------------------------------===//

#include "codegen/CkksExecutor.h"
#include "driver/AceCompiler.h"
#include "nn/ModelZoo.h"
#include "passes/SiheToCkks.h"
#include "support/Rng.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <iterator>

using namespace ace;

namespace {

std::vector<nn::Tensor> randomInputs(const std::vector<int64_t> &Shape,
                                     int Count, uint64_t Seed) {
  Rng R(Seed);
  std::vector<nn::Tensor> Out;
  for (int I = 0; I < Count; ++I) {
    nn::Tensor T;
    T.Shape = Shape;
    T.Values.resize(T.elementCount());
    for (auto &V : T.Values)
      V = static_cast<float>(R.uniformReal(-1.0, 1.0));
    Out.push_back(std::move(T));
  }
  return Out;
}

/// Compiles \p M under lazy or eager placement. Every gemm lowers to one
/// BSGS mat_diag, so the budgets are functions of the placement policy
/// alone.
std::unique_ptr<driver::CompileResult>
compileWithMode(const onnx::Model &M, const std::vector<nn::Tensor> &Inputs,
                bool Lazy) {
  air::CompileOptions Opt;
  Opt.EnableRescalePlacement = Lazy;
  driver::AceCompiler Compiler(Opt);
  auto R = Compiler.compile(M, Inputs);
  EXPECT_TRUE(R.ok()) << R.status().message();
  if (!R.ok())
    return nullptr;
  return R.take();
}

struct Budgets {
  air::CkksOpBudget Eager, Lazy;
};

Budgets budgetsOf(const onnx::Model &M,
                  const std::vector<nn::Tensor> &Inputs) {
  Budgets B;
  auto E = compileWithMode(M, Inputs, /*Lazy=*/false);
  auto L = compileWithMode(M, Inputs, /*Lazy=*/true);
  if (E)
    B.Eager = E->State.Budget;
  if (L)
    B.Lazy = L->State.Budget;
  return B;
}

/// What one ReLU (VectorToSihe's expandRelu at the default composite
/// step count, 3) adds to a budget. Each step is 5 ct-ct products (t^2,
/// (c1 t) t^2, (c3 t) t^2, t^4 and t^4 (c2 t + c3 t^3)) and 4 scalar
/// products, and the final x (1/2 + p/2) is one more ct-ct product.
/// Eager placement relinearizes every product; lazy placement
/// relinearizes (c1 t) t^2 only inside the step's final sum, so it pays
/// 4 per step plus the final product.
struct ReluOps {
  static constexpr size_t Steps = air::CompileOptions{}.ReluSignIterations;
  static constexpr size_t CtCt = 5 * Steps + 1;
  static constexpr size_t Scalar = 4 * Steps;
  static constexpr size_t LazyRelin = 4 * Steps + 1;
};

// The MLP zoo model of the acceptance criterion: {64,48,32,10}, seed 7.
TEST(OpBudgetTest, MlpBudgetsAreExactPerMode) {
  onnx::Model M = nn::buildMlp({64, 48, 32, 10}, 7);
  Budgets B = budgetsOf(M, randomInputs({1, 64}, 2, 7));
  constexpr size_t Relus = 2;

  // Rescale counts are the policy's whole story; everything else is
  // invariant across modes (same graph, same Need analysis).
  EXPECT_EQ(B.Eager.Rescale, 225u);
  EXPECT_EQ(B.Lazy.Rescale, 60u);

  // Eager relinearizes once per ct-ct product; lazy fuses a sum of
  // products into one relinearization and, by canonical forwarding,
  // never relinearizes per consumer.
  EXPECT_EQ(B.Eager.Relinearize, Relus * ReluOps::CtCt);
  EXPECT_EQ(B.Lazy.Relinearize, Relus * ReluOps::LazyRelin);

  // The eager reference keeps its unmemoized level drops.
  EXPECT_EQ(B.Eager.ModSwitch, 20u);

  // Mode-invariant counters pin the rest of the lowering: the three
  // gemms' rotations and mask products, plus the ReLUs. Encryption
  // carries both ReLUs within the 25-prime chain, so none is
  // bootstrapped.
  for (const air::CkksOpBudget *Budget : {&B.Eager, &B.Lazy}) {
    EXPECT_EQ(Budget->Rotate, 40u);
    EXPECT_EQ(Budget->CtCtMul, Relus * ReluOps::CtCt);
    EXPECT_EQ(Budget->CtPtMul, 169u + Relus * ReluOps::Scalar);
    EXPECT_EQ(Budget->Bootstrap, 0u);
  }

  // The acceptance criterion: lazy placement removes >=20% of the
  // rescale+relin work relative to eager (measured: 86 vs 257, 67%).
  size_t EagerTotal = B.Eager.Rescale + B.Eager.Relinearize;
  size_t LazyTotal = B.Lazy.Rescale + B.Lazy.Relinearize;
  EXPECT_LE(LazyTotal * 5, EagerTotal * 4)
      << "lazy " << LazyTotal << " vs eager " << EagerTotal;
}

// The LeNet-shaped model exercises the channel-mode (conv) path where
// pools and convolutions generate wide mask-multiply fans.
TEST(OpBudgetTest, LeNetBudgetsAreExactPerMode) {
  onnx::Model M = nn::buildLeNet(/*Classes=*/8, 11);
  Budgets B = budgetsOf(M, randomInputs({1, 1, 8, 8}, 2, 13));
  constexpr size_t Relus = 3;

  // The memoized lazy policy collapses the conv fan-out.
  EXPECT_EQ(B.Eager.Rescale, 211u);
  EXPECT_EQ(B.Lazy.Rescale, 66u);

  EXPECT_EQ(B.Eager.Relinearize, Relus * ReluOps::CtCt);
  EXPECT_EQ(B.Lazy.Relinearize, Relus * ReluOps::LazyRelin);

  EXPECT_EQ(B.Eager.ModSwitch, 30u);

  for (const air::CkksOpBudget *Budget : {&B.Eager, &B.Lazy}) {
    EXPECT_EQ(Budget->Rotate, 122u);
    EXPECT_EQ(Budget->CtCtMul, Relus * ReluOps::CtCt);
    EXPECT_EQ(Budget->CtPtMul, 127u + Relus * ReluOps::Scalar);
    EXPECT_EQ(Budget->Bootstrap, 2u); // encryption carries the first ReLU
  }

  size_t EagerTotal = B.Eager.Rescale + B.Eager.Relinearize;
  size_t LazyTotal = B.Lazy.Rescale + B.Lazy.Relinearize;
  EXPECT_LE(LazyTotal * 5, EagerTotal * 4)
      << "lazy " << LazyTotal << " vs eager " << EagerTotal;
}

// Lazy placement is the compiler's behaviour: untouched CompileOptions
// compile the contract MLP to the lazy budget, not the eager reference.
TEST(OpBudgetTest, DefaultOptionsPlaceLazily) {
  onnx::Model M = nn::buildMlp({64, 48, 32, 10}, 7);
  driver::AceCompiler Compiler{air::CompileOptions()};
  auto R = Compiler.compile(M, randomInputs({1, 64}, 2, 7));
  ASSERT_TRUE(R.ok()) << R.status().message();
  EXPECT_EQ((*R)->State.Budget.Rescale, 60u);
  EXPECT_EQ((*R)->State.Budget.Relinearize, 2 * ReluOps::LazyRelin);
}

/// Placement the default options select. The chain is sized for every
/// ReLU bootstrapped (the highest refresh target plus the bootstrap's
/// own depth); encryption then carries the leading ReLUs, in program
/// order, while the input's level fits in that chain, and every later
/// ReLU is bootstrapped to the levels it and the layers after it need.
void expectChain(const onnx::Model &M, const std::vector<nn::Tensor> &Calib,
                 size_t Bootstraps, int Primes, size_t InputPrimes) {
  driver::AceCompiler Compiler{air::CompileOptions()};
  auto R = Compiler.compile(M, Calib);
  ASSERT_TRUE(R.ok()) << R.status().message();
  const air::CompileState &S = (*R)->State;
  EXPECT_EQ(S.SelectedParams.NumRescaleModuli + 1, Primes);
  EXPECT_EQ(S.BootstrapCount, Bootstraps);
  EXPECT_EQ(S.Budget.Bootstrap, Bootstraps);
  EXPECT_EQ(S.InputNumQ, InputPrimes);
}

nn::Dataset paperDataset(const nn::NanoResNetSpec &Spec) {
  return nn::makeSyntheticDataset(
      {1, Spec.InputChannels, Spec.InputHW, Spec.InputHW},
      static_cast<int>(Spec.Classes), 16, 0.12, 3);
}

// 2 ReLUs, no bootstrap: the input carries all 25 primes the three
// gemms and both ReLUs need, the chain the model needs with one.
TEST(OpBudgetTest, MlpChainAndBootstraps) {
  expectChain(nn::buildMlp({64, 48, 32, 10}, 7), randomInputs({1, 64}, 2, 7),
              /*Bootstraps=*/0, /*Primes=*/25, /*InputPrimes=*/25);
}

// 3 ReLUs: encryption carries the first (conv + ReLU + pool + conv ahead
// of the second refresh); carrying the second too would outgrow the
// 26-prime chain.
TEST(OpBudgetTest, LeNetChainAndBootstraps) {
  expectChain(nn::buildLeNet(/*Classes=*/8, 11),
              randomInputs({1, 1, 8, 8}, 2, 13), /*Bootstraps=*/2,
              /*Primes=*/26, /*InputPrimes=*/14);
}

// 3 ReLUs: encryption carries two within the 27-prime chain, the third
// is bootstrapped.
TEST(OpBudgetTest, ThreeReluMlpChainAndBootstraps) {
  expectChain(nn::buildMlp({16, 12, 12, 12, 8}, 5),
              randomInputs({1, 16}, 4, 19), /*Bootstraps=*/1,
              /*Primes=*/27, /*InputPrimes=*/24);
}

// nano-resnet-20 as encrypted_resnet builds it: 7 ReLUs; encryption
// carries the first two, so 5 bootstraps.
TEST(OpBudgetTest, NanoResNet20ChainAndBootstraps) {
  nn::NanoResNetSpec Spec = nn::paperModelSpecs()[0];
  nn::Dataset Data = paperDataset(Spec);
  auto M = nn::buildNanoResNet(Spec, Data, 9);
  ASSERT_TRUE(M.ok()) << M.status().message();
  expectChain(*M, Data.Images, /*Bootstraps=*/5, /*Primes=*/26,
              /*InputPrimes=*/24);
}

// The deeper paper zoo models run one bootstrap per ReLU after the first
// two on the same 26-prime chain.
TEST(OpBudgetTest, DeeperPaperModelsChainAndBootstraps) {
  std::vector<nn::NanoResNetSpec> Specs = nn::paperModelSpecs();
  const size_t Bootstraps[] = {11, 11, 17, 23, 35};
  ASSERT_EQ(Specs.size(), 1 + std::size(Bootstraps));
  for (size_t I = 1; I < Specs.size(); ++I) {
    const nn::NanoResNetSpec &Spec = Specs[I];
    SCOPED_TRACE(Spec.Name);
    nn::Dataset Data = paperDataset(Spec);
    auto M = nn::buildNanoResNet(Spec, Data, 9);
    ASSERT_TRUE(M.ok()) << M.status().message();
    expectChain(*M, Data.Images, Bootstraps[I - 1], /*Primes=*/26,
                /*InputPrimes=*/24);
  }
}

// A single ReLU is refreshed by encryption alone: no bootstrap, so a
// dense secret, no conjugation key, and a chain exactly as long as the
// input's level (14 primes, with no bootstrap depth on top).
TEST(OpBudgetTest, OneReluModelCompilesWithoutBootstrap) {
  driver::AceCompiler Compiler{air::CompileOptions()};
  auto R = Compiler.compile(nn::buildMlp({16, 12, 8}, 5),
                            randomInputs({1, 16}, 4, 19));
  ASSERT_TRUE(R.ok()) << R.status().message();
  const air::CompileState &S = (*R)->State;
  EXPECT_EQ(S.BootstrapCount, 0u);
  EXPECT_EQ(S.Budget.Bootstrap, 0u);
  EXPECT_FALSE(S.SelectedParams.SparseSecret);
  EXPECT_FALSE(S.NeedsConjugation);
  EXPECT_EQ(S.InputNumQ, 14u);
  EXPECT_EQ(static_cast<size_t>(S.SelectedParams.NumRescaleModuli + 1),
            S.InputNumQ);
}

// The static budget is not just an estimate: executing the compiled
// program performs exactly the budgeted number of rescales/relins plus
// the (mode-invariant) bootstrap internals. Comparing executed telemetry
// deltas across modes therefore reproduces the budget deltas exactly.
TEST(OpBudgetTest, ExecutedTelemetryMatchesBudgetDelta) {
  using telemetry::Counter;
  using telemetry::CounterSnapshot;
  using telemetry::Telemetry;

  onnx::Model M = nn::buildMlp({24, 16, 12, 6}, 31);
  auto Inputs = randomInputs({1, 24}, 2, 3);

  auto RunOnce = [&](bool Lazy, air::CkksOpBudget &Budget)
      -> CounterSnapshot {
    air::CompileOptions Opt;
    Opt.Seed = 11;
    Opt.EnableRescalePlacement = Lazy;
    driver::AceCompiler Compiler(Opt);
    auto R = Compiler.compile(M, Inputs);
    EXPECT_TRUE(R.ok()) << R.status().message();
    Budget = (*R)->State.Budget;
    codegen::CkksExecutor Exec((*R)->Program, (*R)->State);
    EXPECT_FALSE(Exec.setup());
    Telemetry::instance().setEnabled(true);
    CounterSnapshot Before = Telemetry::instance().counters();
    auto Logits = Exec.infer(Inputs[0]);
    EXPECT_TRUE(Logits.ok());
    CounterSnapshot After = Telemetry::instance().counters();
    Telemetry::instance().setEnabled(false);
    return After.deltaSince(Before);
  };

  air::CkksOpBudget EagerBudget, LazyBudget;
  CounterSnapshot Eager = RunOnce(/*Lazy=*/false, EagerBudget);
  CounterSnapshot Lazy = RunOnce(/*Lazy=*/true, LazyBudget);

  // Same params, same bootstrap targets: the executed difference is the
  // compiled difference, to the op.
  EXPECT_EQ(Eager.get(Counter::Rescale) - Lazy.get(Counter::Rescale),
            EagerBudget.Rescale - LazyBudget.Rescale);
  EXPECT_EQ(Eager.get(Counter::Relinearize) - Lazy.get(Counter::Relinearize),
            EagerBudget.Relinearize - LazyBudget.Relinearize);
  EXPECT_EQ(Eager.get(Counter::Rotate), Lazy.get(Counter::Rotate));
  EXPECT_GT(EagerBudget.Rescale, LazyBudget.Rescale);
}

// The relin-fusion contract at its smallest: a sum of two squares. Lazy
// placement keeps both Cipher3 products unrelinearized through the
// addition and relinearizes the sum once; eager placement pays one
// relin per product.
TEST(OpBudgetTest, SumOfProductsRelinearizesOnce) {
  auto CountOps = [](bool Lazy, size_t &Relins, size_t &Rescales) {
    air::IrFunction F("sihe");
    air::IrNode *X = F.addInput("x", air::TypeKind::TK_Cipher);
    air::IrNode *P1 = F.create(air::NodeKind::NK_SiheMul,
                               air::TypeKind::TK_Cipher, {X, X},
                               air::OriginKind::OR_Other);
    air::IrNode *Y = F.create(air::NodeKind::NK_SiheRotate,
                              air::TypeKind::TK_Cipher, {X},
                              air::OriginKind::OR_Other);
    Y->Ints = {1};
    air::IrNode *P2 = F.create(air::NodeKind::NK_SiheMul,
                               air::TypeKind::TK_Cipher, {Y, Y},
                               air::OriginKind::OR_Other);
    air::IrNode *S = F.create(air::NodeKind::NK_SiheAdd,
                              air::TypeKind::TK_Cipher, {P1, P2},
                              air::OriginKind::OR_Other);
    F.setReturn(S);
    F.renumber();

    air::CompileState State;
    State.Options.EnableRescalePlacement = Lazy;
    State.InputLayout.W0 = State.InputLayout.W = 8;

    passes::SiheToCkksPass Pass;
    ASSERT_TRUE(Pass.run(F, State).ok());
    Relins = State.Budget.Relinearize;
    Rescales = State.Budget.Rescale;
  };

  size_t LazyRelins = 0, LazyRescales = 0;
  size_t EagerRelins = 0, EagerRescales = 0;
  CountOps(/*Lazy=*/true, LazyRelins, LazyRescales);
  CountOps(/*Lazy=*/false, EagerRelins, EagerRescales);

  EXPECT_EQ(EagerRelins, 2u); // one per product
  EXPECT_EQ(LazyRelins, 1u);  // the fused sum
  EXPECT_LT(LazyRescales, EagerRescales);
}

} // namespace
