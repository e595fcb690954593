//===----------------------------------------------------------------------===//
// Paper Table 11: inference accuracy, unencrypted vs encrypted. The paper
// reports an average accuracy drop of 0.43% over 1000 CIFAR images; the
// reproduction compares the cleartext executor with the compiled
// encrypted pipeline on the synthetic dataset. Expected shape: encrypted
// accuracy within a couple of points of cleartext, the loss coming from
// CKKS precision plus the polynomial ReLU approximation.
//
// Each image also reports its precision, -log2(max|enc - clear| /
// max|clear|) against the cleartext executor: a decrypt that keeps the
// argmax but no precision is a label hit and a failure at once. The run
// exits nonzero when an image falls below 1 bit, the floor that
// encrypted_resnet and the repository benchmark apply.
//
// Defaults: one model, a handful of images (encrypted inference is
// seconds per image single-core); scale with --models= / --images=.
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace ace;
using namespace ace::bench;

/// Precision in bits of \p Enc against \p Clear, as encrypted_resnet
/// and the repository benchmark measure it.
static double precisionBits(const std::vector<double> &Enc,
                            const std::vector<float> &Clear) {
  double MaxErr = 0, MaxClear = 0;
  for (size_t K = 0; K < Clear.size(); ++K) {
    MaxErr = std::fmax(MaxErr, std::fabs(Enc[K] - Clear[K]));
    MaxClear = std::fmax(MaxClear, std::fabs(Clear[K]));
  }
  return -std::log2(MaxErr / MaxClear);
}

int main(int argc, char **argv) {
  BenchArgs Args(argc, argv, /*DefaultModels=*/1, /*DefaultImages=*/6);
  auto Models = buildPaperModels(Args.Models);

  std::printf("=== Table 11: accuracy, unencrypted vs encrypted ===\n");
  std::string Table, Rows, Failures;
  for (auto &M : Models) {
    size_t Count = std::min<size_t>(Args.Images, M.Data.Images.size());
    double Clear = nn::cleartextAccuracy(M.Model.MainGraph, M.Data,
                                         static_cast<int>(Count));

    auto R = compileOrDie(M.Model, M.Data, benchOptions());
    codegen::CkksExecutor Exec(R->Program, R->State);
    if (Status S = Exec.setup()) {
      std::fprintf(stderr, "setup failed: %s\n", S.message().c_str());
      return 1;
    }
    std::printf("%s:\n", M.Spec.Name.c_str());
    size_t Correct = 0, Worst = 0;
    std::vector<double> Bits(Count);
    for (size_t I = 0; I < Count; ++I) {
      auto Logits = Exec.infer(M.Data.Images[I]);
      auto Reference = nn::executeSingle(M.Model.MainGraph, M.Data.Images[I]);
      if (!Logits.ok() || !Reference.ok()) {
        std::fprintf(stderr, "inference failed: %s\n",
                     (Logits.ok() ? Reference.status() : Logits.status())
                         .message()
                         .c_str());
        return 1;
      }
      if (Logits->size() != Reference->Values.size()) {
        std::fprintf(stderr, "inference returned %zu logits, cleartext %zu\n",
                     Logits->size(), Reference->Values.size());
        return 1;
      }
      size_t Best = static_cast<size_t>(
          std::max_element(Logits->begin(), Logits->end()) - Logits->begin());
      Correct += Best == static_cast<size_t>(M.Data.Labels[I]);
      Bits[I] = precisionBits(*Logits, Reference->Values);
      if (Bits[I] < Bits[Worst])
        Worst = I;
      std::printf("  image %2zu: class %zu (cleartext %zu, label %d), "
                  "%.2f bits\n",
                  I, Best, nn::argmax(*Reference), M.Data.Labels[I],
                  Bits[I]);
      if (!(Bits[I] >= 1.0))
        Failures += "  " + M.Spec.Name + " image " + std::to_string(I) +
                    "\n";
    }
    double Enc = static_cast<double>(Correct) / Count;
    char Line[160];
    std::snprintf(Line, sizeof(Line),
                  "%-18s %7zu | %11.1f%% %9.1f%% %+7.1f%% | %5zu %7.2f\n",
                  M.Spec.Name.c_str(), Count, 100 * Clear, 100 * Enc,
                  100 * (Clear - Enc), Worst, Bits[Worst]);
    Table += Line;
    std::string BitList;
    for (double B : Bits) {
      char Num[32];
      std::snprintf(Num, sizeof(Num), "%s%.3f", BitList.empty() ? "" : ", ",
                    B);
      BitList += Num;
    }
    char Row[320];
    std::snprintf(Row, sizeof(Row),
                  "{\"model\": \"%s\", \"images\": %zu, "
                  "\"clear_accuracy\": %.4f, \"encrypted_accuracy\": %.4f, "
                  "\"loss\": %.4f, \"worst_image\": %zu, "
                  "\"worst_bits\": %.3f, \"bits\": [",
                  M.Spec.Name.c_str(), Count, Clear, Enc, Clear - Enc, Worst,
                  Bits[Worst]);
    Rows += std::string(Rows.empty() ? "" : ",\n  ") + Row + BitList + "]}";
  }
  std::printf("\n%-18s %7s | %12s %10s %8s | %5s %7s\n%s", "model",
              "images", "unencrypted", "encrypted", "loss", "worst", "bits",
              Table.c_str());
  std::printf("\n(paper: average accuracy loss 0.43%% over 1000 images)\n");
  if (!Args.JsonPath.empty())
    writeBenchJson(Args.JsonPath, "table11_accuracy", "[" + Rows + "]");
  if (!Failures.empty()) {
    std::fprintf(stderr,
                 "bench_table11_accuracy FAILED: below the 1-bit floor:\n%s",
                 Failures.c_str());
    return 1;
  }
  return 0;
}
