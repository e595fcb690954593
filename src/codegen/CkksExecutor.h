//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In-process execution of a compiled CKKS-IR program against the ACEfhe
/// runtime - the role the generated C program plays in the real ANT-ACE
/// deployment (paper Fig. 2): setup declares exactly the keys the
/// compiler's analysis requested in the executor's RotationKeyCache; the
/// encryptor packs and normalizes a tensor per the selected layout; run()
/// interprets the CKKS IR; the decryptor unpacks the logits. Telemetry
/// region spans by origin operator feed the paper's Figure 6 breakdown,
/// and key-material byte counts feed Figure 7.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_CODEGEN_CKKSEXECUTOR_H
#define ACE_CODEGEN_CKKSEXECUTOR_H

#include "air/LastUse.h"
#include "air/Pass.h"
#include "fhe/Bootstrapper.h"
#include "fhe/Encryptor.h"
#include "nn/Executor.h"
#include "support/Cancellation.h"
#include "support/Timer.h"

#include <memory>

namespace ace {
namespace codegen {

/// Executes one compiled program.
class CkksExecutor {
public:
  /// \p F must be in the CKKS dialect; \p State the post-pipeline state.
  /// Both must outlive the executor.
  CkksExecutor(const air::IrFunction &F, const air::CompileState &State);
  ~CkksExecutor();

  /// Builds the context, generates keys (secret, public, relin,
  /// conjugation), declares the bootstrap Galois set and the analyzed
  /// rotation set in the key cache, and instantiates evaluator +
  /// bootstrapper. An eager executor (the default) generates each
  /// declared key at once, in a fixed order: SubSum elements, relin,
  /// conjugation, bootstrap steps, analyzed steps. Every rotation/Galois
  /// key is charged to the ResourceGovernor; a key set that does not fit
  /// the budget fails with ResourceExhausted and leaves the executor not
  /// set up. A second call starts from an empty key set and plaintext
  /// cache. \p SeedOverride = 0 keeps the compiled parameters'
  /// deterministic seed; a nonzero value reseeds the context so this
  /// executor draws INDEPENDENT key material from every other executor
  /// over the same program (the per-session isolation the inference
  /// service relies on).
  Status setup(uint64_t SeedOverride = 0);

  /// Pre-setup() policy switch: setup only *declares* the rotation and
  /// Galois keys; each materializes on first use, and cold keys are
  /// evicted under budget pressure (regenerating transparently on next
  /// use). Relinearization and conjugation keys stay eager — every
  /// program needs them throughout. The process memory budget is the only
  /// bound on the cached key bytes. The long-running inference service
  /// turns this on per session.
  void enableLazyRotationKeys() { LazyRotationKeys = true; }

  /// The store of every rotation/Galois key, or nullptr before setup().
  fhe::RotationKeyCache *keyCache() const { return KeyCache.get(); }

  /// Client-side: packs, normalizes, encodes and encrypts a tensor.
  /// Routes through the checked encryptor, so injected ciphertext faults
  /// (and bad layouts) surface here as a Status.
  StatusOr<fhe::Ciphertext> encryptInput(const nn::Tensor &Input);

  /// Server-side: runs the encrypted inference. Every homomorphic step
  /// goes through the checked evaluator tier: a corrupted operand or a
  /// missing key aborts the run with a diagnostic Status instead of
  /// crashing the process. The run holds only the values still to be
  /// read: each ciphertext is released after its last reader, and an
  /// operand read for the last time moves into the node that reads it. Honors the cancellation token installed on
  /// the calling thread (CancellationScope): an expired deadline or a
  /// cancel() unwinds between IR nodes with
  /// Status(DeadlineExceeded/Cancelled) - never mid-op, so no
  /// half-written ciphertext escapes.
  StatusOr<fhe::Ciphertext> run(const fhe::Ciphertext &Input);

  /// Same, but runs under \p Token for the duration of the call (the
  /// inference service's per-request entry point).
  StatusOr<fhe::Ciphertext> run(const fhe::Ciphertext &Input,
                                const CancellationToken &Token);

  /// Client-side: decrypts and unpacks the logits.
  StatusOr<std::vector<double>> decryptLogits(const fhe::Ciphertext &Output);

  /// Convenience: encrypt, run, decrypt.
  StatusOr<std::vector<double>> infer(const nn::Tensor &Input);

  /// Evaluation-key bytes (Fig. 7's CKKS-Keys share): the relin and
  /// conjugation keys plus the key cache's resident rotation/Galois keys.
  size_t evalKeyBytes() const;
  /// Every key this executor holds: secret, public and evalKeyBytes().
  size_t keyBytes() const;
  /// Rotation/Galois keys declared in the key cache, plus the
  /// conjugation key.
  size_t rotationKeyCount() const;

  /// Seconds spent in setup (key generation dominates).
  double setupSeconds() const { return SetupSeconds; }

  const fhe::Context &context() const { return *Ctx; }
  const fhe::EvalKeys &evalKeys() const { return Keys; }
  /// The public key generated by setup() (the service layer fingerprints
  /// it to pin requests to the session that encrypted them).
  const fhe::PublicKey &publicKey() const { return Pub; }

private:
  const air::IrFunction &F;
  const air::CompileState &State;
  /// F's last-reader table, with the hoisted rotation batches run()
  /// serves when rotation-key analysis is on.
  const air::LastUses Uses;

  std::unique_ptr<fhe::Context> Ctx;
  std::unique_ptr<fhe::Encoder> Enc;
  std::unique_ptr<fhe::KeyGenerator> Gen;
  /// Declared after Gen/Ctx (it references both) so it destructs first.
  /// Always present after setup(); lazy mode only changes when its keys
  /// are generated.
  std::unique_ptr<fhe::RotationKeyCache> KeyCache;
  bool LazyRotationKeys = false;
  fhe::PublicKey Pub;
  fhe::EvalKeys Keys;
  std::unique_ptr<fhe::Evaluator> Eval;
  std::unique_ptr<fhe::Bootstrapper> Boot;
  std::unique_ptr<fhe::Encryptor> Encrypt;
  std::unique_ptr<fhe::Decryptor> Decrypt;

  double SetupSeconds = 0.0;

  /// Encoded-plaintext cache: (node id, numQ, log2 scale bucket).
  std::map<std::tuple<int, size_t, int64_t>, fhe::Plaintext> PlainCache;

  const fhe::Plaintext &encodedConst(const air::IrNode *ConstNode,
                                     const fhe::Ciphertext &For,
                                     bool ForMul);
  /// Declares and (unless lazy) generates the rotation/Galois keys, plus
  /// the relin and conjugation keys.
  Status makeKeys();
  /// Drops every key, runtime object and encoded plaintext of a previous
  /// setup(), users before what they reference.
  void teardown();
};

} // namespace codegen
} // namespace ace

#endif // ACE_CODEGEN_CKKSEXECUTOR_H
