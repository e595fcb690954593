//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CKKS key material. Evaluation keys (relinearization and rotation) are
/// the dominant memory consumer at production parameters (paper RQ2: over
/// 1 GB each, tens of GB per model). Rotation and Galois keys live only in
/// a RotationKeyCache, which holds exactly the keys the compiler's key
/// analysis declares and charges their bytes to the ResourceGovernor;
/// every key reports its byte size for the Figure 7 memory study.
///
//===----------------------------------------------------------------------===//

#ifndef ACE_FHE_KEYS_H
#define ACE_FHE_KEYS_H

#include "fhe/Cipher.h"
#include "fhe/RnsPoly.h"
#include "support/Rng.h"
#include "support/Status.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace ace {
namespace fhe {

/// The ternary secret key s, stored in NTT form over the full basis
/// (all chain primes + the special primes).
struct SecretKey {
  RnsPoly S;
  size_t byteSize() const { return S.byteSize(); }
};

/// Encryption key (b, a) with b = -(a s + e) over the full q-chain.
struct PublicKey {
  RnsPoly B;
  RnsPoly A;
  size_t byteSize() const { return B.byteSize() + A.byteSize(); }
};

/// A key-switching key from some source key s' to s: one (b_j, a_j) pair
/// per hybrid decomposition digit j (Context::keySwitch()), over the chain
/// primes the key covers plus the special primes, in NTT form.
/// b_j = -(a_j s + e_j) + P * g_j * s', where P is the special-prime
/// product and the gadget g_j is 1 mod the primes of digit j and 0 mod
/// every other modulus.
struct SwitchKey {
  std::vector<std::pair<RnsPoly, RnsPoly>> Parts;

  /// Chain primes the key covers: its truncation level.
  size_t numQ() const {
    return Parts.empty() ? 0 : Parts.front().first.numQ();
  }

  /// True when the key can switch a ciphertext at \p NumQ active primes:
  /// it covers that many chain primes and their digits.
  bool covers(size_t NumQ) const {
    return !Parts.empty() && numQ() >= NumQ &&
           Parts.size() >=
               Parts.front().first.context().keySwitch().digits(NumQ);
  }

  size_t byteSize() const {
    size_t Sum = 0;
    for (const auto &Part : Parts)
      Sum += Part.first.byteSize() + Part.second.byteSize();
    return Sum;
  }

  /// Bytes of the parts' storage drawn from the limb pool.
  size_t pooledBytes() const {
    size_t Sum = 0;
    for (const auto &Part : Parts)
      Sum += Part.first.pooledBytes() + Part.second.pooledBytes();
    return Sum;
  }
};

/// The relinearization and conjugation keys a compiled program needs.
/// Rotation keys live in a RotationKeyCache; \c Rotations is only the
/// wire form of a saved key set (wire::save/loadEvalKeys, ace_key_save
/// and ace_key_load), keyed by Galois element.
struct EvalKeys {
  SwitchKey Relin;
  bool HasRelin = false;
  SwitchKey Conjugate;
  bool HasConjugate = false;
  std::map<uint64_t, SwitchKey> Rotations;

  /// Bytes of the relinearization and conjugation keys.
  size_t byteSize() const {
    return (HasRelin ? Relin.byteSize() : 0) +
           (HasConjugate ? Conjugate.byteSize() : 0);
  }
};

/// Galois element realizing a left rotation by \p Steps slots in a ring of
/// degree \p N with \p Slots slots (5^k mod 2N; steps are canonicalized to
/// [0, Slots)).
uint64_t galoisForRotation(size_t N, size_t Slots, int64_t Steps);

/// Galois element realizing complex conjugation (2N - 1).
uint64_t galoisForConjugation(size_t N);

/// Generates all key material from a seeded RNG.
class KeyGenerator {
public:
  /// Samples the secret key at construction. With
  /// CkksParams::SparseSecret the secret has Hamming weight 64 (the
  /// standard choice for bootstrappable CKKS, bounding the ModRaise
  /// overflow count).
  explicit KeyGenerator(const Context &Ctx);

  const SecretKey &secretKey() const { return Secret; }

  /// Generates the public (encryption) key.
  PublicKey makePublicKey();

  /// Generates the relinearization key (s^2 -> s).
  SwitchKey makeRelinKey();

  /// Generates the rotation key for a left rotation by \p Steps slots.
  /// \p MaxNumQ truncates the key to the deepest level the compiler's
  /// dataflow analysis saw the step used at (0 = full chain): a key used
  /// only below level l needs only the digits covering l primes, over l
  /// chain moduli plus the special primes, which is where the paper's
  /// Figure 7 key-memory saving comes from.
  SwitchKey makeRotationKey(int64_t Steps, size_t MaxNumQ = 0);

  /// Restricts \p Key to \p MaxNumQ chain primes: the first
  /// keySwitch().digits(MaxNumQ) pairs over those primes plus the special
  /// primes (0, or at least the key's level, returns the key unchanged).
  static SwitchKey truncateKey(const SwitchKey &Key, size_t MaxNumQ);

  /// Generates the conjugation key.
  SwitchKey makeConjugationKey();

  /// Generates a switch key from an arbitrary source key polynomial
  /// \p Source (NTT form, full basis + specials).
  SwitchKey makeSwitchKey(const RnsPoly &Source);

  /// Generates the key for a raw Galois automorphism X -> X^Galois. Used
  /// by the bootstrapper's SubSum, whose automorphisms fix the packing
  /// subring and therefore are not slot rotations.
  SwitchKey makeGaloisKey(uint64_t Galois);

private:
  const Context &Ctx;
  Rng Rand;
  SecretKey Secret;

  /// Samples a fresh noise polynomial (coeff domain) over the given shape.
  RnsPoly sampleNoise(size_t NumQ, bool HasSpecial);
  /// Samples a uniform polynomial in NTT form over the given shape.
  RnsPoly sampleUniform(size_t NumQ, bool HasSpecial);
};

/// The one store of rotation and Galois switch keys: an LRU cache with
/// on-demand generation, and the Evaluator's only source for them (see
/// docs/memory.md).
///
/// The compiler's key analysis *declares* the Galois elements a program
/// may use (with their truncation levels). A key is generated when get()
/// first asks for it: eager executors and ace_keygen call get() for each
/// declaration at setup, in a fixed order; lazy executors (service
/// sessions) leave it to the first op that rotates. Every resident key is
/// charged to the ResourceGovernor under MemCategory::EvalKeys, and cold
/// keys are evicted, least recently used first, by the governor's
/// reclaim pass under budget pressure. An evicted key regenerates
/// transparently on next use (new randomness, equally valid key material;
/// ciphertext results are unaffected because key switching is correct
/// under any valid key). Keys adopted from a saved key set may belong to
/// another secret: they are never evicted, regenerated or widened.
///
/// get() hands out shared_ptr handles so an eviction can never free a key
/// another thread is mid-way through using. Thread-safe; generation is
/// serialized on the cache mutex (KeyGenerator's RNG is not thread-safe).
class RotationKeyCache {
public:
  /// Binds the cache to a generator and registers it as a governor
  /// reclaimer (priority 0: cold keys are reclaimed before pool trim).
  RotationKeyCache(const Context &Ctx, KeyGenerator &Gen);
  /// Releases all resident keys (and their governor charges) and
  /// unregisters the reclaimer.
  ~RotationKeyCache();

  RotationKeyCache(const RotationKeyCache &) = delete;
  RotationKeyCache &operator=(const RotationKeyCache &) = delete;

  /// Declares the rotation by \p Steps as usable, truncated to
  /// \p MaxNumQ moduli (0 = full chain). No key is generated yet.
  /// Returns the Galois element it will be looked up under.
  uint64_t declareRotation(int64_t Steps, size_t MaxNumQ = 0);

  /// Declares a raw Galois automorphism (bootstrap SubSum, conjugation).
  void declareGalois(uint64_t Galois, size_t MaxNumQ = 0);

  /// True when \p Galois has been declared (cached or not).
  bool declared(uint64_t Galois) const;

  /// Returns the switch key for \p Galois, generating it on first use.
  /// Errors: KeyMissing when \p Galois was never declared,
  /// ResourceExhausted when the governor refuses the generation charge.
  StatusOr<std::shared_ptr<const SwitchKey>> get(uint64_t Galois);

  /// Evicts least-recently-used keys until at least \p WantBytes are
  /// released or nothing cold remains. Returns bytes released. This is
  /// the governor reclaim callback.
  size_t evictColdest(size_t WantBytes);

  /// Drops every cached key that can regenerate (declarations and
  /// adopted keys survive). Returns bytes released.
  size_t releaseAll();

  /// Generates every declared key that is not resident and copies each
  /// into \p Out under its Galois element: the wire form ace_key_save
  /// writes. Errors as get().
  Status exportKeys(std::map<uint64_t, SwitchKey> &Out);

  /// Replaces every declaration with \p Keys, charged to the governor.
  /// Adopted keys may come from another secret, so eviction never drops
  /// them and a re-declaration never regenerates or widens them.
  void adoptKeys(std::map<uint64_t, SwitchKey> Keys);

  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;     ///< on-demand generations
    uint64_t Evictions = 0;
    size_t ResidentBytes = 0;
    size_t ResidentCount = 0;
    size_t DeclaredCount = 0;
  };
  Stats stats() const;

private:
  struct Entry {
    bool IsRotation = false;
    int64_t Steps = 0;   ///< valid when IsRotation
    size_t MaxNumQ = 0;  ///< truncation level (0 = full chain)
    std::shared_ptr<const SwitchKey> Key; ///< null until generated
    size_t Bytes = 0;
    uint64_t LastUse = 0;
    bool Adopted = false; ///< loaded, not generated: never dropped
  };

  /// Exact byte size of a key at truncation \p MaxNumQ
  /// (Context::switchKeyBytes), used for governor admission before
  /// generating.
  size_t estimateBytes(size_t MaxNumQ) const;
  /// Widens \p E to cover \p MaxNumQ moduli if that is wider than its
  /// current truncation (0 = full chain is widest; never narrows),
  /// dropping a key cached at the narrower depth so the next get()
  /// regenerates it at the right one. Caller holds Mutex.
  void widenLocked(Entry &E, size_t MaxNumQ);
  SwitchKey generate(const Entry &E, uint64_t Galois);
  /// Charges \p E's freshly set key to eval_keys. Caller holds Mutex.
  void chargeLocked(Entry &E);
  /// Drops \p E's key and its governor charge. Caller holds Mutex.
  size_t dropLocked(Entry &E);

  const Context &Ctx;
  KeyGenerator &Gen;

  mutable std::mutex Mutex;
  std::map<uint64_t, Entry> Entries; ///< keyed by Galois element
  uint64_t UseClock = 0;
  size_t ResidentBytes = 0;
  uint64_t ReclaimerId = 0;

  std::atomic<uint64_t> Hits{0}, Misses{0}, Evictions{0};
};

} // namespace fhe
} // namespace ace

#endif // ACE_FHE_KEYS_H
