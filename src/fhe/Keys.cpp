//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "fhe/Keys.h"

#include "fhe/ModArith.h"
#include "support/LimbPool.h"
#include "support/ResourceGovernor.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>

using namespace ace;
using namespace ace::fhe;

uint64_t ace::fhe::galoisForRotation(size_t N, size_t Slots, int64_t Steps) {
  int64_t S = static_cast<int64_t>(Slots);
  int64_t K = ((Steps % S) + S) % S;
  uint64_t TwoN = 2 * N;
  uint64_t G = 1;
  for (int64_t I = 0; I < K; ++I)
    G = (G * 5) % TwoN;
  return G;
}

uint64_t ace::fhe::galoisForConjugation(size_t N) { return 2 * N - 1; }

/// Converts a small signed coefficient vector to an RNS polynomial over
/// the requested shape (coefficient domain).
static RnsPoly smallPolyToRns(const Context &Ctx,
                              const std::vector<int32_t> &Coeffs, size_t NumQ,
                              bool HasSpecial) {
  RnsPoly Poly(Ctx, NumQ, HasSpecial, /*NttForm=*/false);
  size_t N = Ctx.degree();
  for (size_t I = 0, E = Poly.numComponents(); I < E; ++I) {
    uint64_t P = Poly.modulus(I);
    uint64_t *Comp = Poly.component(I);
    for (size_t J = 0; J < N; ++J) {
      int32_t V = Coeffs[J];
      Comp[J] = V >= 0 ? static_cast<uint64_t>(V)
                       : P - static_cast<uint64_t>(-V);
    }
  }
  return Poly;
}

KeyGenerator::KeyGenerator(const Context &Ctx)
    : Ctx(Ctx), Rand(Ctx.params().Seed) {
  size_t N = Ctx.degree();
  std::vector<int32_t> Coeffs(N, 0);
  if (Ctx.params().SparseSecret) {
    // Hamming-weight-64 ternary secret: the standard bootstrappable-CKKS
    // choice; it bounds |c0 + c1*s| / q_0 and hence the EvalMod range K.
    size_t Weight = std::min<size_t>(64, N / 2);
    size_t Placed = 0;
    while (Placed < Weight) {
      size_t Pos = Rand.uniform(N);
      if (Coeffs[Pos] != 0)
        continue;
      Coeffs[Pos] = (Rand.next64() & 1) ? 1 : -1;
      ++Placed;
    }
  } else {
    for (auto &C : Coeffs)
      C = Rand.ternary();
  }
  Secret.S = smallPolyToRns(Ctx, Coeffs, Ctx.chainLength(),
                            /*HasSpecial=*/true);
  Secret.S.toNtt();
}

RnsPoly KeyGenerator::sampleNoise(size_t NumQ, bool HasSpecial) {
  size_t N = Ctx.degree();
  std::vector<int32_t> Coeffs(N);
  for (auto &C : Coeffs)
    C = Rand.noiseCbd();
  return smallPolyToRns(Ctx, Coeffs, NumQ, HasSpecial);
}

RnsPoly KeyGenerator::sampleUniform(size_t NumQ, bool HasSpecial) {
  RnsPoly Poly(Ctx, NumQ, HasSpecial, /*NttForm=*/true);
  size_t N = Ctx.degree();
  for (size_t I = 0, E = Poly.numComponents(); I < E; ++I) {
    uint64_t P = Poly.modulus(I);
    uint64_t *Comp = Poly.component(I);
    for (size_t J = 0; J < N; ++J)
      Comp[J] = Rand.uniform(P);
  }
  return Poly;
}

PublicKey KeyGenerator::makePublicKey() {
  size_t L = Ctx.chainLength();
  PublicKey Key;
  Key.A = sampleUniform(L, /*HasSpecial=*/false);
  RnsPoly E = sampleNoise(L, /*HasSpecial=*/false);
  E.toNtt();
  RnsPoly S = Secret.S.restrictedCopy(L, /*KeepSpecial=*/false);
  // b = -(a*s + e).
  Key.B = Key.A.mul(S);
  Key.B.addInPlace(E);
  Key.B.negateInPlace();
  return Key;
}

SwitchKey KeyGenerator::makeSwitchKey(const RnsPoly &Source) {
  assert(Source.isNtt() && Source.hasSpecial() &&
         Source.numQ() == Ctx.chainLength() &&
         "switch-key source must be NTT over the full basis");
  size_t L = Ctx.chainLength();
  size_t N = Ctx.degree();
  const KeySwitchShape &Shape = Ctx.keySwitch();

  SwitchKey Key;
  Key.Parts.reserve(Shape.digits(L));
  for (size_t Digit = 0; Digit < Shape.digits(L); ++Digit) {
    RnsPoly A = sampleUniform(L, /*HasSpecial=*/true);
    RnsPoly E = sampleNoise(L, /*HasSpecial=*/true);
    E.toNtt();
    // b = -(a*s + e) + P * g_digit * source; the gadget g_digit is 1 mod
    // the digit's primes and 0 mod every other modulus, so only the
    // digit's components of the source term are nonzero.
    RnsPoly B = A.mul(Secret.S);
    B.addInPlace(E);
    B.negateInPlace();
    size_t First = Digit * Shape.DigitSize;
    for (size_t I = First; I < std::min(First + Shape.DigitSize, L); ++I) {
      uint64_t Q = Ctx.qModulus(I);
      uint64_t PModQ = Ctx.specialProductModQ(I);
      uint64_t PModQShoup = shoupPrecompute(PModQ, Q);
      uint64_t *BComp = B.component(I);
      const uint64_t *SrcComp = Source.component(I);
      for (size_t J = 0; J < N; ++J)
        BComp[J] = addMod(BComp[J],
                          mulModShoup(SrcComp[J], PModQ, PModQShoup, Q), Q);
    }
    Key.Parts.emplace_back(std::move(B), std::move(A));
  }
  return Key;
}

SwitchKey KeyGenerator::makeRelinKey() {
  RnsPoly S2 = Secret.S.mul(Secret.S);
  return makeSwitchKey(S2);
}

SwitchKey KeyGenerator::makeGaloisKey(uint64_t Galois) {
  RnsPoly S = Secret.S;
  S.toCoeff();
  RnsPoly SG = S.automorphism(Galois);
  SG.toNtt();
  return makeSwitchKey(SG);
}

SwitchKey KeyGenerator::truncateKey(const SwitchKey &Key, size_t MaxNumQ) {
  if (MaxNumQ == 0 || MaxNumQ >= Key.numQ())
    return Key;
  size_t Digits =
      Key.Parts.front().first.context().keySwitch().digits(MaxNumQ);
  SwitchKey Out;
  Out.Parts.reserve(Digits);
  for (size_t I = 0; I < Digits; ++I)
    Out.Parts.emplace_back(
        Key.Parts[I].first.restrictedCopy(MaxNumQ, /*KeepSpecial=*/true),
        Key.Parts[I].second.restrictedCopy(MaxNumQ, /*KeepSpecial=*/true));
  return Out;
}

SwitchKey KeyGenerator::makeRotationKey(int64_t Steps, size_t MaxNumQ) {
  return truncateKey(
      makeGaloisKey(galoisForRotation(Ctx.degree(), Ctx.slots(), Steps)),
      MaxNumQ);
}

SwitchKey KeyGenerator::makeConjugationKey() {
  return makeGaloisKey(galoisForConjugation(Ctx.degree()));
}

//===----------------------------------------------------------------------===//
// RotationKeyCache
//===----------------------------------------------------------------------===//

RotationKeyCache::RotationKeyCache(const Context &Ctx, KeyGenerator &Gen)
    : Ctx(Ctx), Gen(Gen) {
  // Cold keys are the cheapest memory to give back under pressure: they
  // regenerate transparently on next use. An evicted key's blocks park on
  // the limb pool's free lists, so trimming as many bytes makes the
  // eviction free what it reports.
  ReclaimerId = ResourceGovernor::instance().addReclaimer(
      /*Priority=*/0, "rotation-key-cache", [this](size_t WantBytes) {
        size_t Released = evictColdest(WantBytes);
        LimbPool &Pool = LimbPool::instance();
        size_t Free = Pool.stats().FreeBytes;
        Pool.trim(Free > Released ? Free - Released : 0);
        return Released;
      });
}

RotationKeyCache::~RotationKeyCache() {
  ResourceGovernor::instance().removeReclaimer(ReclaimerId);
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &Item : Entries)
    dropLocked(Item.second);
}

uint64_t RotationKeyCache::declareRotation(int64_t Steps, size_t MaxNumQ) {
  uint64_t Galois = galoisForRotation(Ctx.degree(), Ctx.slots(), Steps);
  if (Galois == 1)
    return Galois; // rotation by 0 slots needs no key
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Entries.find(Galois);
  if (It == Entries.end()) {
    Entry E;
    E.IsRotation = true;
    E.Steps = Steps;
    E.MaxNumQ = MaxNumQ;
    Entries.emplace(Galois, std::move(E));
    return Galois;
  }
  // Re-declaration: keep the widest truncation ever asked for.
  Entry &E = It->second;
  widenLocked(E, MaxNumQ);
  E.IsRotation = true;
  E.Steps = Steps;
  return Galois;
}

void RotationKeyCache::declareGalois(uint64_t Galois, size_t MaxNumQ) {
  if (Galois == 1)
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Entries.find(Galois);
  if (It == Entries.end()) {
    Entry E;
    E.IsRotation = false;
    E.MaxNumQ = MaxNumQ;
    Entries.emplace(Galois, std::move(E));
    return;
  }
  // Re-declaration widens exactly like declareRotation: a key already
  // cached (or declared) at a narrower depth must not keep serving once
  // a deeper use is announced — the release-build hot tier has no depth
  // check, so a too-shallow key would corrupt results silently.
  widenLocked(It->second, MaxNumQ);
}

void RotationKeyCache::widenLocked(Entry &E, size_t MaxNumQ) {
  if (E.Adopted)
    return; // another secret's key cannot be regenerated wider
  // 0 = full chain is widest.
  size_t Widened =
      (MaxNumQ == 0 || E.MaxNumQ == 0) ? 0 : std::max(E.MaxNumQ, MaxNumQ);
  if (Widened == E.MaxNumQ)
    return;
  dropLocked(E);
  E.MaxNumQ = Widened;
}

void RotationKeyCache::chargeLocked(Entry &E) {
  // A resident key is charged to eval_keys alone: its pooled blocks leave
  // the limb_pool charge for as long as the cache holds the key.
  E.Bytes = E.Key->byteSize();
  ResidentBytes += E.Bytes;
  ResourceGovernor::instance().charge(MemCategory::EvalKeys, E.Bytes);
  LimbPool::instance().lend(E.Key->pooledBytes());
}

size_t RotationKeyCache::dropLocked(Entry &E) {
  if (!E.Key)
    return 0;
  size_t Bytes = E.Bytes;
  ResidentBytes -= Bytes;
  ResourceGovernor::instance().release(MemCategory::EvalKeys, Bytes);
  // Back to limb_pool at once: a handle still held elsewhere keeps the
  // blocks in use until it dies, then they park on the free lists.
  LimbPool::instance().unlend(E.Key->pooledBytes());
  E.Key.reset();
  E.Bytes = 0;
  return Bytes;
}

bool RotationKeyCache::declared(uint64_t Galois) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.count(Galois) != 0;
}

size_t RotationKeyCache::estimateBytes(size_t MaxNumQ) const {
  return Ctx.switchKeyBytes(MaxNumQ);
}

SwitchKey RotationKeyCache::generate(const Entry &E, uint64_t Galois) {
  if (E.IsRotation)
    return Gen.makeRotationKey(E.Steps, E.MaxNumQ);
  SwitchKey Key = Gen.makeGaloisKey(Galois);
  if (E.MaxNumQ != 0)
    Key = KeyGenerator::truncateKey(Key, E.MaxNumQ);
  return Key;
}

StatusOr<std::shared_ptr<const SwitchKey>>
RotationKeyCache::get(uint64_t Galois) {
  size_t Estimate = 0;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Entries.find(Galois);
    if (It == Entries.end())
      return Status::keyMissing("rotation key cache: Galois element " +
                                std::to_string(Galois) + " was never declared");
    if (It->second.Key) {
      It->second.LastUse = ++UseClock;
      Hits.fetch_add(1, std::memory_order_relaxed);
      ResourceGovernor::instance().noteKeyCacheHit();
      return It->second.Key;
    }
    Estimate = estimateBytes(It->second.MaxNumQ);
  }

  // Miss: ask the governor before generating. Outside the cache mutex -
  // the governor's reclaim pass re-enters evictColdest().
  Misses.fetch_add(1, std::memory_order_relaxed);
  ResourceGovernor::instance().noteKeyCacheMiss();
  ACE_RETURN_IF_ERROR(ResourceGovernor::instance().admit(
      Estimate, "rotation key generation (Galois " + std::to_string(Galois) +
                    ")"));

  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Entries.find(Galois);
  if (It == Entries.end())
    return Status::keyMissing("rotation key cache: Galois element " +
                              std::to_string(Galois) + " was never declared");
  Entry &E = It->second;
  if (E.Key) // another thread generated it while we were admitting
    return E.Key;
  // Generation holds the mutex: the KeyGenerator RNG is shared state.
  // It runs inline, never forking: a fork would take the pool's run lock
  // under this mutex, while a pool task of a running fork (a service
  // batch, say) takes this mutex under that lock.
  ThreadPool::InlineRegion Inline;
  auto Key = std::make_shared<const SwitchKey>(generate(E, Galois));
  E.Key = Key;
  E.LastUse = ++UseClock;
  chargeLocked(E);
  return std::shared_ptr<const SwitchKey>(Key);
}

size_t RotationKeyCache::evictColdest(size_t WantBytes) {
  std::lock_guard<std::mutex> Lock(Mutex);
  size_t Released = 0;
  while (Released < WantBytes) {
    Entry *Coldest = nullptr;
    for (auto &[Galois, E] : Entries) {
      (void)Galois;
      // A key another thread still holds a handle to cannot actually be
      // freed by evicting it; skip so the accounting stays honest.
      if (!E.Key || E.Adopted || E.Key.use_count() > 1)
        continue;
      if (!Coldest || E.LastUse < Coldest->LastUse)
        Coldest = &E;
    }
    if (!Coldest)
      break;
    Released += dropLocked(*Coldest);
    ResourceGovernor::instance().noteKeyCacheEviction();
    Evictions.fetch_add(1, std::memory_order_relaxed);
  }
  return Released;
}

size_t RotationKeyCache::releaseAll() {
  std::lock_guard<std::mutex> Lock(Mutex);
  size_t Released = 0;
  for (auto &Item : Entries)
    if (!Item.second.Adopted)
      Released += dropLocked(Item.second);
  return Released;
}

Status RotationKeyCache::exportKeys(std::map<uint64_t, SwitchKey> &Out) {
  std::vector<uint64_t> Elements;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (const auto &Item : Entries)
      Elements.push_back(Item.first);
  }
  for (uint64_t Galois : Elements) {
    ACE_ASSIGN_OR_RETURN(std::shared_ptr<const SwitchKey> Key, get(Galois));
    Out.emplace(Galois, *Key);
  }
  return Status::success();
}

void RotationKeyCache::adoptKeys(std::map<uint64_t, SwitchKey> Keys) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &Item : Entries)
    dropLocked(Item.second);
  Entries.clear();
  for (auto &[Galois, Key] : Keys) {
    Entry E;
    E.Key = std::make_shared<const SwitchKey>(std::move(Key));
    E.LastUse = ++UseClock;
    E.Adopted = true;
    chargeLocked(E);
    Entries.emplace(Galois, std::move(E));
  }
}

RotationKeyCache::Stats RotationKeyCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  Stats S;
  S.Hits = Hits.load(std::memory_order_relaxed);
  S.Misses = Misses.load(std::memory_order_relaxed);
  S.Evictions = Evictions.load(std::memory_order_relaxed);
  S.ResidentBytes = ResidentBytes;
  S.DeclaredCount = Entries.size();
  for (const auto &[Galois, E] : Entries) {
    (void)Galois;
    if (E.Key)
      ++S.ResidentCount;
  }
  return S;
}
