//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flat C API over the ACEfhe runtime - the surface the generated C
/// programs call (paper Sec. 3.4: ANT-ACE converts ONNX models into C
/// for CPU execution against its library). Handles are opaque; every
/// ciphertext returned must be released with ace_ct_free.
///
/// Error channel: no call crashes on a caller mistake. Fallible calls
/// return NULL (handle-producing) or a nonzero AceErrorCode
/// (int-returning); the thread-local ace_last_error() /
/// ace_last_error_message() pair then describes the failure, naming the
/// offending levels, scales, or rotation steps. Passing a freed or
/// corrupted handle is detected best-effort via handle magic tags.
///
/// Process settings - worker threads, the memory budget, the limb pool,
/// traces and the Prometheus exposition - come from the ACE_*
/// environment variables (docs/architecture.md §5). Under a memory
/// budget, an allocation that does not fit even after reclaiming cold
/// rotation keys fails the call with ACE_ERR_RESOURCE_EXHAUSTED instead
/// of aborting the process (docs/memory.md).
///
//===----------------------------------------------------------------------===//

#ifndef ACE_FHE_CAPI_H
#define ACE_FHE_CAPI_H

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef struct AceFheContext AceFheContext;
typedef struct AceFheCiphertext AceFheCiphertext;

/// Failure categories, mirroring the C++ ace::ErrorCode enum.
typedef enum AceErrorCode {
  ACE_OK = 0,
  ACE_ERR_INVALID_ARGUMENT = 1,
  ACE_ERR_LEVEL_MISMATCH = 2,
  ACE_ERR_SCALE_MISMATCH = 3,
  ACE_ERR_KEY_MISSING = 4,
  ACE_ERR_DEPTH_EXHAUSTED = 5,
  ACE_ERR_RESOURCE_EXHAUSTED = 6,
  ACE_ERR_INTERNAL = 7,
  ACE_ERR_DATA_CORRUPT = 8,
  ACE_ERR_IO = 9,
  ACE_ERR_CANCELLED = 10,
  ACE_ERR_DEADLINE_EXCEEDED = 11,
} AceErrorCode;

/// The code of the last failed call on this thread (ACE_OK when no call
/// failed since ace_clear_error). Sticky: successful calls do not reset
/// it.
AceErrorCode ace_last_error(void);

/// Human-readable description of the last failure on this thread; the
/// empty string when none. The pointer stays valid until the next failing
/// call on the same thread.
const char *ace_last_error_message(void);

/// Resets the thread's error state to ACE_OK.
void ace_clear_error(void);

/// Creates a runtime context (parameters as selected by the compiler).
/// Returns NULL with the error channel set on invalid parameters.
AceFheContext *ace_create(size_t ring_degree, size_t slots, int log_scale,
                          int log_q0, int num_rescale, int log_special,
                          int sparse_secret, uint64_t seed);
void ace_destroy(AceFheContext *ctx);

/// Generates keys: rotation steps (with optional per-step level caps via
/// step_maxq, may be NULL), relinearization/conjugation, and - when
/// bootstrap is nonzero - the key material of the bootstrapping
/// configuration the compiler plans with. A step declared again at a
/// deeper level than an earlier call gave it gets a wider key. Rotation
/// keys count against the memory budget: ACE_ERR_RESOURCE_EXHAUSTED when
/// they do not fit. Returns ACE_OK or an error code.
int ace_keygen(AceFheContext *ctx, const int64_t *steps,
               const size_t *step_maxq, size_t nsteps, int need_relin,
               int need_conj, int bootstrap);

/// Encrypts slot values (length = slot count) at numq active primes.
AceFheCiphertext *ace_encrypt(AceFheContext *ctx, const double *slots,
                              size_t n, size_t numq);
/// Decrypts into out (length = slot count). Returns ACE_OK or an error
/// code.
int ace_decrypt(AceFheContext *ctx, const AceFheCiphertext *ct,
                double *out, size_t n);
void ace_ct_free(AceFheCiphertext *ct);

/// Homomorphic operations (paper Table 6). Results are fresh handles;
/// NULL with the error channel set on failure.
AceFheCiphertext *ace_rotate(AceFheContext *ctx, const AceFheCiphertext *a,
                             int64_t steps);
AceFheCiphertext *ace_add(AceFheContext *ctx, const AceFheCiphertext *a,
                          const AceFheCiphertext *b);
AceFheCiphertext *ace_sub(AceFheContext *ctx, const AceFheCiphertext *a,
                          const AceFheCiphertext *b);
AceFheCiphertext *ace_mul(AceFheContext *ctx, const AceFheCiphertext *a,
                          const AceFheCiphertext *b); /* includes relin */
AceFheCiphertext *ace_mul_plain(AceFheContext *ctx,
                                const AceFheCiphertext *a,
                                const double *vec, size_t n);
AceFheCiphertext *ace_add_plain(AceFheContext *ctx,
                                const AceFheCiphertext *a,
                                const double *vec, size_t n);
AceFheCiphertext *ace_mul_const(AceFheContext *ctx,
                                const AceFheCiphertext *a, double c);
AceFheCiphertext *ace_add_const(AceFheContext *ctx,
                                const AceFheCiphertext *a, double c);
AceFheCiphertext *ace_rescale(AceFheContext *ctx, const AceFheCiphertext *a);
AceFheCiphertext *ace_modswitch_to(AceFheContext *ctx,
                                   const AceFheCiphertext *a, size_t numq);
AceFheCiphertext *ace_bootstrap(AceFheContext *ctx,
                                const AceFheCiphertext *a, size_t target);

/// \name Serialization (see docs/serialization.md)
/// File-based save/load over the hardened wire format. Loads never crash
/// on malformed or tampered files: they fail with ACE_ERR_DATA_CORRUPT
/// (bad bytes, bad checksum, out-of-range fields) or ACE_ERR_IO (file
/// cannot be opened/read/written) and a descriptive message on the error
/// channel.
/// @{

/// Writes the context's parameters to path. Returns ACE_OK or an error
/// code.
int ace_params_save(AceFheContext *ctx, const char *path);
/// Rebuilds a context from parameters written by ace_params_save. The
/// fresh context has its own newly generated keys (key material is
/// deliberately NOT part of the params object); call ace_keygen or
/// ace_key_load afterwards. Returns NULL with the error channel set on
/// failure.
AceFheContext *ace_params_load(const char *path);
/// Writes one ciphertext to path. The ciphertext must belong to ctx.
int ace_ct_save(AceFheContext *ctx, const AceFheCiphertext *ct,
                const char *path);
/// Reads one ciphertext written by ace_ct_save. The file must have been
/// produced under the same parameters as ctx; every structural field is
/// validated against ctx before the handle is returned.
AceFheCiphertext *ace_ct_load(AceFheContext *ctx, const char *path);
/// Writes the context's public key followed by its evaluation-key set
/// (two concatenated framed objects) to path.
int ace_key_save(AceFheContext *ctx, const char *path);
/// Replaces the context's public key and evaluation-key set with the
/// contents of a file written by ace_key_save. The loaded rotation keys
/// may belong to another context's secret, so they are never evicted
/// under memory pressure.
int ace_key_load(AceFheContext *ctx, const char *path);

/// @}

/// Loads the external weight blob written next to the generated program
/// (paper Sec. 3.4 stores weights externally). Returns a malloc'd array
/// the caller frees; count receives the number of doubles. NULL with the
/// error channel set when the file cannot be read.
double *ace_load_weights(const char *path, size_t *count);

/// \name Telemetry (see docs/observability.md)
/// The generated C programs call these so traces and op counts from the
/// generated-C path match the in-process executor. ACE_TRACE and
/// ACE_TELEMETRY also enable collection (docs/architecture.md §5).
/// @{

/// Enables (nonzero) or disables (zero) telemetry collection.
void ace_telemetry_enable(int on);
/// Telemetry summary as a malloc'd string the caller frees; text, or
/// JSON when as_json is nonzero.
char *ace_telemetry_report(int as_json);

/// @}

/// \name Poly-ops kernel backend (see docs/kernels.md)
/// Every FHE hot loop (NTT butterflies, pointwise limb arithmetic, the
/// key-switch inner product) runs through a pluggable kernel backend:
/// "scalar" (the portable reference) or "simd" (AVX2/NEON, selected by
/// CPUID). Backends are bit-identical, so the choice only affects
/// speed. It is per-process - the default resolves the
/// ACE_POLY_BACKEND environment variable on first use.
/// @{

/// Selects the backend by name: "scalar", "simd", or "auto" (simd when
/// supported). Returns ACE_OK, or ACE_ERR_INVALID_ARGUMENT for an
/// unknown name or for "simd" on a host without vector support (the
/// previous selection stays active). Safe to call between (not during)
/// runtime calls.
int ace_set_poly_backend(const char *name);
/// The active backend name ("scalar" or "simd"); never NULL.
const char *ace_poly_backend(void);

/// @}

#ifdef __cplusplus
} // extern "C"
#endif

#endif // ACE_FHE_CAPI_H
