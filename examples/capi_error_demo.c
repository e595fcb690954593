/* Demonstrates the C API's error channel: the same flat interface the
 * generated programs call, driven into a caller mistake on purpose. The
 * rotation below needs a Galois key that keygen never produced; instead
 * of crashing, the call returns NULL and ace_last_error() /
 * ace_last_error_message() describe exactly what is missing.
 *
 * Faults can also be injected from the environment without recompiling:
 *
 *   ACE_FAULT_INJECT=scale-drift ./capi_error_demo
 *
 * corrupts the first ciphertext's scale metadata; ace_encrypt checks
 * its own postcondition (fresh ciphertexts are at the context scale)
 * and reports the mismatch instead of letting the corruption escape.
 */
#include "fhe/CApi.h"

#include <stdio.h>

int main(void) {
  AceFheContext *ctx = ace_create(/*ring_degree=*/1024, /*slots=*/64,
                                  /*log_scale=*/45, /*log_q0=*/55,
                                  /*num_rescale=*/8, /*log_special=*/60,
                                  /*sparse_secret=*/0, /*seed=*/7);
  if (!ctx) {
    fprintf(stderr, "create failed: %s\n", ace_last_error_message());
    return 1;
  }

  /* Generate a rotation key for step 1 only. */
  int64_t steps[] = {1};
  if (ace_keygen(ctx, steps, NULL, 1, /*need_relin=*/1, /*need_conj=*/0,
                 /*bootstrap=*/0) != ACE_OK) {
    fprintf(stderr, "keygen failed: %s\n", ace_last_error_message());
    ace_destroy(ctx);
    return 1;
  }

  double x[64];
  for (int i = 0; i < 64; ++i)
    x[i] = 0.01 * i;
  AceFheCiphertext *ct = ace_encrypt(ctx, x, 64, 9);
  if (!ct) {
    fprintf(stderr, "encrypt failed: %s\n", ace_last_error_message());
    ace_destroy(ctx);
    return 1;
  }

  /* A second encrypt and an add; both succeed in a clean run (with
   * ACE_FAULT_INJECT=scale-drift the program never gets here: the very
   * first ace_encrypt rejects its corrupted output, naming both scales
   * and their ratio). */
  AceFheCiphertext *ct2 = ace_encrypt(ctx, x, 64, 9);
  AceFheCiphertext *sum = ct2 ? ace_add(ctx, ct, ct2) : NULL;
  if (sum) {
    printf("add: ok\n");
    ace_ct_free(sum);
  } else {
    printf("add rejected (code %d): %s\n", (int)ace_last_error(),
           ace_last_error_message());
  }
  ace_ct_free(ct2);

  /* Step 1 has its key: this works. */
  AceFheCiphertext *ok = ace_rotate(ctx, ct, 1);
  printf("rotate by 1: %s\n", ok ? "ok" : "failed");

  /* Step 5 has no key: this fails cleanly with a diagnostic. */
  AceFheCiphertext *bad = ace_rotate(ctx, ct, 5);
  if (!bad) {
    printf("rotate by 5 rejected (code %d): %s\n", (int)ace_last_error(),
           ace_last_error_message());
  } else {
    printf("unexpected: rotate by 5 succeeded\n");
    ace_ct_free(bad);
  }

  ace_ct_free(ok);
  ace_ct_free(ct);
  ace_destroy(ctx);
  printf("capi_error_demo OK\n");
  return 0;
}
