/* Float32 data-path kernels for Semantics.

   The replay hot loops — copies, the in-place reduce, and the float64 ->
   float32 boundary conversion of writes — are conversion-bound through the
   Bigarray accessors in OCaml (every element pays a cvtss2sd/cvtsd2ss
   round trip through double). These C loops keep the work in single
   precision; the wide paths are restrict-qualified and unrolled so the
   compiler vectorizes the slab loops, with a runtime overlap check
   falling back to order-exact scalar loops (overlapping ranges must
   behave exactly like the OCaml reference's element-by-element order).

   All stubs are [@@noalloc]: they touch no OCaml heap values beyond
   reading the already-pinned bigarray payloads and an unboxed float
   array. */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <string.h>
#include <stdint.h>

/* Ranges [a, a+n) and [b, b+n) of float do not intersect. The uintptr_t
   comparison is the portable-in-practice form of the cross-object
   pointer compare every overlap test needs. */
static inline int disjoint2(const float *a, const float *b, long n)
{
  uintptr_t lo_a = (uintptr_t)a, hi_a = (uintptr_t)(a + n);
  uintptr_t lo_b = (uintptr_t)b, hi_b = (uintptr_t)(b + n);
  return hi_a <= lo_b || hi_b <= lo_a;
}

/* Wide in-place reduce: dst += src with no aliasing, 8-way unrolled so
   -O3 turns the body into full-width vector adds. */
static void reduce_wide(float *restrict dst, const float *restrict src, long n)
{
  long i = 0;
  for (; i + 8 <= n; i += 8) {
    dst[i + 0] += src[i + 0];
    dst[i + 1] += src[i + 1];
    dst[i + 2] += src[i + 2];
    dst[i + 3] += src[i + 3];
    dst[i + 4] += src[i + 4];
    dst[i + 5] += src[i + 5];
    dst[i + 6] += src[i + 6];
    dst[i + 7] += src[i + 7];
  }
  for (; i < n; i++) dst[i] += src[i];
}

/* dst[doff..doff+len) += src[soff..soff+len). Disjoint ranges take the
   wide path; overlapping ranges keep the strict forward element order,
   exactly like the OCaml reference loop (and like executing a batched
   run of contiguous reduces one after another). */
CAMLprim value blink_f32_reduce(value vdst, value vdoff, value vsrc,
                                value vsoff, value vlen)
{
  float *dst = (float *)Caml_ba_data_val(vdst) + Long_val(vdoff);
  const float *src = (const float *)Caml_ba_data_val(vsrc) + Long_val(vsoff);
  long n = Long_val(vlen);
  if (disjoint2(dst, src, n)) reduce_wide(dst, src, n);
  else
    for (long i = 0; i < n; i++) dst[i] += src[i];
  return Val_unit;
}

/* dst[doff..doff+len) = src[soff..soff+len). memcpy (the widest copy
   available) when the ranges are disjoint, with a short unrolled
   restrict loop for tiny lengths where the call overhead dominates;
   memmove semantics under overlap — bit-identical to Bigarray blit and
   to the seed's element loops in both overlap directions. */
CAMLprim value blink_f32_copy(value vdst, value vdoff, value vsrc,
                              value vsoff, value vlen)
{
  float *dst = (float *)Caml_ba_data_val(vdst) + Long_val(vdoff);
  const float *src = (const float *)Caml_ba_data_val(vsrc) + Long_val(vsoff);
  long n = Long_val(vlen);
  if (disjoint2(dst, src, n)) {
    if (n < 32) {
      float *restrict d = dst;
      const float *restrict s = src;
      long i = 0;
      for (; i + 4 <= n; i += 4) {
        d[i + 0] = s[i + 0];
        d[i + 1] = s[i + 1];
        d[i + 2] = s[i + 2];
        d[i + 3] = s[i + 3];
      }
      for (; i < n; i++) d[i] = s[i];
    } else
      memcpy(dst, src, (size_t)n * sizeof(float));
  } else
    memmove(dst, src, (size_t)n * sizeof(float));
  return Val_unit;
}

/* dst[doff..doff+len) = (float)src[0..len): src is an OCaml float array
   (a flat double payload); unrolled so the narrowing converts run as
   packed cvtpd2ps. */
CAMLprim value blink_f32_of_f64(value vdst, value vdoff, value vsrc,
                                value vlen)
{
  float *restrict dst = (float *)Caml_ba_data_val(vdst) + Long_val(vdoff);
  const double *restrict src = (const double *)vsrc;
  long n = Long_val(vlen);
  long i = 0;
  for (; i + 8 <= n; i += 8) {
    dst[i + 0] = (float)src[i + 0];
    dst[i + 1] = (float)src[i + 1];
    dst[i + 2] = (float)src[i + 2];
    dst[i + 3] = (float)src[i + 3];
    dst[i + 4] = (float)src[i + 4];
    dst[i + 5] = (float)src[i + 5];
    dst[i + 6] = (float)src[i + 6];
    dst[i + 7] = (float)src[i + 7];
  }
  for (; i < n; i++) dst[i] = (float)src[i];
  return Val_unit;
}
