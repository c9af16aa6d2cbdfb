/* One Adam update of a float32 parameter array, in place.

   Each element goes through the same 14 float32 roundings, in the same
   order, as nn._adam_numpy's passes over the whole array:

     mom = mom * b1 + g * omb1
     vel = vel * b2 + (g * g) * omb2
     (every flush-th step: mom and vel times (|x| >= FLT_MIN))
     p = p - ((mom / c1) * lr) / (sqrt(vel / c2) + eps)

   The caller passes every scalar already rounded to float.  Build with
   -ffp-contract=off, so that no multiply and add fuse into one rounding,
   and without -ffast-math.  nn checks the bits on a probe before it uses
   the kernel. */

#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* x times 1.0 where |x| >= FLT_MIN, else times 0.0: a subnormal becomes a
   zero of its sign, and a NaN stays NaN.  The factor is made from the
   bits: with the default -ftrapping-math a compiler turns x * (float)c
   into a branch around x * 0, which keeps the flush loop from
   vectorizing. */
static inline float flushed(float x)
{
    uint32_t one = -(uint32_t)(fabsf(x) >= FLT_MIN) & 0x3f800000u;
    float k;
    memcpy(&k, &one, sizeof k);
    return x * k;
}

void adam_f32(float *restrict p, const float *restrict g, float *restrict mom,
              float *restrict vel, size_t n, float b1, float omb1, float b2,
              float omb2, float c1, float c2, float eps, float lr, int flush)
{
    for (size_t i = 0; i < n; i++) {
        float gi = g[i];
        float m = mom[i] * b1 + gi * omb1;
        float v = vel[i] * b2 + (gi * gi) * omb2;
        if (flush) {
            m = flushed(m);
            v = flushed(v);
        }
        mom[i] = m;
        vel[i] = v;
        p[i] = p[i] - ((m / c1) * lr) / (sqrtf(v / c2) + eps);
    }
}
