/* SHA-256 compression function (FIPS 180-4 §6.2.2), portable C99.

   One call absorbs [nblocks] consecutive 64-byte blocks of [src] from
   byte offset [off] into the chaining state [h]: 32 bytes holding the
   eight state words big-endian, exactly the digest layout, so the
   OCaml side never converts them.  The OCaml caller checks every
   bound; the stub allocates nothing and never calls back into the
   runtime, so it is declared [@@noalloc]. */

#include <stdint.h>
#include <caml/mlvalues.h>

static const uint32_t K[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))
#define BSIG0(x) (ROTR(x, 2) ^ ROTR(x, 13) ^ ROTR(x, 22))
#define BSIG1(x) (ROTR(x, 6) ^ ROTR(x, 11) ^ ROTR(x, 25))
#define SSIG0(x) (ROTR(x, 7) ^ ROTR(x, 18) ^ ((x) >> 3))
#define SSIG1(x) (ROTR(x, 17) ^ ROTR(x, 19) ^ ((x) >> 10))
#define CH(x, y, z) ((z) ^ ((x) & ((y) ^ (z))))
#define MAJ(x, y, z) (((x) & (y)) | ((z) & ((x) | (y))))

static uint32_t load_be32(const unsigned char *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
       | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static void store_be32(unsigned char *p, uint32_t v)
{
  p[0] = (unsigned char)(v >> 24);
  p[1] = (unsigned char)(v >> 16);
  p[2] = (unsigned char)(v >> 8);
  p[3] = (unsigned char)v;
}

/* Round i.  Instead of shifting the eight working variables down one
   place per round, each round of an unrolled group of eight names
   them one place later, so a round only writes [d] and [h]. */
#define ROUND(a, b, c, d, e, f, g, h, i)                              \
  do {                                                                \
    uint32_t t1 = (h) + BSIG1(e) + CH(e, f, g) + K[i] + w[(i) & 15];  \
    (d) += t1;                                                        \
    (h) = t1 + BSIG0(a) + MAJ(a, b, c);                               \
  } while (0)

/* The message schedule lives in a 16-word ring: word i overwrites word
   i - 16, the only one no later word still needs. */
#define EXPAND(i)                                                     \
  (w[(i) & 15] += SSIG1(w[((i) - 2) & 15]) + w[((i) - 7) & 15]        \
                  + SSIG0(w[((i) - 15) & 15]))

static void compress(uint32_t s[8], const unsigned char *block)
{
  uint32_t w[16];
  uint32_t a = s[0], b = s[1], c = s[2], d = s[3];
  uint32_t e = s[4], f = s[5], g = s[6], h = s[7];
  int i;

  for (i = 0; i < 16; i++) w[i] = load_be32(block + 4 * i);
  for (i = 0; i < 64; i += 8) {
    if (i >= 16) {
      EXPAND(i); EXPAND(i + 1); EXPAND(i + 2); EXPAND(i + 3);
      EXPAND(i + 4); EXPAND(i + 5); EXPAND(i + 6); EXPAND(i + 7);
    }
    ROUND(a, b, c, d, e, f, g, h, i);
    ROUND(h, a, b, c, d, e, f, g, i + 1);
    ROUND(g, h, a, b, c, d, e, f, i + 2);
    ROUND(f, g, h, a, b, c, d, e, i + 3);
    ROUND(e, f, g, h, a, b, c, d, i + 4);
    ROUND(d, e, f, g, h, a, b, c, i + 5);
    ROUND(c, d, e, f, g, h, a, b, i + 6);
    ROUND(b, c, d, e, f, g, h, a, i + 7);
  }
  s[0] += a; s[1] += b; s[2] += c; s[3] += d;
  s[4] += e; s[5] += f; s[6] += g; s[7] += h;
}

/* compress : Bytes.t (32-byte state) -> string -> off -> nblocks -> unit */
value unicert_sha256_compress(value vh, value vsrc, value voff, value vn)
{
  unsigned char *hb = Bytes_val(vh);
  const unsigned char *src =
    (const unsigned char *)String_val(vsrc) + Long_val(voff);
  long n = Long_val(vn);
  uint32_t s[8];
  int i;

  for (i = 0; i < 8; i++) s[i] = load_be32(hb + 4 * i);
  for (; n > 0; n--, src += 64) compress(s, src);
  for (i = 0; i < 8; i++) store_be32(hb + 4 * i, s[i]);
  return Val_unit;
}
