/* The row kernels of Bitset: loops over the words of a bitset that jump
   from member to member with a count-trailing-zeros instruction.

   A bitset is the OCaml record { words : int array; size : int }.  Word
   w holds members 63w .. 63w + 62 in bits 0..62 of an OCaml int, which
   are bits 1..63 of the tagged value.  The kernels read and write those
   words in place.  Every value they store is an immediate, so no write
   barrier (caml_modify) is needed; none allocates or raises, so the
   externals are [@@noalloc].  A failure is a negative result and the
   OCaml wrapper raises:
     -1       a row [off[h], off[h+1]) is not empty and leaves its array;
     -2 - j   element j of the id array is outside the target's universe.
   The wrappers check what a kernel relies on before the call (a slice
   inside its array, [off] long enough); the kernels check each row and
   each id before they read or add it. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#define BITS 63

#define SET_WORDS(s) Field(s, 0)
#define SET_SIZE(s) ((uintnat)Long_val(Field(s, 1)))

/* The members in word [w] of [words], as bits 0..62 (bit 63 clear). */
static inline uint64_t word_bits(value words, uintnat w)
{
  return (uint64_t)Field(words, w) >> 1;
}

static inline int has(value words, uintnat i)
{
  return ((uint64_t)Field(words, i / BITS) >> (i % BITS + 1)) & 1;
}

static inline void set_bit(value words, uintnat i)
{
  uintnat w = i / BITS;
  Field(words, w) = (value)((uintnat)Field(words, w)
                            | ((uintnat)1 << (i % BITS + 1)));
}

static inline void clear_bit(value words, uintnat w, unsigned b)
{
  Field(words, w) = (value)((uintnat)Field(words, w)
                            & ~((uintnat)1 << (b + 1)));
}

/* Branch-free SWAR popcount: the x86-64 baseline has no popcnt
   instruction, and __builtin_popcountll would call into libgcc. */
static inline uintnat popcount(uint64_t x)
{
  x = x - ((x >> 1) & 0x5555555555555555ULL);
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return (uintnat)((x * 0x0101010101010101ULL) >> 56);
}

/* One little-endian u32 load and store: plain ones on a little-endian
   host. */
static inline uint32_t load_u32_le(const unsigned char *p)
{
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  uint32_t x;
  memcpy(&x, p, 4);
  return x;
#else
  return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16
         | (uint32_t)p[3] << 24;
#endif
}

static inline void store_u32_le(unsigned char *p, uint32_t x)
{
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  memcpy(p, &x, 4);
#else
  p[0] = (unsigned char)x;
  p[1] = (unsigned char)(x >> 8);
  p[2] = (unsigned char)(x >> 16);
  p[3] = (unsigned char)(x >> 24);
#endif
}

/* Whether the row [lo, hi) is empty or inside an array of [n] cells. */
static inline int row_ok(intnat lo, intnat hi, uintnat n)
{
  return lo >= hi || (lo >= 0 && (uintnat)hi <= n);
}

/* Bitset.add_slice: the wrapper checked 0 <= start, len > 0 and
   start + len <= Array.length a. */
CAMLprim value qpgc_bitset_add_slice(value s, value a, value vstart,
                                     value vlen)
{
  value words = SET_WORDS(s);
  uintnat size = SET_SIZE(s);
  intnat stop = Long_val(vstart) + Long_val(vlen);
  for (intnat j = Long_val(vstart); j < stop; j++) {
    uintnat i = (uintnat)Long_val(Field(a, j));
    if (i >= size) return Val_long(-2 - j);
    set_bit(words, i);
  }
  return Val_long(0);
}

/* Bitset.union_rows: the wrapper checked that [off] has more than
   [size sel] cells, so off[h + 1] is in bounds for every member h. */
CAMLprim value qpgc_bitset_union_rows(value into, value off, value ids,
                                      value sel)
{
  value iw = SET_WORDS(into), sw = SET_WORDS(sel);
  uintnat isize = SET_SIZE(into), ssize = SET_SIZE(sel);
  uintnat nids = Wosize_val(ids), nw = Wosize_val(sw);
  for (uintnat w = 0; w < nw; w++) {
    for (uint64_t x = word_bits(sw, w); x != 0; x &= x - 1) {
      uintnat h = w * BITS + (uintnat)__builtin_ctzll(x);
      if (h >= ssize) return Val_long(0); /* no member is past the size */
      intnat lo = Long_val(Field(off, h)), hi = Long_val(Field(off, h + 1));
      if (!row_ok(lo, hi, nids)) return Val_long(-1);
      for (intnat j = lo; j < hi; j++) {
        uintnat i = (uintnat)Long_val(Field(ids, j));
        if (i >= isize) return Val_long(-2 - j);
        set_bit(iw, i);
      }
    }
  }
  return Val_long(0);
}

/* The lowest and highest members of a bitset with words [words], in
   [lo] and [hi]; [lo > hi] when it is empty. */
static void member_range(value words, uintnat *lo, uintnat *hi)
{
  uintnat nw = Wosize_val(words), first = 0, last = nw;
  while (first < nw && word_bits(words, first) == 0) first++;
  if (first == nw) {
    *lo = 1;
    *hi = 0;
    return;
  }
  while (word_bits(words, last - 1) == 0) last--;
  *lo = first * BITS + (uintnat)__builtin_ctzll(word_bits(words, first));
  *hi = (last - 1) * BITS + 63 - (uintnat)__builtin_clzll(word_bits(words, last - 1));
}

/* Bitset.keep_meeting, under the same check on [off].  [off] and [adj]
   are the int Bigarrays of a CSR store, read as untagged intnat; they
   may be mapped from a corrupt file, so every row and every id is
   checked here too.  The walk reads a copy of each word of [s] and
   clears members in [s] itself, so when [t] is [s] a member removed
   earlier no longer counts as a hit.  The members of [t] lie in
   [tlo, thi], read once per call: an id outside it is checked against
   [t]'s universe but needs no load of [t]'s words.  When [t] is [s],
   removals only shrink the true range, so the one read at the start
   still covers it. */
CAMLprim value qpgc_bitset_keep_meeting(value s, value voff, value vadj,
                                        value t)
{
  value sw = SET_WORDS(s), tw = SET_WORDS(t);
  const intnat *off = (const intnat *)Caml_ba_data_val(voff);
  const intnat *adj = (const intnat *)Caml_ba_data_val(vadj);
  uintnat ssize = SET_SIZE(s), tsize = SET_SIZE(t);
  uintnat nadj = (uintnat)Caml_ba_array_val(vadj)->dim[0];
  uintnat nw = Wosize_val(sw), tlo, thi;
  int dropped = 0;
  member_range(tw, &tlo, &thi);
  for (uintnat w = 0; w < nw; w++) {
    for (uint64_t x = word_bits(sw, w); x != 0; x &= x - 1) {
      unsigned b = (unsigned)__builtin_ctzll(x);
      uintnat v = w * BITS + b;
      if (v >= ssize) return Val_long(dropped);
      intnat lo = off[v], hi = off[v + 1], j;
      if (!row_ok(lo, hi, nadj)) return Val_long(-1);
      for (j = lo; j < hi; j++) {
        uintnat i = (uintnat)adj[j];
        if (i >= tsize) return Val_long(-2 - j);
        if (i >= tlo && i <= thi && has(tw, i)) break;
      }
      if (j >= hi) {
        clear_bit(sw, w, b);
        dropped = 1;
      }
    }
  }
  return Val_long(dropped);
}

static uintnat count_members(value words)
{
  uintnat nw = Wosize_val(words), count = 0;
  for (uintnat w = 0; w < nw; w++) count += popcount(word_bits(words, w));
  return count;
}

/* Bitset.cardinal. */
CAMLprim value qpgc_bitset_cardinal(value s)
{
  return Val_long(count_members(SET_WORDS(s)));
}

/* Bitset.write_u32_le: counts the members first, so that a row that
   does not fit writes nothing; -1 then. */
CAMLprim value qpgc_bitset_write_u32_le(value s, value b, value vpos)
{
  value words = SET_WORDS(s);
  uintnat nw = Wosize_val(words), len = caml_string_length(b);
  uintnat count = count_members(words);
  intnat pos = Long_val(vpos);
  if (pos < 0 || (uintnat)pos > len || count > (len - (uintnat)pos) / 4)
    return Val_long(-1);
  unsigned char *p = Bytes_val(b) + pos;
  for (uintnat w = 0; w < nw; w++) {
    for (uint64_t x = word_bits(words, w); x != 0; x &= x - 1) {
      uint32_t id = (uint32_t)(w * BITS + (uintnat)__builtin_ctzll(x));
      p[0] = (unsigned char)id;
      p[1] = (unsigned char)(id >> 8);
      p[2] = (unsigned char)(id >> 16);
      p[3] = (unsigned char)(id >> 24);
      p += 4;
    }
  }
  return Val_long(pos + 4 * (intnat)count);
}

/* Bitset.weight: the wrapper checked that [off] has more than [size s]
   cells.  A run of members [h, h + t) of one word weighs
   off[h + t] - off[h], two loads whatever its length. */
CAMLprim value qpgc_bitset_weight(value s, value off)
{
  value words = SET_WORDS(s);
  uintnat size = SET_SIZE(s), nw = Wosize_val(words);
  intnat total = 0;
  for (uintnat w = 0; w < nw; w++) {
    uint64_t x = word_bits(words, w);
    while (x != 0) {
      unsigned b = (unsigned)__builtin_ctzll(x);
      /* Bit 63 of x is clear, so the run ends by bit 62. */
      unsigned t = (unsigned)__builtin_ctzll(~(x >> b));
      uintnat h = w * BITS + b;
      if (h >= size) return Val_long(total); /* no member is past the size */
      if (t > size - h) t = (unsigned)(size - h);
      total += Long_val(Field(off, h + t)) - Long_val(Field(off, h));
      x &= ~(((UINT64_C(1) << t) - 1) << b);
    }
  }
  return Val_long(total);
}

/* Bitset.write_selected: [pairs] is bytes of 8-byte entries, a u32
   little-endian id then its u32 little-endian key.  The scan over
   entries [lo, hi) stores each id at [p] and adds 4 to [p] when bit
   [key] of [sel] is set, so the ids whose key is a member pack from
   [pos] on with no branch on the member test; it stops once [p] reaches
   [stop], the end the caller counted, so no store lands past it.  Ids
   are checked against the number of entries, keys against [sel]'s
   universe; the u32 fields count as one array, id j at 2j and key j at
   2j + 1, for the -2 - i code.  The wrapper checked that [pos .. stop)
   is inside [b].  A
   key's word is its high product by ceil(2^64 / 63), exact for every
   key below 2^58. */
CAMLprim value qpgc_bitset_write_selected(value sel, value pairs, value vlo,
                                          value vhi, value b, value vpos,
                                          value vstop)
{
  value sw = SET_WORDS(sel);
  uintnat ssize = SET_SIZE(sel), npairs = caml_string_length(pairs) / 8;
  intnat lo = Long_val(vlo), hi = Long_val(vhi), j;
  if (!row_ok(lo, hi, npairs)) return Val_long(-1);
  const unsigned char *in = Bytes_val(pairs);
  unsigned char *out = Bytes_val(b);
  uintnat p = (uintnat)Long_val(vpos), stop = (uintnat)Long_val(vstop);
  for (j = lo; j < hi && p < stop; j++) {
    uint32_t id = load_u32_le(in + 8 * j);
    uintnat key = load_u32_le(in + 8 * j + 4);
    if ((id >= npairs) | (key >= ssize))
      return Val_long(id >= npairs ? -2 - 2 * j : -3 - 2 * j);
    uintnat w = (uintnat)(((unsigned __int128)key * 0x0410410410410411ULL) >> 64);
    uintnat bit = ((uintnat)Field(sw, w) >> (key - w * BITS + 1)) & 1;
    store_u32_le(out + p, id);
    p += 4 * bit;
  }
  return Val_long((intnat)p);
}

CAMLprim value qpgc_bitset_write_selected_byte(value *argv, int argn)
{
  (void)argn;
  return qpgc_bitset_write_selected(argv[0], argv[1], argv[2], argv[3],
                                    argv[4], argv[5], argv[6]);
}
