#include "exec/simd.h"

#include <atomic>

#if CALCITE_SIMD_LEVEL >= 1
#include <immintrin.h>
#endif

namespace calcite {
namespace simd {

namespace {

#if CALCITE_SIMD_LEVEL > 0
std::atomic<bool> g_simd_enabled{true};
#endif

// ---------------------------------------------------------------------------
// Scalar reference implementations (always compiled; the semantic anchor)
// ---------------------------------------------------------------------------

bool CmpPasses(Cmp op, int c) {
  switch (op) {
    case Cmp::kEq:
      return c == 0;
    case Cmp::kNe:
      return c != 0;
    case Cmp::kLt:
      return c < 0;
    case Cmp::kLe:
      return c <= 0;
    case Cmp::kGt:
      return c > 0;
    case Cmp::kGe:
      return c >= 0;
  }
  return false;
}

template <typename T>
void CmpScalar(Cmp op, const T* a, const T* b, size_t n, uint8_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const int c = a[i] < b[i] ? -1 : (a[i] > b[i] ? 1 : 0);
    out[i] = CmpPasses(op, c) ? 1 : 0;
  }
}

template <typename T>
void CmpLitScalar(Cmp op, const T* a, T lit, size_t n, uint8_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const int c = a[i] < lit ? -1 : (a[i] > lit ? 1 : 0);
    out[i] = CmpPasses(op, c) ? 1 : 0;
  }
}

template <typename T>
void ArithScalar(Arith op, const T* a, const T* b, size_t n, T* out) {
  switch (op) {
    case Arith::kAdd:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
      break;
    case Arith::kSub:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
      break;
    case Arith::kMul:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
      break;
  }
}

/// Inclusive bounds are NOT(strictly outside) so that for doubles a NaN
/// lane (all orderings false) passes inclusive and fails strict bounds,
/// matching the three-way CmpPasses semantics kernel-for-kernel.
template <typename T>
void InRangeScalar(const T* v, T lo, bool lo_strict, T hi, bool hi_strict,
                   size_t n, uint8_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const bool above = lo_strict ? v[i] > lo : !(v[i] < lo);
    const bool below = hi_strict ? v[i] < hi : !(v[i] > hi);
    out[i] = (above && below) ? 1 : 0;
  }
}

void OrMasksScalar(const uint8_t* a, const uint8_t* b, size_t n,
                   uint8_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = (a[i] | b[i]) ? 1 : 0;
}

void AndNotMaskScalar(const uint8_t* value, const uint8_t* off, size_t n,
                      uint8_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = (value[i] && !off[i]) ? 1 : 0;
}

template <typename T>
void MaskZeroScalar(T* data, const uint8_t* mask, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (mask[i]) data[i] = T{};
  }
}

size_t MaskToSelScalar(const uint8_t* mask, size_t n, uint32_t* out) {
  size_t c = 0;
  for (size_t i = 0; i < n; ++i) {
    out[c] = static_cast<uint32_t>(i);  // branch-free: overwritten if dropped
    c += mask[i] != 0;
  }
  return c;
}

void HashI64Scalar(const int64_t* v, size_t n, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = HashI64One(v[i]);
}

// ---------------------------------------------------------------------------
// Vector implementations
// ---------------------------------------------------------------------------

#if CALCITE_SIMD_LEVEL >= 1
/// Combines per-lane less-than / greater-than bit masks into the result bits
/// of a three-way comparison; `all` is the mask of every lane in the block.
/// Eq = neither lt nor gt, so NaN lanes (lt=gt=0 under ordered-quiet
/// predicates) pass kEq/kLe/kGe — the scalar Cmp3 semantics.
inline uint32_t CombineCmpBits(Cmp op, uint32_t lt, uint32_t gt,
                               uint32_t all) {
  switch (op) {
    case Cmp::kEq:
      return all & ~(lt | gt);
    case Cmp::kNe:
      return lt | gt;
    case Cmp::kLt:
      return lt;
    case Cmp::kLe:
      return all & ~gt;
    case Cmp::kGt:
      return gt;
    case Cmp::kGe:
      return all & ~lt;
  }
  return 0;
}

/// Little-endian expansion of a 4-bit lane mask to four 0/1 bytes.
constexpr uint32_t kNibbleBytes[16] = {
    0x00000000u, 0x00000001u, 0x00000100u, 0x00000101u,
    0x00010000u, 0x00010001u, 0x00010100u, 0x00010101u,
    0x01000000u, 0x01000001u, 0x01000100u, 0x01000101u,
    0x01010000u, 0x01010001u, 0x01010100u, 0x01010101u,
};

inline void StoreNibbleBytes(uint8_t* out, uint32_t bits4) {
  const uint32_t w = kNibbleBytes[bits4 & 0xF];
  std::memcpy(out, &w, sizeof(w));
}
#endif  // CALCITE_SIMD_LEVEL >= 1

#if CALCITE_SIMD_LEVEL >= 2
namespace avx2 {

inline __m256i LoadU(const void* p) {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}
inline void StoreU(void* p, __m256i v) {
  _mm256_storeu_si256(static_cast<__m256i*>(p), v);
}
/// One bit per 64-bit lane.
inline uint32_t Mask4(__m256i m) {
  return static_cast<uint32_t>(_mm256_movemask_pd(_mm256_castsi256_pd(m)));
}

void CmpI64(Cmp op, const int64_t* a, const int64_t* b, size_t n,
            uint8_t* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = LoadU(a + i);
    const __m256i vb = LoadU(b + i);
    const uint32_t lt = Mask4(_mm256_cmpgt_epi64(vb, va));
    const uint32_t gt = Mask4(_mm256_cmpgt_epi64(va, vb));
    StoreNibbleBytes(out + i, CombineCmpBits(op, lt, gt, 0xF));
  }
  CmpScalar(op, a + i, b + i, n - i, out + i);
}

void CmpI64Lit(Cmp op, const int64_t* a, int64_t lit, size_t n,
               uint8_t* out) {
  const __m256i vb = _mm256_set1_epi64x(lit);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = LoadU(a + i);
    const uint32_t lt = Mask4(_mm256_cmpgt_epi64(vb, va));
    const uint32_t gt = Mask4(_mm256_cmpgt_epi64(va, vb));
    StoreNibbleBytes(out + i, CombineCmpBits(op, lt, gt, 0xF));
  }
  CmpLitScalar(op, a + i, lit, n - i, out + i);
}

void CmpF64(Cmp op, const double* a, const double* b, size_t n,
            uint8_t* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d va = _mm256_loadu_pd(a + i);
    const __m256d vb = _mm256_loadu_pd(b + i);
    const uint32_t lt = static_cast<uint32_t>(
        _mm256_movemask_pd(_mm256_cmp_pd(va, vb, _CMP_LT_OQ)));
    const uint32_t gt = static_cast<uint32_t>(
        _mm256_movemask_pd(_mm256_cmp_pd(va, vb, _CMP_GT_OQ)));
    StoreNibbleBytes(out + i, CombineCmpBits(op, lt, gt, 0xF));
  }
  CmpScalar(op, a + i, b + i, n - i, out + i);
}

void CmpF64Lit(Cmp op, const double* a, double lit, size_t n, uint8_t* out) {
  const __m256d vb = _mm256_set1_pd(lit);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d va = _mm256_loadu_pd(a + i);
    const uint32_t lt = static_cast<uint32_t>(
        _mm256_movemask_pd(_mm256_cmp_pd(va, vb, _CMP_LT_OQ)));
    const uint32_t gt = static_cast<uint32_t>(
        _mm256_movemask_pd(_mm256_cmp_pd(va, vb, _CMP_GT_OQ)));
    StoreNibbleBytes(out + i, CombineCmpBits(op, lt, gt, 0xF));
  }
  CmpLitScalar(op, a + i, lit, n - i, out + i);
}

/// Low 64 bits of a 64x64 multiply, synthesized from 32-bit multiplies
/// (AVX2 has no 64-bit mullo).
inline __m256i Mul64(__m256i a, __m256i b) {
  const __m256i ahi = _mm256_srli_epi64(a, 32);
  const __m256i bhi = _mm256_srli_epi64(b, 32);
  const __m256i ll = _mm256_mul_epu32(a, b);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(a, bhi), _mm256_mul_epu32(ahi, b));
  return _mm256_add_epi64(ll, _mm256_slli_epi64(cross, 32));
}

void ArithI64(Arith op, const int64_t* a, const int64_t* b, size_t n,
              int64_t* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = LoadU(a + i);
    const __m256i vb = LoadU(b + i);
    __m256i r;
    switch (op) {
      case Arith::kAdd:
        r = _mm256_add_epi64(va, vb);
        break;
      case Arith::kSub:
        r = _mm256_sub_epi64(va, vb);
        break;
      case Arith::kMul:
      default:  // kMul is the last Arith; no value leaves r unset
        r = Mul64(va, vb);
        break;
    }
    StoreU(out + i, r);
  }
  ArithScalar(op, a + i, b + i, n - i, out + i);
}

void ArithF64(Arith op, const double* a, const double* b, size_t n,
              double* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d va = _mm256_loadu_pd(a + i);
    const __m256d vb = _mm256_loadu_pd(b + i);
    __m256d r;
    switch (op) {
      case Arith::kAdd:
        r = _mm256_add_pd(va, vb);
        break;
      case Arith::kSub:
        r = _mm256_sub_pd(va, vb);
        break;
      case Arith::kMul:
      default:  // kMul is the last Arith; no value leaves r unset
        r = _mm256_mul_pd(va, vb);
        break;
    }
    _mm256_storeu_pd(out + i, r);
  }
  ArithScalar(op, a + i, b + i, n - i, out + i);
}

void InRangeI64(const int64_t* v, int64_t lo, bool lo_strict, int64_t hi,
                bool hi_strict, size_t n, uint8_t* out) {
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x = LoadU(v + i);
    const uint32_t above =
        lo_strict ? Mask4(_mm256_cmpgt_epi64(x, vlo))
                  : (0xFu & ~Mask4(_mm256_cmpgt_epi64(vlo, x)));
    const uint32_t below =
        hi_strict ? Mask4(_mm256_cmpgt_epi64(vhi, x))
                  : (0xFu & ~Mask4(_mm256_cmpgt_epi64(x, vhi)));
    StoreNibbleBytes(out + i, above & below);
  }
  InRangeScalar(v + i, lo, lo_strict, hi, hi_strict, n - i, out + i);
}

void InRangeF64(const double* v, double lo, bool lo_strict, double hi,
                bool hi_strict, size_t n, uint8_t* out) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(v + i);
    // Ordered-quiet predicates: NaN lanes raise neither gt nor lt bits, so
    // they pass the inclusive forms (~strictly-outside) and fail the strict
    // ones — the InRangeScalar/CombineCmpBits semantics.
    const uint32_t above =
        lo_strict
            ? static_cast<uint32_t>(
                  _mm256_movemask_pd(_mm256_cmp_pd(x, vlo, _CMP_GT_OQ)))
            : (0xFu & ~static_cast<uint32_t>(_mm256_movemask_pd(
                          _mm256_cmp_pd(x, vlo, _CMP_LT_OQ))));
    const uint32_t below =
        hi_strict
            ? static_cast<uint32_t>(
                  _mm256_movemask_pd(_mm256_cmp_pd(x, vhi, _CMP_LT_OQ)))
            : (0xFu & ~static_cast<uint32_t>(_mm256_movemask_pd(
                          _mm256_cmp_pd(x, vhi, _CMP_GT_OQ))));
    StoreNibbleBytes(out + i, above & below);
  }
  InRangeScalar(v + i, lo, lo_strict, hi, hi_strict, n - i, out + i);
}

void OrMasks(const uint8_t* a, const uint8_t* b, size_t n, uint8_t* out) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi8(1);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v = _mm256_or_si256(LoadU(a + i), LoadU(b + i));
    const __m256i is_zero = _mm256_cmpeq_epi8(v, zero);
    StoreU(out + i, _mm256_andnot_si256(is_zero, one));
  }
  OrMasksScalar(a + i, b + i, n - i, out + i);
}

void AndNotMask(const uint8_t* value, const uint8_t* off, size_t n,
                uint8_t* out) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi8(1);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i value_zero = _mm256_cmpeq_epi8(LoadU(value + i), zero);
    const __m256i off_zero = _mm256_cmpeq_epi8(LoadU(off + i), zero);
    // value nonzero AND off zero.
    const __m256i keep = _mm256_andnot_si256(value_zero, off_zero);
    StoreU(out + i, _mm256_and_si256(keep, one));
  }
  AndNotMaskScalar(value + i, off + i, n - i, out + i);
}

void MaskZeroU8(uint8_t* data, const uint8_t* mask, size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i keep = _mm256_cmpeq_epi8(LoadU(mask + i), zero);
    StoreU(data + i, _mm256_and_si256(LoadU(data + i), keep));
  }
  MaskZeroScalar(data + i, mask + i, n - i);
}

/// Widens 4 mask bytes to a per-64-bit-lane keep mask (all-ones where the
/// byte is zero).
inline __m256i KeepLanes4(const uint8_t* mask) {
  uint32_t w;
  std::memcpy(&w, mask, sizeof(w));
  const __m256i m64 = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(w)));
  return _mm256_cmpeq_epi64(m64, _mm256_setzero_si256());
}

void MaskZeroI64(int64_t* data, const uint8_t* mask, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    StoreU(data + i, _mm256_and_si256(LoadU(data + i), KeepLanes4(mask + i)));
  }
  MaskZeroScalar(data + i, mask + i, n - i);
}

void MaskZeroF64(double* data, const uint8_t* mask, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_loadu_pd(data + i);
    const __m256d keep = _mm256_castsi256_pd(KeepLanes4(mask + i));
    _mm256_storeu_pd(data + i, _mm256_and_pd(d, keep));
  }
  MaskZeroScalar(data + i, mask + i, n - i);
}

/// Bit pattern -> packed lane indexes, for the table-driven selection refill:
/// idx[m] lists the set bit positions of m, cnt[m] counts them.
struct SelLut {
  uint8_t idx[256][8];
  uint8_t cnt[256];
};

constexpr SelLut MakeSelLut() {
  SelLut t{};
  for (int m = 0; m < 256; ++m) {
    int c = 0;
    for (int b = 0; b < 8; ++b) {
      if (m & (1 << b)) t.idx[m][c++] = static_cast<uint8_t>(b);
    }
    t.cnt[m] = static_cast<uint8_t>(c);
    for (; c < 8; ++c) t.idx[m][c] = 0;
  }
  return t;
}

constexpr SelLut kSelLut = MakeSelLut();

size_t MaskToSel(const uint8_t* mask, size_t n, uint32_t* out) {
  size_t count = 0;
  size_t i = 0;
  const __m256i zero = _mm256_setzero_si256();
  for (; i + 32 <= n; i += 32) {
    const __m256i v = LoadU(mask + i);
    // Bit j of m set <=> mask[i + j] != 0.
    const uint32_t m = ~static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, zero)));
    for (int g = 0; g < 4; ++g) {
      const uint32_t byte = (m >> (g * 8)) & 0xFF;
      const __m128i packed = _mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(kSelLut.idx[byte]));
      __m256i idx = _mm256_cvtepu8_epi32(packed);
      idx = _mm256_add_epi32(idx,
                             _mm256_set1_epi32(static_cast<int>(i + g * 8)));
      // Full 8-lane store; surplus lanes are overwritten by the next group
      // (the out buffer carries kSelSlack entries of slack for the last).
      StoreU(out + count, idx);
      count += kSelLut.cnt[byte];
    }
  }
  for (; i < n; ++i) {
    out[count] = static_cast<uint32_t>(i);
    count += mask[i] != 0;
  }
  return count;
}

inline __m256i Mix64Vec(__m256i x) {
  x = _mm256_add_epi64(
      x, _mm256_set1_epi64x(static_cast<long long>(0x9e3779b97f4a7c15ULL)));
  x = Mul64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)),
            _mm256_set1_epi64x(static_cast<long long>(0xbf58476d1ce4e5b9ULL)));
  x = Mul64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)),
            _mm256_set1_epi64x(static_cast<long long>(0x94d049bb133111ebULL)));
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

void HashI64(const int64_t* v, size_t n, uint64_t* out) {
  const __m256i hi = _mm256_set1_epi64x(kExactIntBound);
  const __m256i lo = _mm256_set1_epi64x(-kExactIntBound);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x = LoadU(v + i);
    // Lanes outside (-2^53, 2^53) must hash via their double image (see
    // HashI64One); such blocks take the scalar path, typical key data never
    // does.
    const __m256i in_range = _mm256_and_si256(_mm256_cmpgt_epi64(hi, x),
                                              _mm256_cmpgt_epi64(x, lo));
    if (_mm256_movemask_epi8(in_range) == -1) {
      StoreU(out + i, Mix64Vec(x));
    } else {
      for (size_t j = i; j < i + 4; ++j) out[j] = HashI64One(v[j]);
    }
  }
  for (; i < n; ++i) out[i] = HashI64One(v[i]);
}

}  // namespace avx2
#endif  // CALCITE_SIMD_LEVEL >= 2

#if CALCITE_SIMD_LEVEL == 1
namespace sse {

/// One bit per 64-bit lane.
inline uint32_t Mask2(__m128i m) {
  return static_cast<uint32_t>(_mm_movemask_pd(_mm_castsi128_pd(m)));
}

inline void StorePairBytes(uint8_t* out, uint32_t bits2) {
  out[0] = static_cast<uint8_t>(bits2 & 1);
  out[1] = static_cast<uint8_t>((bits2 >> 1) & 1);
}

void CmpI64(Cmp op, const int64_t* a, const int64_t* b, size_t n,
            uint8_t* out) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    const uint32_t lt = Mask2(_mm_cmpgt_epi64(vb, va));
    const uint32_t gt = Mask2(_mm_cmpgt_epi64(va, vb));
    StorePairBytes(out + i, CombineCmpBits(op, lt, gt, 0x3));
  }
  CmpScalar(op, a + i, b + i, n - i, out + i);
}

void CmpF64(Cmp op, const double* a, const double* b, size_t n,
            uint8_t* out) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d va = _mm_loadu_pd(a + i);
    const __m128d vb = _mm_loadu_pd(b + i);
    const uint32_t lt =
        static_cast<uint32_t>(_mm_movemask_pd(_mm_cmplt_pd(va, vb)));
    const uint32_t gt =
        static_cast<uint32_t>(_mm_movemask_pd(_mm_cmpgt_pd(va, vb)));
    StorePairBytes(out + i, CombineCmpBits(op, lt, gt, 0x3));
  }
  CmpScalar(op, a + i, b + i, n - i, out + i);
}

}  // namespace sse
#endif  // CALCITE_SIMD_LEVEL == 1

}  // namespace

// ---------------------------------------------------------------------------
// Public dispatch
// ---------------------------------------------------------------------------

int CompiledLevel() { return CALCITE_SIMD_LEVEL; }

const char* CompiledLevelName() {
#if CALCITE_SIMD_LEVEL >= 2
  return "avx2";
#elif CALCITE_SIMD_LEVEL == 1
  return "sse4.2";
#else
  return "scalar";
#endif
}

bool Enabled() {
#if CALCITE_SIMD_LEVEL > 0
  return g_simd_enabled.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

void SetEnabled(bool on) {
#if CALCITE_SIMD_LEVEL > 0
  g_simd_enabled.store(on, std::memory_order_relaxed);
#else
  (void)on;
#endif
}

void CmpI64(Cmp op, const int64_t* a, const int64_t* b, size_t n,
            uint8_t* out) {
#if CALCITE_SIMD_LEVEL >= 2
  if (Enabled()) return avx2::CmpI64(op, a, b, n, out);
#elif CALCITE_SIMD_LEVEL == 1
  if (Enabled()) return sse::CmpI64(op, a, b, n, out);
#endif
  CmpScalar(op, a, b, n, out);
}

void CmpI64Lit(Cmp op, const int64_t* a, int64_t lit, size_t n,
               uint8_t* out) {
#if CALCITE_SIMD_LEVEL >= 2
  if (Enabled()) return avx2::CmpI64Lit(op, a, lit, n, out);
#endif
  CmpLitScalar(op, a, lit, n, out);
}

void CmpF64(Cmp op, const double* a, const double* b, size_t n,
            uint8_t* out) {
#if CALCITE_SIMD_LEVEL >= 2
  if (Enabled()) return avx2::CmpF64(op, a, b, n, out);
#elif CALCITE_SIMD_LEVEL == 1
  if (Enabled()) return sse::CmpF64(op, a, b, n, out);
#endif
  CmpScalar(op, a, b, n, out);
}

void CmpF64Lit(Cmp op, const double* a, double lit, size_t n, uint8_t* out) {
#if CALCITE_SIMD_LEVEL >= 2
  if (Enabled()) return avx2::CmpF64Lit(op, a, lit, n, out);
#endif
  CmpLitScalar(op, a, lit, n, out);
}

void ArithI64(Arith op, const int64_t* a, const int64_t* b, size_t n,
              int64_t* out) {
#if CALCITE_SIMD_LEVEL >= 2
  if (Enabled()) return avx2::ArithI64(op, a, b, n, out);
#endif
  ArithScalar(op, a, b, n, out);
}

void ArithF64(Arith op, const double* a, const double* b, size_t n,
              double* out) {
#if CALCITE_SIMD_LEVEL >= 2
  if (Enabled()) return avx2::ArithF64(op, a, b, n, out);
#endif
  ArithScalar(op, a, b, n, out);
}

void I64ToF64(const int64_t* v, size_t n, double* out) {
  // No AVX2 int64->double conversion exists; the plain loop vectorizes as
  // well as the magic-number tricks on current compilers.
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<double>(v[i]);
}

void InRangeI64(const int64_t* v, int64_t lo, bool lo_strict, int64_t hi,
                bool hi_strict, size_t n, uint8_t* out) {
#if CALCITE_SIMD_LEVEL >= 2
  if (Enabled()) return avx2::InRangeI64(v, lo, lo_strict, hi, hi_strict, n, out);
#endif
  InRangeScalar(v, lo, lo_strict, hi, hi_strict, n, out);
}

void InRangeF64(const double* v, double lo, bool lo_strict, double hi,
                bool hi_strict, size_t n, uint8_t* out) {
#if CALCITE_SIMD_LEVEL >= 2
  if (Enabled()) return avx2::InRangeF64(v, lo, lo_strict, hi, hi_strict, n, out);
#endif
  InRangeScalar(v, lo, lo_strict, hi, hi_strict, n, out);
}

void OrMasks(const uint8_t* a, const uint8_t* b, size_t n, uint8_t* out) {
#if CALCITE_SIMD_LEVEL >= 2
  if (Enabled()) return avx2::OrMasks(a, b, n, out);
#endif
  OrMasksScalar(a, b, n, out);
}

void AndNotMask(const uint8_t* value, const uint8_t* off, size_t n,
                uint8_t* out) {
#if CALCITE_SIMD_LEVEL >= 2
  if (Enabled()) return avx2::AndNotMask(value, off, n, out);
#endif
  AndNotMaskScalar(value, off, n, out);
}

void MaskZeroU8(uint8_t* data, const uint8_t* mask, size_t n) {
#if CALCITE_SIMD_LEVEL >= 2
  if (Enabled()) return avx2::MaskZeroU8(data, mask, n);
#endif
  MaskZeroScalar(data, mask, n);
}

void MaskZeroI64(int64_t* data, const uint8_t* mask, size_t n) {
#if CALCITE_SIMD_LEVEL >= 2
  if (Enabled()) return avx2::MaskZeroI64(data, mask, n);
#endif
  MaskZeroScalar(data, mask, n);
}

void MaskZeroF64(double* data, const uint8_t* mask, size_t n) {
#if CALCITE_SIMD_LEVEL >= 2
  if (Enabled()) return avx2::MaskZeroF64(data, mask, n);
#endif
  MaskZeroScalar(data, mask, n);
}

size_t MaskToSel(const uint8_t* mask, size_t n, uint32_t* out) {
#if CALCITE_SIMD_LEVEL >= 2
  if (Enabled()) return avx2::MaskToSel(mask, n, out);
#endif
  return MaskToSelScalar(mask, n, out);
}

size_t CompactSel(const uint8_t* mask, const uint32_t* sel, size_t n,
                  uint32_t* out) {
  size_t c = 0;
  for (size_t k = 0; k < n; ++k) {
    out[c] = sel[k];  // branch-free: overwritten if dropped
    c += mask[k] != 0;
  }
  return c;
}

size_t FilterSelByMask(const uint8_t* mask, const uint32_t* sel, size_t n,
                       uint32_t* out) {
  size_t c = 0;
  for (size_t k = 0; k < n; ++k) {
    const uint32_t idx = sel[k];
    out[c] = idx;  // branch-free: overwritten if dropped
    c += mask[idx] != 0;
  }
  return c;
}

void HashI64(const int64_t* v, size_t n, uint64_t* out) {
#if CALCITE_SIMD_LEVEL >= 2
  if (Enabled()) return avx2::HashI64(v, n, out);
#endif
  HashI64Scalar(v, n, out);
}

void HashF64(const double* v, size_t n, uint64_t* out) {
  // The integral-unification branch keeps this scalar; hoisting the hash out
  // of per-row probes is still the win (one tight pass, no boxing).
  for (size_t i = 0; i < n; ++i) out[i] = HashF64One(v[i]);
}

}  // namespace simd
}  // namespace calcite
