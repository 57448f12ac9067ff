#ifndef CALCITE_EXEC_SIMD_H_
#define CALCITE_EXEC_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

/// Explicit SIMD kernel layer under the columnar engine.
///
/// Dispatch is decided at compile time: the CALCITE_SIMD CMake option
/// (default ON) probes the compiler for -mavx2 / -msse4.2 and defines
/// CALCITE_SIMD_ENABLED, from which this header derives CALCITE_SIMD_LEVEL:
///
///   2  AVX2    — 4x int64/double lanes, 32-byte mask blocks
///   1  SSE4.2  — 2x int64/double lanes (comparison kernels only)
///   0  scalar  — portable reference implementations
///
/// The scalar implementations are always compiled regardless of level; they
/// are the semantic reference the vector paths must match bit-for-bit. At
/// runtime SetEnabled(false) forces every kernel onto the scalar path, which
/// the differential test suites use to diff SIMD against scalar within one
/// binary (and which makes the scalar path testable on any build).
///
/// All mask arguments are *bytemaps*: one byte per row, nonzero = set. Kernel
/// outputs are canonical 0/1 bytes. Inputs need not be aligned — column views
/// sliced at arbitrary offsets are only element-aligned — so every vector
/// path uses unaligned loads; the Arena's 64-byte allocation alignment just
/// keeps full batches from straddling cache lines.
#if defined(CALCITE_SIMD_ENABLED) && defined(__AVX2__)
#define CALCITE_SIMD_LEVEL 2
#elif defined(CALCITE_SIMD_ENABLED) && defined(__SSE4_2__)
#define CALCITE_SIMD_LEVEL 1
#else
#define CALCITE_SIMD_LEVEL 0
#endif

namespace calcite {
namespace simd {

/// Widest dispatch level compiled into this binary (0/1/2 as above).
int CompiledLevel();
/// Human-readable name of the compiled level ("avx2", "sse4.2", "scalar").
const char* CompiledLevelName();

/// Runtime dispatch switch. True (the default) routes kernels to the widest
/// compiled level; false forces the scalar reference path. Always false when
/// the binary was built scalar-only. Reads are relaxed atomics, so tests may
/// flip the switch between queries even in multi-threaded suites.
bool Enabled();
void SetEnabled(bool on);

/// RAII dispatch override for tests: force SIMD on or off for a scope.
struct ScopedDispatch {
  explicit ScopedDispatch(bool enable_simd) : prev_(Enabled()) {
    SetEnabled(enable_simd);
  }
  ~ScopedDispatch() { SetEnabled(prev_); }
  ScopedDispatch(const ScopedDispatch&) = delete;
  ScopedDispatch& operator=(const ScopedDispatch&) = delete;

 private:
  bool prev_;
};

// ---------------------------------------------------------------------------
// Comparison kernels -> predicate bytemasks
// ---------------------------------------------------------------------------

/// Comparison operator. The double kernels implement the engine's three-way
/// ordering (x<y ? -1 : x>y ? 1 : 0), under which NaN compares "equal" to
/// everything: kEq/kLe/kGe pass on NaN operands, kNe/kLt/kGt do not —
/// exactly what the scalar Value::Compare-based loops produce.
enum class Cmp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// out[i] = 1 iff (a[i] <op> b[i]), blind over all n rows (callers fold null
/// bytemaps separately and re-zero null slots).
void CmpI64(Cmp op, const int64_t* a, const int64_t* b, size_t n,
            uint8_t* out);
void CmpF64(Cmp op, const double* a, const double* b, size_t n, uint8_t* out);
/// Column-vs-literal forms (the broadcast is folded into the kernel).
void CmpI64Lit(Cmp op, const int64_t* a, int64_t lit, size_t n, uint8_t* out);
void CmpF64Lit(Cmp op, const double* a, double lit, size_t n, uint8_t* out);

// ---------------------------------------------------------------------------
// Arithmetic kernels
// ---------------------------------------------------------------------------

/// Blind element-wise arithmetic. Division and modulus stay scalar in the
/// callers: they need per-row divide-by-zero errors gated on the null mask.
enum class Arith : uint8_t { kAdd, kSub, kMul };

void ArithI64(Arith op, const int64_t* a, const int64_t* b, size_t n,
              int64_t* out);
void ArithF64(Arith op, const double* a, const double* b, size_t n,
              double* out);

/// out[i] = double(v[i]) — the widening used by mixed int/double operands.
void I64ToF64(const int64_t* v, size_t n, double* out);

/// Fused interval test: out[i] = 1 iff v[i] is above `lo` and below `hi`,
/// each bound strict or inclusive — one pass where `v >= lo AND v < hi`
/// would take two compare kernels and a mask AND. Inclusive bounds are
/// evaluated as NOT(strictly outside), so under the three-way double
/// semantics above a NaN lane passes both inclusive bounds and fails both
/// strict ones, exactly like the corresponding kGe/kLe vs kGt/kLt kernels.
void InRangeI64(const int64_t* v, int64_t lo, bool lo_strict, int64_t hi,
                bool hi_strict, size_t n, uint8_t* out);
void InRangeF64(const double* v, double lo, bool lo_strict, double hi,
                bool hi_strict, size_t n, uint8_t* out);

// ---------------------------------------------------------------------------
// Mask folding
// ---------------------------------------------------------------------------

/// out[i] = (a[i] || b[i]) ? 1 : 0 — the NULL-strict null-map fold.
void OrMasks(const uint8_t* a, const uint8_t* b, size_t n, uint8_t* out);
/// out[i] = (value[i] && !off[i]) ? 1 : 0 — boolean result minus its nulls.
void AndNotMask(const uint8_t* value, const uint8_t* off, size_t n,
                uint8_t* out);
/// data[i] = 0 wherever mask[i] != 0 (canonicalizes NULL rows' data slots).
void MaskZeroU8(uint8_t* data, const uint8_t* mask, size_t n);
void MaskZeroI64(int64_t* data, const uint8_t* mask, size_t n);
void MaskZeroF64(double* data, const uint8_t* mask, size_t n);

// ---------------------------------------------------------------------------
// Selection-vector refill
// ---------------------------------------------------------------------------

/// MaskToSel may overwrite up to this many entries past the returned count;
/// size `out` to at least n + kSelSlack.
inline constexpr size_t kSelSlack = 8;

/// Expands a bytemask to the ascending list of set indexes: out gets i for
/// every mask[i] != 0, returns how many. The vector path expands the mask 32
/// rows at a time through a precomputed bit->index table and stores full
/// 8-lane groups, so `out` must have room for n + kSelSlack entries.
size_t MaskToSel(const uint8_t* mask, size_t n, uint32_t* out);

/// Keeps sel[k] wherever mask[k] != 0 (mask is positional over the candidate
/// list, e.g. a dense predicate result). Branch-free; out may alias sel and
/// never writes past index n-1. Returns the surviving count.
size_t CompactSel(const uint8_t* mask, const uint32_t* sel, size_t n,
                  uint32_t* out);

/// Keeps sel[k] wherever mask[sel[k]] != 0 (mask is indexed by row, e.g. a
/// full-range compare result gathered through the selection). Branch-free;
/// out may alias sel. Returns the surviving count.
size_t FilterSelByMask(const uint8_t* mask, const uint32_t* sel, size_t n,
                       uint32_t* out);

// ---------------------------------------------------------------------------
// Blocked hashing
// ---------------------------------------------------------------------------

/// SplitMix64 finalizer: the avalanche all blocked hashes funnel through.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hash of a SQL NULL cell (fixed so NULL keys land in one group/partition).
inline constexpr uint64_t kNullHash = 0x7f4a7c15f39cc060ULL;

/// Integral values below this bound are exactly representable as doubles;
/// above it the engine's numeric equality (compare-as-double) conflates
/// neighboring int64s, so hashes must conflate them identically.
inline constexpr int64_t kExactIntBound = int64_t{1} << 53;

/// Hash of one int64 cell. Int(v) and Double(d) must hash identically
/// whenever they compare equal (cross-representation comparison happens in
/// double), so values outside the exactly-representable range hash via their
/// double image.
inline uint64_t HashI64One(int64_t v) {
  if (v > -kExactIntBound && v < kExactIntBound) {
    return Mix64(static_cast<uint64_t>(v));
  }
  double d = static_cast<double>(v);
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return Mix64(bits);
}

/// Bit image every NaN is canonicalized to before hashing or bit-exact
/// group matching: the engine's value ordering puts all NaNs in one group,
/// whatever their sign or payload.
inline constexpr uint64_t kCanonicalNaNBits = 0x7ff8000000000000ULL;

/// The bit image of `d` with every NaN mapped to kCanonicalNaNBits.
inline uint64_t F64Bits(double d) {
  if (d != d) return kCanonicalNaNBits;
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Hash of one double cell, unified with HashI64One: integral doubles hash
/// as the int64 they equal, everything else (NaN, inf, fractions) by bits,
/// all NaNs by the canonical NaN's. -0.0 truncates to 0 and so hashes like
/// +0.0, matching their equality.
inline uint64_t HashF64One(double d) {
  if (d > -9007199254740992.0 && d < 9007199254740992.0) {  // (-2^53, 2^53)
    int64_t i = static_cast<int64_t>(d);
    if (static_cast<double>(i) == d) return Mix64(static_cast<uint64_t>(i));
  }
  return Mix64(F64Bits(d));
}

/// FNV-1a over a byte span, avalanched through Mix64 (string cells).
inline uint64_t HashBytes(const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return Mix64(h);
}

/// Blocked column forms of the one-cell hashes above.
void HashI64(const int64_t* v, size_t n, uint64_t* out);
void HashF64(const double* v, size_t n, uint64_t* out);

}  // namespace simd
}  // namespace calcite

#endif  // CALCITE_EXEC_SIMD_H_
