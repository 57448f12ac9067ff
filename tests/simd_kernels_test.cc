// Unit and differential tests of the exec/simd.h kernel layer: every kernel
// must produce byte-identical output with dispatch forced to the scalar
// reference path and with the widest compiled vector path, across sizes that
// straddle every vector-block boundary (4-lane groups, 8-entry LUT bytes,
// 32-byte mask blocks) plus odd tails. On a CALCITE_SIMD=OFF build both runs
// take the scalar path and the diffs degenerate to self-comparison — the CI
// matrix builds both ways so the reference path stays exercised everywhere.

#include "exec/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

namespace calcite {
namespace simd {
namespace {

const std::vector<size_t> kSizes = {0,  1,  3,  4,   5,    7,    8,   15,
                                    16, 17, 31, 32,  33,   63,   64,  65,
                                    100, 1023, 1024, 1025};

const Cmp kCmps[] = {Cmp::kEq, Cmp::kNe, Cmp::kLt, Cmp::kLe, Cmp::kGt,
                     Cmp::kGe};
const Arith kAriths[] = {Arith::kAdd, Arith::kSub, Arith::kMul};

std::vector<int64_t> RandomI64(size_t n, uint32_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int64_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    // Small range so equal pairs actually occur; salt in extremes.
    v[i] = static_cast<int64_t>(rng() % 7) - 3;
    if (rng() % 31 == 0) {
      v[i] = rng() % 2 ? std::numeric_limits<int64_t>::max()
                       : std::numeric_limits<int64_t>::min();
    }
  }
  return v;
}

/// Arithmetic inputs stay small: the +-* kernels inherit the engine's
/// wrapping-free contract, so the differential must not manufacture signed
/// overflow (UB in the scalar reference).
std::vector<int64_t> RandomSmallI64(size_t n, uint32_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int64_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<int64_t>(rng() % 2001) - 1000;
  }
  return v;
}

std::vector<double> RandomF64(size_t n, uint32_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = (static_cast<double>(rng() % 13) - 6.0) * 0.5;
    if (rng() % 23 == 0) v[i] = std::numeric_limits<double>::quiet_NaN();
    if (rng() % 29 == 0) v[i] = -0.0;
  }
  return v;
}

std::vector<uint8_t> RandomMask(size_t n, uint32_t seed, uint32_t density) {
  std::mt19937_64 rng(seed);
  std::vector<uint8_t> m(n);
  for (size_t i = 0; i < n; ++i) {
    // Deliberately non-canonical set bytes: kernels only test for nonzero.
    m[i] = rng() % 100 < density ? static_cast<uint8_t>(1 + rng() % 255) : 0;
  }
  return m;
}

TEST(SimdDispatchTest, LevelAndRuntimeSwitchAgree) {
  EXPECT_EQ(CompiledLevel(), CALCITE_SIMD_LEVEL);
  if (CompiledLevel() == 0) {
    EXPECT_STREQ(CompiledLevelName(), "scalar");
    SetEnabled(true);
    EXPECT_FALSE(Enabled());  // scalar-only builds cannot enable SIMD
  } else {
    ScopedDispatch off(false);
    EXPECT_FALSE(Enabled());
    {
      ScopedDispatch on(true);
      EXPECT_TRUE(Enabled());
    }
    EXPECT_FALSE(Enabled());
  }
}

TEST(SimdKernelDiffTest, CompareI64MatchesScalar) {
  for (size_t n : kSizes) {
    auto a = RandomI64(n, 1), b = RandomI64(n, 2);
    for (Cmp op : kCmps) {
      std::vector<uint8_t> simd_out(n, 0xee), scalar_out(n, 0xdd);
      {
        ScopedDispatch on(true);
        CmpI64(op, a.data(), b.data(), n, simd_out.data());
      }
      {
        ScopedDispatch off(false);
        CmpI64(op, a.data(), b.data(), n, scalar_out.data());
      }
      ASSERT_EQ(simd_out, scalar_out) << "n=" << n << " op=" << int(op);
      // Outputs must be canonical 0/1 bytes.
      for (uint8_t x : simd_out) ASSERT_LE(x, 1);
      {
        ScopedDispatch on(true);
        CmpI64Lit(op, a.data(), /*lit=*/1, n, simd_out.data());
      }
      {
        ScopedDispatch off(false);
        CmpI64Lit(op, a.data(), /*lit=*/1, n, scalar_out.data());
      }
      ASSERT_EQ(simd_out, scalar_out) << "lit n=" << n << " op=" << int(op);
    }
  }
}

TEST(SimdKernelDiffTest, CompareF64MatchesScalarIncludingNaN) {
  for (size_t n : kSizes) {
    auto a = RandomF64(n, 3), b = RandomF64(n, 4);
    for (Cmp op : kCmps) {
      std::vector<uint8_t> simd_out(n), scalar_out(n);
      {
        ScopedDispatch on(true);
        CmpF64(op, a.data(), b.data(), n, simd_out.data());
      }
      {
        ScopedDispatch off(false);
        CmpF64(op, a.data(), b.data(), n, scalar_out.data());
      }
      ASSERT_EQ(simd_out, scalar_out) << "n=" << n << " op=" << int(op);
      {
        ScopedDispatch on(true);
        CmpF64Lit(op, a.data(), 0.5, n, simd_out.data());
      }
      {
        ScopedDispatch off(false);
        CmpF64Lit(op, a.data(), 0.5, n, scalar_out.data());
      }
      ASSERT_EQ(simd_out, scalar_out) << "n=" << n << " op=" << int(op);
    }
  }
}

// NaN compares "equal" to everything under the engine's three-way ordering.
TEST(SimdKernelDiffTest, NaNComparesEqualUnderBothDispatches) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double a[4] = {nan, 1.0, nan, -2.5};
  const double b[4] = {2.0, nan, nan, -2.5};
  for (bool on : {true, false}) {
    ScopedDispatch d(on);
    uint8_t out[4];
    CmpF64(Cmp::kEq, a, b, 4, out);
    EXPECT_EQ(out[0], 1);
    EXPECT_EQ(out[1], 1);
    EXPECT_EQ(out[2], 1);
    EXPECT_EQ(out[3], 1);
    CmpF64(Cmp::kLt, a, b, 4, out);
    for (uint8_t x : out) EXPECT_EQ(x, 0);
    CmpF64(Cmp::kLe, a, b, 4, out);
    for (uint8_t x : out) EXPECT_EQ(x, 1);
  }
}

TEST(SimdKernelDiffTest, ArithmeticMatchesScalar) {
  for (size_t n : kSizes) {
    auto ai = RandomSmallI64(n, 5), bi = RandomSmallI64(n, 6);
    auto af = RandomF64(n, 7), bf = RandomF64(n, 8);
    for (Arith op : kAriths) {
      std::vector<int64_t> si(n), ci(n);
      std::vector<double> sf(n), cf(n);
      {
        ScopedDispatch on(true);
        ArithI64(op, ai.data(), bi.data(), n, si.data());
        ArithF64(op, af.data(), bf.data(), n, sf.data());
      }
      {
        ScopedDispatch off(false);
        ArithI64(op, ai.data(), bi.data(), n, ci.data());
        ArithF64(op, af.data(), bf.data(), n, cf.data());
      }
      ASSERT_EQ(si, ci) << "n=" << n << " op=" << int(op);
      // NaN != NaN, so compare double results by bit pattern.
      if (n != 0) {
        ASSERT_EQ(0, std::memcmp(sf.data(), cf.data(), n * sizeof(double)))
            << "n=" << n << " op=" << int(op);
      }
    }
    std::vector<double> wi(n), wc(n);
    {
      ScopedDispatch on(true);
      I64ToF64(ai.data(), n, wi.data());
    }
    {
      ScopedDispatch off(false);
      I64ToF64(ai.data(), n, wc.data());
    }
    ASSERT_EQ(wi, wc);
  }
}

TEST(SimdKernelDiffTest, InRangeI64MatchesScalarAndComposedCompares) {
  for (size_t n : kSizes) {
    auto v = RandomI64(n, 25);
    for (bool lo_strict : {false, true}) {
      for (bool hi_strict : {false, true}) {
        const int64_t lo = -2, hi = 2;
        std::vector<uint8_t> so(n, 0xee), co(n, 0xdd);
        {
          ScopedDispatch on(true);
          InRangeI64(v.data(), lo, lo_strict, hi, hi_strict, n, so.data());
        }
        {
          ScopedDispatch off(false);
          InRangeI64(v.data(), lo, lo_strict, hi, hi_strict, n, co.data());
        }
        ASSERT_EQ(so, co) << "n=" << n << " strict=" << lo_strict << ","
                          << hi_strict;
        // Equivalent to AND of the two separate literal compares.
        std::vector<uint8_t> lom(n), him(n), both(n);
        ScopedDispatch off(false);
        CmpI64Lit(lo_strict ? Cmp::kGt : Cmp::kGe, v.data(), lo, n,
                  lom.data());
        CmpI64Lit(hi_strict ? Cmp::kLt : Cmp::kLe, v.data(), hi, n,
                  him.data());
        for (size_t i = 0; i < n; ++i) both[i] = lom[i] && him[i] ? 1 : 0;
        ASSERT_EQ(so, both) << "n=" << n << " strict=" << lo_strict << ","
                            << hi_strict;
        for (uint8_t x : so) ASSERT_LE(x, 1);
      }
    }
  }
}

// The interval test inherits the engine's NaN-compares-equal ordering: a
// NaN lane passes each inclusive bound (as kGe/kLe do) and fails each
// strict one (as kGt/kLt do) — under both dispatch modes.
TEST(SimdKernelDiffTest, InRangeF64MatchesScalarIncludingNaN) {
  for (size_t n : kSizes) {
    auto v = RandomF64(n, 26);  // salts in NaN and -0.0 lanes
    for (bool lo_strict : {false, true}) {
      for (bool hi_strict : {false, true}) {
        const double lo = -1.5, hi = 1.5;
        std::vector<uint8_t> so(n, 0xee), co(n, 0xdd);
        {
          ScopedDispatch on(true);
          InRangeF64(v.data(), lo, lo_strict, hi, hi_strict, n, so.data());
        }
        {
          ScopedDispatch off(false);
          InRangeF64(v.data(), lo, lo_strict, hi, hi_strict, n, co.data());
        }
        ASSERT_EQ(so, co) << "n=" << n << " strict=" << lo_strict << ","
                          << hi_strict;
        std::vector<uint8_t> lom(n), him(n), both(n);
        ScopedDispatch off(false);
        CmpF64Lit(lo_strict ? Cmp::kGt : Cmp::kGe, v.data(), lo, n,
                  lom.data());
        CmpF64Lit(hi_strict ? Cmp::kLt : Cmp::kLe, v.data(), hi, n,
                  him.data());
        for (size_t i = 0; i < n; ++i) both[i] = lom[i] && him[i] ? 1 : 0;
        ASSERT_EQ(so, both) << "n=" << n << " strict=" << lo_strict << ","
                            << hi_strict;
        for (size_t i = 0; i < n; ++i) {
          if (std::isnan(v[i])) {
            ASSERT_EQ(so[i], (!lo_strict && !hi_strict) ? 1 : 0) << "i=" << i;
          }
        }
      }
    }
  }
}

TEST(SimdKernelDiffTest, MaskFoldingMatchesScalar) {
  for (size_t n : kSizes) {
    for (uint32_t density : {0u, 20u, 50u, 100u}) {
      auto a = RandomMask(n, 9 + density, density);
      auto b = RandomMask(n, 10 + density, 100 - density);
      std::vector<uint8_t> so(n), co(n);
      {
        ScopedDispatch on(true);
        OrMasks(a.data(), b.data(), n, so.data());
      }
      {
        ScopedDispatch off(false);
        OrMasks(a.data(), b.data(), n, co.data());
      }
      ASSERT_EQ(so, co) << "or n=" << n;
      for (uint8_t x : so) ASSERT_LE(x, 1);
      {
        ScopedDispatch on(true);
        AndNotMask(a.data(), b.data(), n, so.data());
      }
      {
        ScopedDispatch off(false);
        AndNotMask(a.data(), b.data(), n, co.data());
      }
      ASSERT_EQ(so, co) << "andnot n=" << n;

      auto di = RandomI64(n, 11);
      auto df = RandomF64(n, 12);
      auto du = RandomMask(n, 13, 60);
      auto di2 = di;
      auto df2 = df;
      auto du2 = du;
      {
        ScopedDispatch on(true);
        MaskZeroI64(di.data(), a.data(), n);
        MaskZeroF64(df.data(), a.data(), n);
        MaskZeroU8(du.data(), a.data(), n);
      }
      {
        ScopedDispatch off(false);
        MaskZeroI64(di2.data(), a.data(), n);
        MaskZeroF64(df2.data(), a.data(), n);
        MaskZeroU8(du2.data(), a.data(), n);
      }
      ASSERT_EQ(di, di2);
      if (n != 0) {
        ASSERT_EQ(0, std::memcmp(df.data(), df2.data(), n * sizeof(double)));
      }
      ASSERT_EQ(du, du2);
      for (size_t i = 0; i < n; ++i) {
        if (a[i]) {
          ASSERT_EQ(di[i], 0);
          ASSERT_EQ(df[i], 0.0);
          ASSERT_EQ(du[i], 0);
        }
      }
    }
  }
}

TEST(SimdSelectionTest, MaskToSelMatchesNaiveAtEverySize) {
  for (size_t n : kSizes) {
    for (uint32_t density : {0u, 1u, 35u, 99u, 100u}) {
      auto mask = RandomMask(n, 14 + density, density);
      std::vector<uint32_t> expect;
      for (size_t i = 0; i < n; ++i) {
        if (mask[i]) expect.push_back(static_cast<uint32_t>(i));
      }
      for (bool on : {true, false}) {
        ScopedDispatch d(on);
        std::vector<uint32_t> out(n + kSelSlack, 0xffffffffu);
        size_t count = MaskToSel(mask.data(), n, out.data());
        ASSERT_EQ(count, expect.size()) << "n=" << n << " simd=" << on;
        out.resize(count);
        ASSERT_EQ(out, expect) << "n=" << n << " simd=" << on;
      }
    }
  }
}

TEST(SimdSelectionTest, CompactAndFilterSelWorkInPlace) {
  for (size_t n : kSizes) {
    // A non-identity ascending selection over a 2n-row range.
    std::vector<uint32_t> sel(n);
    for (size_t k = 0; k < n; ++k) sel[k] = static_cast<uint32_t>(2 * k + 1);
    auto positional = RandomMask(n, 15, 40);       // indexed by k
    auto by_row = RandomMask(2 * n + 1, 16, 40);   // indexed by sel[k]
    std::vector<uint32_t> expect_compact, expect_filter;
    for (size_t k = 0; k < n; ++k) {
      if (positional[k]) expect_compact.push_back(sel[k]);
      if (by_row[sel[k]]) expect_filter.push_back(sel[k]);
    }
    for (bool on : {true, false}) {
      ScopedDispatch d(on);
      std::vector<uint32_t> work = sel;  // in place: out aliases sel
      size_t c = CompactSel(positional.data(), work.data(), n, work.data());
      work.resize(c);
      ASSERT_EQ(work, expect_compact) << "n=" << n << " simd=" << on;
      work = sel;
      c = FilterSelByMask(by_row.data(), work.data(), n, work.data());
      work.resize(c);
      ASSERT_EQ(work, expect_filter) << "n=" << n << " simd=" << on;
    }
  }
}

// The cross-representation contract: values that compare equal under the
// engine's numeric semantics (int-vs-double compares as double) must hash
// identically, or the flat group/join tables would split equal keys.
TEST(SimdHashTest, IntAndDoubleImagesAgree) {
  const int64_t probes[] = {0,       1,          -1,         42,
                            -37,     1 << 20,    -(1 << 20), kExactIntBound - 1,
                            -(kExactIntBound - 1)};
  for (int64_t v : probes) {
    EXPECT_EQ(HashI64One(v), HashF64One(static_cast<double>(v))) << v;
  }
  // ±0.0 compare equal and must agree.
  EXPECT_EQ(HashF64One(0.0), HashF64One(-0.0));
  EXPECT_EQ(HashF64One(0.0), HashI64One(0));
  // Beyond 2^53 the double image conflates neighbors: Int(2^53) and
  // Int(2^53 + 1) both equal Double(9007199254740992.0), so all three must
  // share one hash.
  EXPECT_EQ(HashI64One(kExactIntBound), HashF64One(9007199254740992.0));
  EXPECT_EQ(HashI64One(kExactIntBound + 1), HashI64One(kExactIntBound));
  // Fractions and non-finites take the bit-pattern path and still self-agree.
  EXPECT_EQ(HashF64One(2.5), HashF64One(2.5));
  EXPECT_NE(HashF64One(2.5), HashF64One(2.0));
  // Every NaN — either sign, any payload — hashes as the canonical NaN, so
  // all NaN keys meet in one group.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  uint64_t payload_bits = 0xfff0000000000123ULL;
  double payload_nan;
  std::memcpy(&payload_nan, &payload_bits, sizeof(payload_nan));
  EXPECT_EQ(HashF64One(-nan), HashF64One(nan));
  EXPECT_EQ(HashF64One(payload_nan), HashF64One(nan));
  EXPECT_EQ(F64Bits(payload_nan), kCanonicalNaNBits);
  EXPECT_NE(HashF64One(nan), HashF64One(std::numeric_limits<double>::infinity()));
}

TEST(SimdHashTest, BlockedHashMatchesOneCellHash) {
  for (size_t n : kSizes) {
    auto vi = RandomI64(n, 17);
    // Salt in boundary values so vector blocks mix in-range and out-of-range
    // lanes (the AVX2 path falls back per 4-lane block).
    for (size_t i = 0; i < n; ++i) {
      if (i % 5 == 3) vi[i] = kExactIntBound + static_cast<int64_t>(i);
      if (i % 7 == 4) vi[i] = -kExactIntBound - static_cast<int64_t>(i);
    }
    auto vf = RandomF64(n, 18);
    for (bool on : {true, false}) {
      ScopedDispatch d(on);
      std::vector<uint64_t> hi(n), hf(n);
      HashI64(vi.data(), n, hi.data());
      HashF64(vf.data(), n, hf.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hi[i], HashI64One(vi[i])) << "i=" << i << " simd=" << on;
        ASSERT_EQ(hf[i], HashF64One(vf[i])) << "i=" << i << " simd=" << on;
      }
    }
  }
}

}  // namespace
}  // namespace simd
}  // namespace calcite
