//===- tests/support/BitVecTest.cpp ----------------------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
// Unit and property tests for the arbitrary-width bit-vector value domain.
// The property sweeps cross-check every operation against native unsigned
// __int128 arithmetic at widths up to 64 bits.
//===----------------------------------------------------------------------===//

#include "support/BitVec.h"
#include "support/Diag.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <vector>

using namespace alive;

namespace {

TEST(BitVec, BasicConstruction) {
  BitVec A(8, 0x2a);
  EXPECT_EQ(A.width(), 8u);
  EXPECT_EQ(A.low64(), 0x2au);
  EXPECT_FALSE(A.isZero());
  EXPECT_TRUE(BitVec(8, 0).isZero());
  EXPECT_TRUE(BitVec(8, 1).isOne());
}

TEST(BitVec, MaskingOnConstruction) {
  BitVec A(4, 0xff);
  EXPECT_EQ(A.low64(), 0xfu);
  BitVec B(1, 2);
  EXPECT_TRUE(B.isZero());
}

TEST(BitVec, AllOnesAndBounds) {
  EXPECT_EQ(BitVec::allOnes(8).low64(), 0xffu);
  EXPECT_EQ(BitVec::signedMin(8).low64(), 0x80u);
  EXPECT_EQ(BitVec::signedMax(8).low64(), 0x7fu);
  EXPECT_TRUE(BitVec::allOnes(64).isAllOnes());
  EXPECT_TRUE(BitVec::allOnes(65).isAllOnes());
}

TEST(BitVec, WideValues) {
  BitVec A = BitVec::allOnes(128);
  EXPECT_EQ(A.width(), 128u);
  EXPECT_TRUE(A.bit(127));
  BitVec B = A.add(BitVec(128, 1));
  EXPECT_TRUE(B.isZero()) << "all-ones + 1 wraps to zero";
  BitVec C = A.mul(A); // (-1) * (-1) = 1 mod 2^128
  EXPECT_TRUE(C.isOne());
}

TEST(BitVec, ConcatExtract) {
  BitVec Hi(8, 0xab), Lo(8, 0xcd);
  BitVec C = Hi.concat(Lo);
  EXPECT_EQ(C.width(), 16u);
  EXPECT_EQ(C.low64(), 0xabcdu);
  EXPECT_EQ(C.extract(0, 8).low64(), 0xcdu);
  EXPECT_EQ(C.extract(8, 8).low64(), 0xabu);
  EXPECT_EQ(C.extract(4, 8).low64(), 0xbcu);
}

TEST(BitVec, ExtensionAndTruncation) {
  BitVec A(8, 0x80);
  EXPECT_EQ(A.zext(16).low64(), 0x80u);
  EXPECT_EQ(A.sext(16).low64(), 0xff80u);
  EXPECT_EQ(BitVec(8, 0x7f).sext(16).low64(), 0x7fu);
  EXPECT_EQ(BitVec(16, 0x1234).trunc(8).low64(), 0x34u);
}

TEST(BitVec, DivisionByZeroSemantics) {
  // SMT-LIB bvudiv x 0 = all ones; bvurem x 0 = x.
  BitVec A(8, 42), Z(8, 0);
  EXPECT_TRUE(A.udiv(Z).isAllOnes());
  EXPECT_EQ(A.urem(Z).low64(), 42u);
  // bvsdiv x 0 = (x < 0 ? 1 : -1); bvsrem x 0 = x.
  EXPECT_TRUE(A.sdiv(Z).isAllOnes());
  BitVec Neg(8, 0xd6); // -42
  EXPECT_TRUE(Neg.sdiv(Z).isOne());
  EXPECT_EQ(Neg.srem(Z).low64(), 0xd6u);
}

TEST(BitVec, SignedDivisionRounding) {
  // C-style truncation toward zero: -7 / 2 == -3, -7 % 2 == -1.
  BitVec A(8, (uint64_t)(uint8_t)-7), B(8, 2);
  EXPECT_EQ((int8_t)A.sdiv(B).low64(), -3);
  EXPECT_EQ((int8_t)A.srem(B).low64(), -1);
  // 7 / -2 == -3, 7 % -2 == 1.
  BitVec C(8, 7), D(8, (uint64_t)(uint8_t)-2);
  EXPECT_EQ((int8_t)C.sdiv(D).low64(), -3);
  EXPECT_EQ((int8_t)C.srem(D).low64(), 1);
}

TEST(BitVec, ShiftEdgeCases) {
  BitVec A(8, 0x81);
  EXPECT_EQ(A.shl(BitVec(8, 8)).low64(), 0u) << "shift by width is zero";
  EXPECT_EQ(A.lshr(BitVec(8, 9)).low64(), 0u);
  EXPECT_TRUE(A.ashr(BitVec(8, 200)).isAllOnes())
      << "ashr of negative by >= width fills with sign";
  EXPECT_EQ(BitVec(8, 0x41).ashr(BitVec(8, 200)).low64(), 0u);
}

TEST(BitVec, StringRoundTrip) {
  BitVec V;
  ASSERT_TRUE(BitVec::fromString(16, "12345", V));
  EXPECT_EQ(V.low64(), 12345u);
  EXPECT_EQ(V.toString(), "12345");
  ASSERT_TRUE(BitVec::fromString(16, "-1", V));
  EXPECT_TRUE(V.isAllOnes());
  EXPECT_EQ(V.toSignedString(), "-1");
  ASSERT_TRUE(BitVec::fromString(16, "0xBeEf", V));
  EXPECT_EQ(V.low64(), 0xbeefu);
  EXPECT_EQ(V.toHexString(), "0xbeef");
  EXPECT_FALSE(BitVec::fromString(16, "12x", V));
  EXPECT_FALSE(BitVec::fromString(16, "", V));
  EXPECT_FALSE(BitVec::fromString(16, "-", V));
}

TEST(BitVec, NarrowWidthToString) {
  // Regression: at widths < 4 the divisor 10 used to wrap to 0, sending
  // toString into an infinite loop.
  EXPECT_EQ(BitVec(1, 1).toString(), "1");
  EXPECT_EQ(BitVec(1, 0).toString(), "0");
  EXPECT_EQ(BitVec(2, 3).toString(), "3");
  EXPECT_EQ(BitVec(3, 7).toString(), "7");
  EXPECT_EQ(BitVec(1, 1).toSignedString(), "-1");
  EXPECT_EQ(BitVec(3, 5).toSignedString(), "-3");
}

TEST(BitVec, OverflowPredicates) {
  BitVec Max = BitVec::signedMax(8), One(8, 1);
  EXPECT_TRUE(Max.saddOverflow(One));
  EXPECT_FALSE(Max.uaddOverflow(One));
  EXPECT_TRUE(BitVec::allOnes(8).uaddOverflow(One));
  EXPECT_TRUE(BitVec::signedMin(8).ssubOverflow(One));
  EXPECT_TRUE(BitVec(8, 16).umulOverflow(BitVec(8, 16)));
  EXPECT_FALSE(BitVec(8, 15).umulOverflow(BitVec(8, 16)));
  EXPECT_TRUE(BitVec(8, 64).smulOverflow(BitVec(8, 2)));
  EXPECT_FALSE(BitVec(8, 63).smulOverflow(BitVec(8, 2)));
}

TEST(BitVec, CountsAndPredicates) {
  BitVec A(8, 0x50);
  EXPECT_EQ(A.countLeadingZeros(), 1u);
  EXPECT_EQ(A.countTrailingZeros(), 4u);
  EXPECT_EQ(A.popCount(), 2u);
  EXPECT_FALSE(A.isPowerOf2());
  EXPECT_TRUE(BitVec(8, 0x40).isPowerOf2());
  EXPECT_EQ(BitVec(8, 0).countLeadingZeros(), 8u);
}

//===----------------------------------------------------------------------===//
// Property sweep against native arithmetic
//===----------------------------------------------------------------------===//

class BitVecProperty : public ::testing::TestWithParam<unsigned> {};

using U128 = unsigned __int128;

static U128 maskFor(unsigned W) {
  return W >= 128 ? ~U128(0) : ((U128(1) << W) - 1);
}

TEST_P(BitVecProperty, MatchesNativeArithmetic) {
  unsigned W = GetParam();
  ASSERT_LE(W, 64u);
  Rng R(0xb17c0de + W);
  U128 Mask = maskFor(W);
  for (int Iter = 0; Iter < 500; ++Iter) {
    uint64_t A64 = R.next() & (uint64_t)Mask;
    uint64_t B64 = R.next() & (uint64_t)Mask;
    if (R.chance(1, 8))
      B64 = 0; // exercise division-by-zero paths
    BitVec A(W, A64), B(W, B64);
    U128 UA = A64, UB = B64;

    EXPECT_EQ(A.add(B).low64(), (uint64_t)((UA + UB) & Mask));
    EXPECT_EQ(A.sub(B).low64(), (uint64_t)((UA - UB) & Mask));
    EXPECT_EQ(A.mul(B).low64(), (uint64_t)((UA * UB) & Mask));
    EXPECT_EQ(A.bvand(B).low64(), (uint64_t)(UA & UB));
    EXPECT_EQ(A.bvor(B).low64(), (uint64_t)(UA | UB));
    EXPECT_EQ(A.bvxor(B).low64(), (uint64_t)((UA ^ UB) & Mask));
    EXPECT_EQ(A.bvnot().low64(), (uint64_t)(~UA & Mask));
    EXPECT_EQ(A.neg().low64(), (uint64_t)((0 - UA) & Mask));
    EXPECT_EQ(A.ult(B), UA < UB);
    EXPECT_EQ(A.ule(B), UA <= UB);

    // Signed comparison via sign-extension to 128 bits.
    auto SExt = [W](U128 V) -> __int128 {
      unsigned Shift = 128 - W;
      return ((__int128)(V << Shift)) >> Shift;
    };
    EXPECT_EQ(A.slt(B), SExt(UA) < SExt(UB));
    EXPECT_EQ(A.sle(B), SExt(UA) <= SExt(UB));

    if (B64 != 0) {
      EXPECT_EQ(A.udiv(B).low64(), (uint64_t)(UA / UB));
      EXPECT_EQ(A.urem(B).low64(), (uint64_t)(UA % UB));
      __int128 SA = SExt(UA), SB = SExt(UB);
      EXPECT_EQ(A.sdiv(B).low64(), (uint64_t)((U128)(SA / SB) & Mask));
      EXPECT_EQ(A.srem(B).low64(), (uint64_t)((U128)(SA % SB) & Mask));
    }

    // The shift amount operand wraps to W bits on construction, so compute
    // the expectation from the wrapped value.
    BitVec ShV(W, R.next(W + 4));
    unsigned Sh = (unsigned)ShV.low64();
    EXPECT_EQ(A.shl(ShV).low64(),
              Sh >= W ? 0u : (uint64_t)((UA << Sh) & Mask));
    EXPECT_EQ(A.lshr(ShV).low64(), Sh >= W ? 0u : (uint64_t)(UA >> Sh));
    {
      auto SA = SExt(UA);
      uint64_t Expect =
          Sh >= W ? (uint64_t)((U128)(SA >> 127) & Mask)
                  : (uint64_t)(((U128)(SA >> Sh)) & Mask);
      EXPECT_EQ(A.ashr(ShV).low64(), Expect);
    }

    EXPECT_EQ(A.uaddOverflow(B), ((UA + UB) & Mask) < UA);
    {
      __int128 S = SExt(UA) + SExt(UB);
      __int128 Lo = -(__int128)(Mask / 2) - 1, Hi = (__int128)(Mask / 2);
      EXPECT_EQ(A.saddOverflow(B), S < Lo || S > Hi);
      __int128 D = SExt(UA) - SExt(UB);
      EXPECT_EQ(A.ssubOverflow(B), D < Lo || D > Hi);
      __int128 P = SExt(UA) * SExt(UB);
      if (W <= 32)
        EXPECT_EQ(A.smulOverflow(B), P < Lo || P > Hi);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVecProperty,
                         ::testing::Values(1u, 2u, 3u, 7u, 8u, 13u, 16u, 31u,
                                           32u, 33u, 63u, 64u));

class BitVecWideProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitVecWideProperty, AlgebraicLawsHoldAtWideWidths) {
  unsigned W = GetParam();
  Rng R(0x5eed + W);
  for (int Iter = 0; Iter < 100; ++Iter) {
    std::vector<uint64_t> AW, BW;
    for (unsigned I = 0; I < (W + 63) / 64; ++I) {
      AW.push_back(R.next());
      BW.push_back(R.next());
    }
    BitVec A(W, AW), B(W, BW);
    EXPECT_EQ(A.add(B), B.add(A));
    EXPECT_EQ(A.mul(B), B.mul(A));
    EXPECT_EQ(A.sub(B).add(B), A);
    EXPECT_EQ(A.bvxor(B).bvxor(B), A);
    EXPECT_EQ(A.bvnot().bvnot(), A);
    EXPECT_EQ(A.neg().neg(), A);
    if (!B.isZero()) {
      // a = (a / b) * b + (a % b)
      EXPECT_EQ(A.udiv(B).mul(B).add(A.urem(B)), A);
      EXPECT_TRUE(A.urem(B).ult(B));
    }
    // Round-trips.
    EXPECT_EQ(A.zext(W + 37).trunc(W), A);
    EXPECT_EQ(A.sext(W + 37).trunc(W), A);
    EXPECT_EQ(A.concat(B).extract(0, W), B);
    EXPECT_EQ(A.concat(B).extract(W, W), A);
    BitVec Parsed;
    ASSERT_TRUE(BitVec::fromString(W, A.toString(), Parsed));
    EXPECT_EQ(Parsed, A);
  }
}

INSTANTIATE_TEST_SUITE_P(WideWidths, BitVecWideProperty,
                         ::testing::Values(65u, 100u, 128u, 200u, 256u));

//===----------------------------------------------------------------------===//
// The inline/heap storage boundary
//===----------------------------------------------------------------------===//

/// A bit-at-a-time reference for every BitVec operation, sharing no code
/// with BitVec's word loops, so values on both sides of the 64-bit inline
/// limit are checked against the same definition.
struct Bits {
  std::vector<bool> B; // LSB first

  explicit Bits(unsigned W) : B(W, false) {}
  explicit Bits(const BitVec &V) : B(V.width()) {
    for (unsigned I = 0; I < V.width(); ++I)
      B[I] = V.bit(I);
  }
  unsigned width() const { return (unsigned)B.size(); }
  BitVec toBitVec() const {
    std::vector<uint64_t> Ws((width() + 63) / 64, 0);
    for (unsigned I = 0; I < width(); ++I)
      if (B[I])
        Ws[I / 64] |= uint64_t(1) << (I % 64);
    return BitVec(width(), Ws);
  }
  bool sign() const { return B.back(); }
  bool isZero() const {
    return std::none_of(B.begin(), B.end(), [](bool X) { return X; });
  }

  Bits add(const Bits &O) const {
    Bits R(width());
    bool Carry = false;
    for (unsigned I = 0; I < width(); ++I) {
      R.B[I] = B[I] ^ O.B[I] ^ Carry;
      Carry = (B[I] && O.B[I]) || (Carry && (B[I] ^ O.B[I]));
    }
    return R;
  }
  Bits bnot() const {
    Bits R(width());
    for (unsigned I = 0; I < width(); ++I)
      R.B[I] = !B[I];
    return R;
  }
  Bits neg() const {
    Bits One(width());
    One.B[0] = true;
    return bnot().add(One);
  }
  Bits sub(const Bits &O) const { return add(O.neg()); }
  Bits shl(unsigned S) const {
    Bits R(width());
    for (unsigned I = S; I < width(); ++I)
      R.B[I] = B[I - S];
    return R;
  }
  Bits lshr(unsigned S) const {
    Bits R(width());
    for (unsigned I = 0; I + S < width(); ++I)
      R.B[I] = B[I + S];
    return R;
  }
  Bits ashr(unsigned S) const {
    Bits R(width());
    for (unsigned I = 0; I < width(); ++I)
      R.B[I] = I + S < width() ? B[I + S] : sign();
    return R;
  }
  Bits mul(const Bits &O) const {
    Bits R(width());
    for (unsigned I = 0; I < width(); ++I)
      if (O.B[I])
        R = R.add(shl(I));
    return R;
  }
  bool ult(const Bits &O) const {
    for (unsigned I = width(); I-- > 0;)
      if (B[I] != O.B[I])
        return O.B[I];
    return false;
  }
  bool slt(const Bits &O) const {
    return sign() != O.sign() ? sign() : ult(O);
  }
  void udivrem(const Bits &D, Bits &Q, Bits &Rem) const {
    Q = Bits(width());
    Rem = Bits(width());
    if (D.isZero()) {
      Q = Bits(width()).bnot();
      Rem = *this;
      return;
    }
    for (unsigned I = width(); I-- > 0;) {
      Rem = Rem.shl(1);
      Rem.B[0] = B[I];
      if (!Rem.ult(D)) {
        Rem = Rem.sub(D);
        Q.B[I] = true;
      }
    }
  }
  Bits resize(unsigned W, bool Fill) const {
    Bits R(W);
    for (unsigned I = 0; I < W; ++I)
      R.B[I] = I < width() ? B[I] : Fill;
    return R;
  }
};

class BitVecBoundary : public ::testing::TestWithParam<unsigned> {
protected:
  static BitVec random(unsigned W, Rng &R) {
    std::vector<uint64_t> Ws;
    for (unsigned I = 0; I < (W + 63) / 64; ++I)
      Ws.push_back(R.next());
    return BitVec(W, Ws);
  }
};

TEST_P(BitVecBoundary, CopyMoveAndSelfAssignment) {
  unsigned W = GetParam();
  Rng R(0xb0d + W);
  BitVec A = random(W, R);
  BitVec Copy(A);
  EXPECT_EQ(Copy, A);
  EXPECT_EQ(Copy.hash(), A.hash());
  BitVec Moved(std::move(Copy));
  EXPECT_EQ(Moved, A);
  // A moved-from value is a valid width-1 zero that can be assigned again.
  EXPECT_EQ(Copy, BitVec());
  Copy = A;
  EXPECT_EQ(Copy, A);
  BitVec &Alias = Copy;
  Copy = Alias;
  EXPECT_EQ(Copy, A);
  Copy = std::move(Alias);
  EXPECT_EQ(Copy, A);
  // Assignment across the boundary, in both directions, by copy and move.
  for (unsigned Other : {1u, 63u, 64u, 65u, 128u, 4096u}) {
    BitVec O = random(Other, R);
    BitVec X = A;
    X = O;
    EXPECT_EQ(X, O);
    X = A;
    EXPECT_EQ(X, A);
    BitVec Y = O;
    Y = std::move(X);
    EXPECT_EQ(Y, A);
    X = std::move(Y);
    EXPECT_EQ(X, A);
  }
  // A copy is independent of its source.
  BitVec Src = A, Dst = A;
  Src = Src.bvnot();
  EXPECT_EQ(Dst, A);
}

TEST_P(BitVecBoundary, EveryOperationMatchesTheBitReference) {
  unsigned W = GetParam();
  Rng R(0xb1750 + W);
  int Iters = W > 1000 ? 3 : 12;
  for (int Iter = 0; Iter < Iters; ++Iter) {
    BitVec A = random(W, R), B = random(W, R);
    if (Iter == 1)
      B = BitVec::zero(W); // division by zero
    if (Iter == 2)
      A = BitVec::allOnes(W);
    Bits RA(A), RB(B);
    EXPECT_EQ(Bits(A).toBitVec(), A);
    EXPECT_EQ(A.add(B), RA.add(RB).toBitVec());
    EXPECT_EQ(A.sub(B), RA.sub(RB).toBitVec());
    EXPECT_EQ(A.neg(), RA.neg().toBitVec());
    EXPECT_EQ(A.mul(B), RA.mul(RB).toBitVec());
    Bits Q(W), Rem(W);
    RA.udivrem(RB, Q, Rem);
    EXPECT_EQ(A.udiv(B), Q.toBitVec());
    EXPECT_EQ(A.urem(B), Rem.toBitVec());
    {
      // SMT-LIB signed division over the magnitudes.
      Bits MA = RA.sign() ? RA.neg() : RA, MB = RB.sign() ? RB.neg() : RB;
      Bits SQ(W), SR(W);
      MA.udivrem(MB, SQ, SR);
      BitVec ExpectDiv =
          RB.isZero() ? (RA.sign() ? BitVec(W, 1) : BitVec::allOnes(W))
                      : (RA.sign() != RB.sign() ? SQ.neg() : SQ).toBitVec();
      EXPECT_EQ(A.sdiv(B), ExpectDiv);
      BitVec ExpectRem = RB.isZero()
                             ? A
                             : (RA.sign() ? SR.neg() : SR).toBitVec();
      EXPECT_EQ(A.srem(B), ExpectRem);
    }
    Bits And(W), Or(W), Xor(W);
    for (unsigned I = 0; I < W; ++I) {
      And.B[I] = RA.B[I] && RB.B[I];
      Or.B[I] = RA.B[I] || RB.B[I];
      Xor.B[I] = RA.B[I] != RB.B[I];
    }
    EXPECT_EQ(A.bvand(B), And.toBitVec());
    EXPECT_EQ(A.bvor(B), Or.toBitVec());
    EXPECT_EQ(A.bvxor(B), Xor.toBitVec());
    EXPECT_EQ(A.bvnot(), RA.bnot().toBitVec());
    for (unsigned Sh : {0u, 1u, W / 2, W - 1, W, W + 5}) {
      BitVec ShV = W >= 32 || Sh < (1u << W) ? BitVec(W, Sh) : BitVec(W, 0);
      unsigned Amount = (unsigned)ShV.low64();
      bool Over = !ShV.fitsU64() || Amount >= W;
      EXPECT_EQ(A.shl(ShV), Over ? BitVec(W, 0) : RA.shl(Amount).toBitVec());
      EXPECT_EQ(A.lshr(ShV),
                Over ? BitVec(W, 0) : RA.lshr(Amount).toBitVec());
      EXPECT_EQ(A.ashr(ShV), RA.ashr(Over ? W : Amount).toBitVec());
    }
    EXPECT_EQ(A.ult(B), RA.ult(RB));
    EXPECT_EQ(A.slt(B), RA.slt(RB));
    EXPECT_EQ(A.ule(B), !RB.ult(RA));
    EXPECT_EQ(A.sge(B), !RA.slt(RB));
    EXPECT_EQ(A == B, RA.B == RB.B);
    EXPECT_EQ(A.uaddOverflow(B), RA.add(RB).ult(RA));
    EXPECT_EQ(A.saddOverflow(B), RA.sign() == RB.sign() &&
                                     RA.add(RB).sign() != RA.sign());
    EXPECT_EQ(A.ssubOverflow(B), RA.sign() != RB.sign() &&
                                     RA.sub(RB).sign() != RA.sign());
    if (2 * W <= BitVec::MaxWidth) {
      Bits P = RA.resize(2 * W, false).mul(RB.resize(2 * W, false));
      EXPECT_EQ(A.umulOverflow(B), !P.lshr(W).isZero());
      Bits SP = RA.resize(2 * W, RA.sign()).mul(RB.resize(2 * W, RB.sign()));
      EXPECT_EQ(A.smulOverflow(B),
                SP.B != SP.resize(W, false).resize(2 * W, SP.B[W - 1]).B);
    }
    // Width changes.
    unsigned Wider = std::min(W + 70, BitVec::MaxWidth);
    EXPECT_EQ(A.zext(Wider), RA.resize(Wider, false).toBitVec());
    EXPECT_EQ(A.sext(Wider), RA.resize(Wider, RA.sign()).toBitVec());
    unsigned Narrow = W > 1 ? W / 2 + 1 : 1;
    EXPECT_EQ(A.trunc(Narrow), RA.resize(Narrow, false).toBitVec());
    EXPECT_EQ(A.extract(W / 3, W - W / 3),
              RA.lshr(W / 3).resize(W - W / 3, false).toBitVec());
    if (2 * W <= BitVec::MaxWidth) {
      Bits Cat(2 * W);
      for (unsigned I = 0; I < W; ++I) {
        Cat.B[I] = RB.B[I];
        Cat.B[W + I] = RA.B[I];
      }
      EXPECT_EQ(A.concat(B), Cat.toBitVec());
    }
    // Predicates, counts and renderings.
    EXPECT_EQ(A.isZero(), RA.isZero());
    EXPECT_EQ(A.isAllOnes(), RA.B == Bits(W).bnot().B);
    EXPECT_EQ(A.sign(), RA.sign());
    EXPECT_EQ(A.popCount(),
              (unsigned)std::count(RA.B.begin(), RA.B.end(), true));
    unsigned Clz = 0, Ctz = 0;
    while (Clz < W && !RA.B[W - 1 - Clz])
      ++Clz;
    while (Ctz < W && !RA.B[Ctz])
      ++Ctz;
    EXPECT_EQ(A.countLeadingZeros(), Clz);
    EXPECT_EQ(A.countTrailingZeros(), Ctz);
    EXPECT_EQ(A.fitsU64(), RA.lshr(std::min(W, 64u)).isZero());
    EXPECT_EQ(A.low64(), A.word(0));
    EXPECT_EQ(A.word(A.numWords()), 0u);
    // Decimal rendering divides by ten once per digit, bit by bit past 64
    // bits; a 200-bit magnitude keeps it quick at the widest width.
    BitVec Dec = W > 200 ? A.lshr(BitVec(W, W - 200)) : A;
    BitVec Parsed;
    ASSERT_TRUE(BitVec::fromString(W, Dec.toString(), Parsed));
    EXPECT_EQ(Parsed, Dec);
    ASSERT_TRUE(BitVec::fromString(W, A.toHexString(), Parsed));
    EXPECT_EQ(Parsed, A);
    EXPECT_EQ(BitVec(A).hash(), A.hash());
  }
}

INSTANTIATE_TEST_SUITE_P(InlineAndHeapWidths, BitVecBoundary,
                         ::testing::Values(1u, 63u, 64u, 65u, 128u, 4096u));

} // namespace
