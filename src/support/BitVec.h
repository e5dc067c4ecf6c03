//===- support/BitVec.h - Arbitrary-width two's-complement ints -*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Arbitrary-precision fixed-width bit-vector arithmetic. This is the value
/// domain shared by the IR constant folder, the SMT simplifier, and the
/// reference semantics used by the property tests to cross-check the
/// bit-blaster. Semantics follow SMT-LIB QF_BV: all operations are modular in
/// the given width, and division by zero yields all-ones (udiv) / the
/// SMT-LIB-defined results, with the IR layer mapping division by zero to UB
/// before it ever reaches here.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_SUPPORT_BITVEC_H
#define ALIVE2RE_SUPPORT_BITVEC_H

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace alive {

/// A fixed-width bit-vector value with two's-complement semantics.
///
/// Widths from 1 to MaxWidth bits are supported. Values are stored
/// little-endian in 64-bit words and always kept canonical (bits above the
/// width are zero), so equality is plain word-wise comparison. A value of
/// up to 64 bits lives in one inline word; only a wider one takes a heap
/// block, so arithmetic at the IR's integer widths never allocates.
class BitVec {
public:
  static constexpr unsigned MaxWidth = 4096;

  /// Builds the zero value of width 1. Mostly for containers.
  BitVec() : Width(1), Word(0) {}
  BitVec(const BitVec &O);
  BitVec(BitVec &&O) noexcept : Width(O.Width) {
    if (O.isInline())
      Word = O.Word;
    else
      Heap = O.Heap; // the block changes hands
    O.Width = 1;
    O.Word = 0;
  }
  BitVec &operator=(const BitVec &O);
  BitVec &operator=(BitVec &&O) noexcept;
  ~BitVec() {
    if (!isInline())
      delete[] Heap;
  }

  /// Builds a value of the given width from the low bits of \p Val.
  BitVec(unsigned Width, uint64_t Val);

  /// Builds a value from explicit words (little-endian).
  BitVec(unsigned Width, std::vector<uint64_t> RawWords);

  /// Parses a decimal (possibly negated) or 0x-prefixed hex string.
  /// \returns false on syntax error or overflow handling failure.
  static bool fromString(unsigned Width, const std::string &Str, BitVec &Out);

  static BitVec zero(unsigned Width) { return BitVec(Width, 0); }
  static BitVec one(unsigned Width) { return BitVec(Width, 1); }
  static BitVec allOnes(unsigned Width);
  /// The minimum signed value (sign bit set, rest clear).
  static BitVec signedMin(unsigned Width);
  /// The maximum signed value (sign bit clear, rest set).
  static BitVec signedMax(unsigned Width);

  unsigned width() const { return Width; }
  unsigned numWords() const { return wordsFor(Width); }
  uint64_t word(unsigned I) const { return I < numWords() ? words()[I] : 0; }

  bool isZero() const;
  bool isOne() const { return Width >= 1 && *this == BitVec(Width, 1); }
  bool isAllOnes() const { return *this == allOnes(Width); }
  bool bit(unsigned I) const {
    assert(I < Width && "bit index out of range");
    return (words()[I / 64] >> (I % 64)) & 1;
  }
  bool sign() const { return bit(Width - 1); }

  /// Low 64 bits of the value (zero-extended if narrower).
  uint64_t low64() const { return words()[0]; }
  /// \returns true if the value fits in a uint64_t.
  bool fitsU64() const;

  // Arithmetic (all modular in Width).
  BitVec add(const BitVec &B) const;
  BitVec sub(const BitVec &B) const;
  BitVec neg() const;
  BitVec mul(const BitVec &B) const;
  /// Unsigned division; division by zero yields all-ones (SMT-LIB bvudiv).
  BitVec udiv(const BitVec &B) const;
  /// Unsigned remainder; remainder by zero yields the dividend.
  BitVec urem(const BitVec &B) const;
  /// Signed division (SMT-LIB bvsdiv semantics on zero divisor).
  BitVec sdiv(const BitVec &B) const;
  BitVec srem(const BitVec &B) const;

  // Bitwise.
  BitVec bvand(const BitVec &B) const;
  BitVec bvor(const BitVec &B) const;
  BitVec bvxor(const BitVec &B) const;
  BitVec bvnot() const;

  // Shifts: the shift amount is the full value of \p B; amounts >= Width
  // produce zero (or all-sign for ashr), matching SMT-LIB.
  BitVec shl(const BitVec &B) const;
  BitVec lshr(const BitVec &B) const;
  BitVec ashr(const BitVec &B) const;

  // Width changes.
  BitVec zext(unsigned NewWidth) const;
  BitVec sext(unsigned NewWidth) const;
  BitVec trunc(unsigned NewWidth) const;
  /// Bits [Lo, Lo+Len) as a Len-wide value.
  BitVec extract(unsigned Lo, unsigned Len) const;
  /// this is the high part: result = this : B (this shifted left, B low).
  BitVec concat(const BitVec &B) const;

  // Comparisons.
  bool operator==(const BitVec &B) const {
    return Width == B.Width && (isInline() ? Word == B.Word : sameWords(B));
  }
  bool operator!=(const BitVec &B) const { return !(*this == B); }
  bool ult(const BitVec &B) const;
  bool ule(const BitVec &B) const { return !B.ult(*this); }
  bool slt(const BitVec &B) const;
  bool sle(const BitVec &B) const { return !B.slt(*this); }
  bool ugt(const BitVec &B) const { return B.ult(*this); }
  bool uge(const BitVec &B) const { return B.ule(*this); }
  bool sgt(const BitVec &B) const { return B.slt(*this); }
  bool sge(const BitVec &B) const { return B.sle(*this); }

  // Overflow predicates used for nsw/nuw poison rules.
  bool uaddOverflow(const BitVec &B) const;
  bool saddOverflow(const BitVec &B) const;
  bool ssubOverflow(const BitVec &B) const;
  bool umulOverflow(const BitVec &B) const;
  bool smulOverflow(const BitVec &B) const;

  unsigned countLeadingZeros() const;
  unsigned countTrailingZeros() const;
  unsigned popCount() const;
  /// True iff exactly one bit is set.
  bool isPowerOf2() const { return popCount() == 1; }

  /// Unsigned decimal rendering.
  std::string toString() const;
  /// Signed decimal rendering (leading '-' when the sign bit is set).
  std::string toSignedString() const;
  /// 0x-prefixed hex rendering.
  std::string toHexString() const;

  /// FNV-style hash for use in hash maps.
  size_t hash() const;

private:
  unsigned Width;
  union {
    uint64_t Word;  // Width <= 64
    uint64_t *Heap; // Width > 64: wordsFor(Width) words
  };

  static unsigned wordsFor(unsigned W) { return (W + 63) / 64; }
  bool isInline() const { return Width <= 64; }
  uint64_t *words() { return isInline() ? &Word : Heap; }
  const uint64_t *words() const { return isInline() ? &Word : Heap; }
  bool sameWords(const BitVec &B) const;
  void clearUnusedBits();
  /// Unsigned divmod helper used by all the division flavors.
  static void udivrem(const BitVec &A, const BitVec &B, BitVec &Quot,
                      BitVec &Rem);
};

} // namespace alive

#endif // ALIVE2RE_SUPPORT_BITVEC_H
