//===- support/BitVec.cpp - Arbitrary-width two's-complement ints --------===//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/BitVec.h"

#include <algorithm>

using namespace alive;

BitVec::BitVec(unsigned W, uint64_t Val) : Width(W) {
  assert(W >= 1 && W <= MaxWidth && "unsupported bit-vector width");
  if (isInline()) {
    Word = Val;
  } else {
    Heap = new uint64_t[wordsFor(W)]();
    Heap[0] = Val;
  }
  clearUnusedBits();
}

BitVec::BitVec(unsigned W, std::vector<uint64_t> RawWords) : BitVec(W, 0) {
  RawWords.resize(numWords(), 0);
  std::copy(RawWords.begin(), RawWords.end(), words());
  clearUnusedBits();
}

BitVec::BitVec(const BitVec &O) : Width(O.Width) {
  if (isInline()) {
    Word = O.Word;
  } else {
    Heap = new uint64_t[numWords()];
    std::copy(O.Heap, O.Heap + numWords(), Heap);
  }
}

BitVec &BitVec::operator=(const BitVec &O) {
  if (this == &O)
    return *this;
  if (numWords() != O.numWords()) {
    BitVec Copy(O);
    return *this = std::move(Copy);
  }
  Width = O.Width;
  std::copy(O.words(), O.words() + numWords(), words());
  return *this;
}

BitVec &BitVec::operator=(BitVec &&O) noexcept {
  if (this == &O)
    return *this;
  if (!isInline())
    delete[] Heap;
  Width = O.Width;
  if (O.isInline())
    Word = O.Word;
  else
    Heap = O.Heap;
  O.Width = 1;
  O.Word = 0;
  return *this;
}

bool BitVec::sameWords(const BitVec &B) const {
  return std::equal(Heap, Heap + numWords(), B.Heap);
}

void BitVec::clearUnusedBits() {
  unsigned Rem = Width % 64;
  if (Rem != 0)
    words()[numWords() - 1] &= (~uint64_t(0)) >> (64 - Rem);
}

BitVec BitVec::allOnes(unsigned Width) {
  BitVec R(Width, 0);
  std::fill(R.words(), R.words() + R.numWords(), ~uint64_t(0));
  R.clearUnusedBits();
  return R;
}

BitVec BitVec::signedMin(unsigned Width) {
  BitVec R(Width, 0);
  R.words()[(Width - 1) / 64] = uint64_t(1) << ((Width - 1) % 64);
  return R;
}

BitVec BitVec::signedMax(unsigned Width) { return signedMin(Width).bvnot(); }

bool BitVec::isZero() const {
  const uint64_t *Ws = words();
  return std::all_of(Ws, Ws + numWords(), [](uint64_t W) { return W == 0; });
}

bool BitVec::fitsU64() const {
  const uint64_t *Ws = words();
  return std::all_of(Ws + 1, Ws + numWords(),
                     [](uint64_t W) { return W == 0; });
}

BitVec BitVec::add(const BitVec &B) const {
  assert(Width == B.Width && "width mismatch");
  BitVec R(Width, 0);
  const uint64_t *X = words(), *Y = B.words();
  uint64_t *Z = R.words();
  uint64_t Carry = 0;
  for (unsigned I = 0; I < numWords(); ++I) {
    uint64_t S = X[I] + Carry;
    uint64_t C1 = S < X[I];
    uint64_t S2 = S + Y[I];
    uint64_t C2 = S2 < S;
    Z[I] = S2;
    Carry = C1 | C2;
  }
  R.clearUnusedBits();
  return R;
}

BitVec BitVec::sub(const BitVec &B) const { return add(B.neg()); }

BitVec BitVec::neg() const { return bvnot().add(BitVec(Width, 1)); }

BitVec BitVec::mul(const BitVec &B) const {
  assert(Width == B.Width && "width mismatch");
  BitVec R(Width, 0);
  if (isInline()) {
    R.Word = Word * B.Word; // modulo 2^64, like the schoolbook below
    R.clearUnusedBits();
    return R;
  }
  // Schoolbook multiplication over 32-bit halves to keep carries in range.
  unsigned NumHalves = numWords() * 2;
  auto half = [](const uint64_t *Ws, unsigned I) -> uint64_t {
    uint64_t W = Ws[I / 2];
    return (I % 2) ? (W >> 32) : (W & 0xffffffffu);
  };
  std::vector<uint64_t> Acc(NumHalves, 0);
  for (unsigned I = 0; I < NumHalves; ++I) {
    uint64_t Carry = 0;
    uint64_t AI = half(Heap, I);
    if (AI == 0)
      continue;
    for (unsigned J = 0; I + J < NumHalves; ++J) {
      uint64_t Cur = Acc[I + J] + AI * half(B.Heap, J) + Carry;
      Acc[I + J] = Cur & 0xffffffffu;
      Carry = Cur >> 32;
    }
  }
  for (unsigned I = 0; I < numWords(); ++I)
    R.Heap[I] = Acc[2 * I] | (Acc[2 * I + 1] << 32);
  R.clearUnusedBits();
  return R;
}

void BitVec::udivrem(const BitVec &A, const BitVec &B, BitVec &Quot,
                     BitVec &Rem) {
  assert(A.Width == B.Width && "width mismatch");
  unsigned W = A.Width;
  Quot = BitVec(W, 0);
  Rem = BitVec(W, 0);
  if (B.isZero()) {
    Quot = allOnes(W); // SMT-LIB bvudiv x 0 = all ones.
    Rem = A;           // SMT-LIB bvurem x 0 = x.
    return;
  }
  if (A.isInline()) {
    Quot.Word = A.Word / B.Word;
    Rem.Word = A.Word % B.Word;
    return;
  }
  // Bit-at-a-time restoring division; widths are small so this is fine.
  for (int I = (int)W - 1; I >= 0; --I) {
    Rem = Rem.shl(BitVec(W, 1));
    if (A.bit(I))
      Rem.words()[0] |= 1;
    if (!Rem.ult(B)) {
      Rem = Rem.sub(B);
      Quot.words()[I / 64] |= uint64_t(1) << (I % 64);
    }
  }
}

BitVec BitVec::udiv(const BitVec &B) const {
  BitVec Q, R;
  udivrem(*this, B, Q, R);
  return Q;
}

BitVec BitVec::urem(const BitVec &B) const {
  BitVec Q, R;
  udivrem(*this, B, Q, R);
  return R;
}

BitVec BitVec::sdiv(const BitVec &B) const {
  bool NegA = sign(), NegB = B.sign();
  BitVec A1 = NegA ? neg() : *this;
  BitVec B1 = NegB ? B.neg() : B;
  if (B.isZero()) // SMT-LIB: bvsdiv x 0 = x<0 ? 1 : -1.
    return sign() ? BitVec(Width, 1) : allOnes(Width);
  BitVec Q = A1.udiv(B1);
  return NegA != NegB ? Q.neg() : Q;
}

BitVec BitVec::srem(const BitVec &B) const {
  if (B.isZero())
    return *this;
  bool NegA = sign();
  BitVec A1 = NegA ? neg() : *this;
  BitVec B1 = B.sign() ? B.neg() : B;
  BitVec R = A1.urem(B1);
  return NegA ? R.neg() : R;
}

BitVec BitVec::bvand(const BitVec &B) const {
  assert(Width == B.Width && "width mismatch");
  BitVec R(Width, 0);
  const uint64_t *X = words(), *Y = B.words();
  uint64_t *Z = R.words();
  for (unsigned I = 0; I < numWords(); ++I)
    Z[I] = X[I] & Y[I];
  return R;
}

BitVec BitVec::bvor(const BitVec &B) const {
  assert(Width == B.Width && "width mismatch");
  BitVec R(Width, 0);
  const uint64_t *X = words(), *Y = B.words();
  uint64_t *Z = R.words();
  for (unsigned I = 0; I < numWords(); ++I)
    Z[I] = X[I] | Y[I];
  return R;
}

BitVec BitVec::bvxor(const BitVec &B) const {
  assert(Width == B.Width && "width mismatch");
  BitVec R(Width, 0);
  const uint64_t *X = words(), *Y = B.words();
  uint64_t *Z = R.words();
  for (unsigned I = 0; I < numWords(); ++I)
    Z[I] = X[I] ^ Y[I];
  return R;
}

BitVec BitVec::bvnot() const {
  BitVec R(Width, 0);
  const uint64_t *X = words();
  uint64_t *Z = R.words();
  for (unsigned I = 0; I < numWords(); ++I)
    Z[I] = ~X[I];
  R.clearUnusedBits();
  return R;
}

BitVec BitVec::shl(const BitVec &B) const {
  if (!B.fitsU64() || B.low64() >= Width)
    return BitVec(Width, 0);
  unsigned Sh = (unsigned)B.low64();
  BitVec R(Width, 0);
  const uint64_t *X = words();
  uint64_t *Z = R.words();
  unsigned WordSh = Sh / 64, BitSh = Sh % 64;
  for (unsigned I = numWords(); I-- > 0;) {
    if (I < WordSh)
      continue;
    uint64_t V = X[I - WordSh] << BitSh;
    if (BitSh && I - WordSh > 0)
      V |= X[I - WordSh - 1] >> (64 - BitSh);
    Z[I] = V;
  }
  R.clearUnusedBits();
  return R;
}

BitVec BitVec::lshr(const BitVec &B) const {
  if (!B.fitsU64() || B.low64() >= Width)
    return BitVec(Width, 0);
  unsigned Sh = (unsigned)B.low64();
  BitVec R(Width, 0);
  const uint64_t *X = words();
  uint64_t *Z = R.words();
  unsigned NW = numWords(), WordSh = Sh / 64, BitSh = Sh % 64;
  for (unsigned I = 0; I < NW; ++I) {
    if (I + WordSh >= NW)
      break;
    uint64_t V = X[I + WordSh] >> BitSh;
    if (BitSh && I + WordSh + 1 < NW)
      V |= X[I + WordSh + 1] << (64 - BitSh);
    Z[I] = V;
  }
  return R;
}

BitVec BitVec::ashr(const BitVec &B) const {
  bool Neg = sign();
  if (!B.fitsU64() || B.low64() >= Width)
    return Neg ? allOnes(Width) : BitVec(Width, 0);
  unsigned Sh = (unsigned)B.low64();
  BitVec R = lshr(B);
  if (Neg && Sh > 0) {
    // Set the top Sh bits.
    BitVec Mask = allOnes(Width).shl(BitVec(Width, Width - Sh));
    R = R.bvor(Mask);
  }
  return R;
}

BitVec BitVec::zext(unsigned NewWidth) const {
  assert(NewWidth >= Width && "zext must not shrink");
  BitVec R(NewWidth, 0);
  std::copy(words(), words() + numWords(), R.words());
  return R;
}

BitVec BitVec::sext(unsigned NewWidth) const {
  assert(NewWidth >= Width && "sext must not shrink");
  if (!sign())
    return zext(NewWidth);
  BitVec R = allOnes(NewWidth);
  // Copy the low Width bits over the all-ones background.
  for (unsigned I = 0; I < Width; ++I)
    if (!bit(I))
      R.words()[I / 64] &= ~(uint64_t(1) << (I % 64));
  return R;
}

BitVec BitVec::trunc(unsigned NewWidth) const {
  assert(NewWidth <= Width && "trunc must not grow");
  BitVec R(NewWidth, 0);
  std::copy(words(), words() + R.numWords(), R.words());
  R.clearUnusedBits();
  return R;
}

BitVec BitVec::extract(unsigned Lo, unsigned Len) const {
  assert(Lo + Len <= Width && "extract out of range");
  return lshr(BitVec(Width, Lo)).trunc(Len);
}

BitVec BitVec::concat(const BitVec &B) const {
  unsigned NewW = Width + B.Width;
  BitVec Hi = zext(NewW).shl(BitVec(NewW, B.Width));
  return Hi.bvor(B.zext(NewW));
}

bool BitVec::ult(const BitVec &B) const {
  assert(Width == B.Width && "width mismatch");
  const uint64_t *X = words(), *Y = B.words();
  for (unsigned I = numWords(); I-- > 0;) {
    if (X[I] != Y[I])
      return X[I] < Y[I];
  }
  return false;
}

bool BitVec::slt(const BitVec &B) const {
  bool SA = sign(), SB = B.sign();
  if (SA != SB)
    return SA;
  return ult(B);
}

bool BitVec::uaddOverflow(const BitVec &B) const {
  return add(B).ult(*this);
}

bool BitVec::saddOverflow(const BitVec &B) const {
  BitVec S = add(B);
  return sign() == B.sign() && S.sign() != sign();
}

bool BitVec::ssubOverflow(const BitVec &B) const {
  BitVec D = sub(B);
  return sign() != B.sign() && D.sign() != sign();
}

bool BitVec::umulOverflow(const BitVec &B) const {
  if (isInline())
    return ((unsigned __int128)Word * B.Word) >> Width != 0;
  BitVec A2 = zext(Width * 2), B2 = B.zext(Width * 2);
  BitVec P = A2.mul(B2);
  return !P.extract(Width, Width).isZero();
}

bool BitVec::smulOverflow(const BitVec &B) const {
  if (isInline()) {
    // Sign-extend both to 64 bits; the product fits in 128.
    unsigned Shift = 64 - Width;
    __int128 P = (__int128)((int64_t)(Word << Shift) >> Shift) *
                 ((int64_t)(B.Word << Shift) >> Shift);
    __int128 Max = ((__int128)1 << (Width - 1)) - 1;
    return P > Max || P < -Max - 1;
  }
  BitVec A2 = sext(Width * 2), B2 = B.sext(Width * 2);
  BitVec P = A2.mul(B2);
  BitVec Truncated = P.trunc(Width).sext(Width * 2);
  return P != Truncated;
}

unsigned BitVec::countLeadingZeros() const {
  for (unsigned I = Width; I-- > 0;)
    if (bit(I))
      return Width - 1 - I;
  return Width;
}

unsigned BitVec::countTrailingZeros() const {
  for (unsigned I = 0; I < Width; ++I)
    if (bit(I))
      return I;
  return Width;
}

unsigned BitVec::popCount() const {
  unsigned N = 0;
  for (unsigned I = 0; I < numWords(); ++I)
    N += (unsigned)__builtin_popcountll(words()[I]);
  return N;
}

bool BitVec::fromString(unsigned Width, const std::string &Str, BitVec &Out) {
  if (Str.empty())
    return false;
  bool Negate = Str[0] == '-';
  size_t Pos = Negate ? 1 : 0;
  if (Pos >= Str.size())
    return false;
  BitVec R(Width, 0);
  if (Str.size() > Pos + 2 && Str[Pos] == '0' &&
      (Str[Pos + 1] == 'x' || Str[Pos + 1] == 'X')) {
    for (size_t I = Pos + 2; I < Str.size(); ++I) {
      char C = Str[I];
      unsigned D;
      if (C >= '0' && C <= '9')
        D = C - '0';
      else if (C >= 'a' && C <= 'f')
        D = C - 'a' + 10;
      else if (C >= 'A' && C <= 'F')
        D = C - 'A' + 10;
      else
        return false;
      R = R.shl(BitVec(Width, 4)).bvor(BitVec(Width, D));
    }
  } else {
    BitVec Ten(Width, 10);
    for (size_t I = Pos; I < Str.size(); ++I) {
      char C = Str[I];
      if (C < '0' || C > '9')
        return false;
      R = R.mul(Ten).add(BitVec(Width, (unsigned)(C - '0')));
    }
  }
  Out = Negate ? R.neg() : R;
  return true;
}

std::string BitVec::toString() const {
  if (isZero())
    return "0";
  // Widen first: the divisor 10 would wrap at widths below 4 and the
  // division-by-zero convention (quotient all-ones) would never converge.
  BitVec V = Width < 4 ? zext(4) : *this;
  BitVec Ten(V.width(), 10);
  std::string S;
  while (!V.isZero()) {
    BitVec Q, R;
    udivrem(V, Ten, Q, R);
    S.push_back((char)('0' + R.low64()));
    V = Q;
  }
  std::reverse(S.begin(), S.end());
  return S;
}

std::string BitVec::toSignedString() const {
  if (sign())
    return "-" + neg().toString();
  return toString();
}

std::string BitVec::toHexString() const {
  static const char *Digits = "0123456789abcdef";
  std::string S;
  unsigned Nibbles = (Width + 3) / 4;
  for (unsigned I = Nibbles; I-- > 0;) {
    unsigned Lo = I * 4;
    unsigned Len = std::min(4u, Width - Lo);
    S.push_back(Digits[extract(Lo, Len).low64()]);
  }
  return "0x" + S;
}

size_t BitVec::hash() const {
  size_t H = 1469598103934665603ull ^ Width;
  for (unsigned I = 0; I < numWords(); ++I) {
    H ^= words()[I];
    H *= 1099511628211ull;
  }
  return H;
}
