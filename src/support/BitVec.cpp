//===- support/BitVec.cpp - Arbitrary-width two's-complement ints --------===//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/BitVec.h"

#include <algorithm>

using namespace alive;

static unsigned wordsForWidth(unsigned Width) { return (Width + 63) / 64; }

BitVec::BitVec(unsigned W, uint64_t Val) : Width(W) {
  assert(W >= 1 && W <= MaxWidth && "unsupported bit-vector width");
  Words.assign(wordsForWidth(W), 0);
  Words[0] = Val;
  clearUnusedBits();
}

BitVec::BitVec(unsigned W, std::vector<uint64_t> RawWords)
    : Width(W), Words(std::move(RawWords)) {
  assert(W >= 1 && W <= MaxWidth && "unsupported bit-vector width");
  Words.resize(wordsForWidth(W), 0);
  clearUnusedBits();
}

void BitVec::clearUnusedBits() {
  unsigned Rem = Width % 64;
  if (Rem != 0)
    Words.back() &= (~uint64_t(0)) >> (64 - Rem);
}

BitVec BitVec::allOnes(unsigned Width) {
  BitVec R(Width, 0);
  for (auto &W : R.Words)
    W = ~uint64_t(0);
  R.clearUnusedBits();
  return R;
}

BitVec BitVec::signedMin(unsigned Width) {
  BitVec R(Width, 0);
  R.Words[(Width - 1) / 64] = uint64_t(1) << ((Width - 1) % 64);
  return R;
}

BitVec BitVec::signedMax(unsigned Width) { return signedMin(Width).bvnot(); }

bool BitVec::isZero() const {
  for (uint64_t W : Words)
    if (W != 0)
      return false;
  return true;
}

bool BitVec::fitsU64() const {
  for (unsigned I = 1; I < Words.size(); ++I)
    if (Words[I] != 0)
      return false;
  return true;
}

BitVec BitVec::add(const BitVec &B) const {
  assert(Width == B.Width && "width mismatch");
  BitVec R(Width, 0);
  uint64_t Carry = 0;
  for (unsigned I = 0; I < Words.size(); ++I) {
    uint64_t S = Words[I] + Carry;
    uint64_t C1 = S < Words[I];
    uint64_t S2 = S + B.Words[I];
    uint64_t C2 = S2 < S;
    R.Words[I] = S2;
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
  // Schoolbook multiplication over 32-bit halves to keep carries in range.
  unsigned NumHalves = (unsigned)Words.size() * 2;
  auto half = [](const std::vector<uint64_t> &Ws, unsigned I) -> uint64_t {
    uint64_t W = I / 2 < Ws.size() ? Ws[I / 2] : 0;
    return (I % 2) ? (W >> 32) : (W & 0xffffffffu);
  };
  std::vector<uint64_t> Acc(NumHalves, 0);
  for (unsigned I = 0; I < NumHalves; ++I) {
    uint64_t Carry = 0;
    uint64_t AI = half(Words, I);
    if (AI == 0)
      continue;
    for (unsigned J = 0; I + J < NumHalves; ++J) {
      uint64_t Cur = Acc[I + J] + AI * half(B.Words, J) + Carry;
      Acc[I + J] = Cur & 0xffffffffu;
      Carry = Cur >> 32;
    }
  }
  for (unsigned I = 0; I < Words.size(); ++I)
    R.Words[I] = Acc[2 * I] | (Acc[2 * I + 1] << 32);
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
  // Bit-at-a-time restoring division; widths are small so this is fine.
  for (int I = (int)W - 1; I >= 0; --I) {
    Rem = Rem.shl(BitVec(W, 1));
    if (A.bit(I))
      Rem.Words[0] |= 1;
    if (!Rem.ult(B)) {
      Rem = Rem.sub(B);
      Quot.Words[I / 64] |= uint64_t(1) << (I % 64);
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
  for (unsigned I = 0; I < Words.size(); ++I)
    R.Words[I] = Words[I] & B.Words[I];
  return R;
}

BitVec BitVec::bvor(const BitVec &B) const {
  assert(Width == B.Width && "width mismatch");
  BitVec R(Width, 0);
  for (unsigned I = 0; I < Words.size(); ++I)
    R.Words[I] = Words[I] | B.Words[I];
  return R;
}

BitVec BitVec::bvxor(const BitVec &B) const {
  assert(Width == B.Width && "width mismatch");
  BitVec R(Width, 0);
  for (unsigned I = 0; I < Words.size(); ++I)
    R.Words[I] = Words[I] ^ B.Words[I];
  return R;
}

BitVec BitVec::bvnot() const {
  BitVec R(Width, 0);
  for (unsigned I = 0; I < Words.size(); ++I)
    R.Words[I] = ~Words[I];
  R.clearUnusedBits();
  return R;
}

BitVec BitVec::shl(const BitVec &B) const {
  if (!B.fitsU64() || B.low64() >= Width)
    return BitVec(Width, 0);
  unsigned Sh = (unsigned)B.low64();
  BitVec R(Width, 0);
  unsigned WordSh = Sh / 64, BitSh = Sh % 64;
  for (unsigned I = Words.size(); I-- > 0;) {
    if (I < WordSh)
      continue;
    uint64_t V = Words[I - WordSh] << BitSh;
    if (BitSh && I - WordSh > 0)
      V |= Words[I - WordSh - 1] >> (64 - BitSh);
    R.Words[I] = V;
  }
  R.clearUnusedBits();
  return R;
}

BitVec BitVec::lshr(const BitVec &B) const {
  if (!B.fitsU64() || B.low64() >= Width)
    return BitVec(Width, 0);
  unsigned Sh = (unsigned)B.low64();
  BitVec R(Width, 0);
  unsigned WordSh = Sh / 64, BitSh = Sh % 64;
  for (unsigned I = 0; I < Words.size(); ++I) {
    if (I + WordSh >= Words.size())
      break;
    uint64_t V = Words[I + WordSh] >> BitSh;
    if (BitSh && I + WordSh + 1 < Words.size())
      V |= Words[I + WordSh + 1] << (64 - BitSh);
    R.Words[I] = V;
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
  for (unsigned I = 0; I < Words.size(); ++I)
    R.Words[I] = Words[I];
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
      R.Words[I / 64] &= ~(uint64_t(1) << (I % 64));
  return R;
}

BitVec BitVec::trunc(unsigned NewWidth) const {
  assert(NewWidth <= Width && "trunc must not grow");
  BitVec R(NewWidth, 0);
  for (unsigned I = 0; I < R.Words.size(); ++I)
    R.Words[I] = Words[I];
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
  for (unsigned I = Words.size(); I-- > 0;) {
    if (Words[I] != B.Words[I])
      return Words[I] < B.Words[I];
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
  BitVec A2 = zext(Width * 2), B2 = B.zext(Width * 2);
  BitVec P = A2.mul(B2);
  return !P.extract(Width, Width).isZero();
}

bool BitVec::smulOverflow(const BitVec &B) const {
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
  for (uint64_t W : Words)
    N += (unsigned)__builtin_popcountll(W);
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
  for (uint64_t W : Words) {
    H ^= W;
    H *= 1099511628211ull;
  }
  return H;
}
