//===- support/SmallVec.h - Vector with inline storage ---------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A vector of trivially copyable elements that keeps up to N of them inside
/// the object and takes a heap block only past N. An expression node's
/// operands (N = 3) and a SAT literal's watch list (N = 2) are built this
/// way: both are mostly that short, and both come by the million in a run.
/// Either use fits the 24 bytes of an empty std::vector (DESIGN.md
/// "Expression kernel storage").
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_SUPPORT_SMALLVEC_H
#define ALIVE2RE_SUPPORT_SMALLVEC_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <type_traits>

namespace alive {

/// A vector with N inline slots. Growth past N moves the elements to one
/// heap block, and past that doubles it like std::vector; truncating keeps
/// the block. Element order is always the order of insertion.
template <typename T, unsigned N> class SmallVec {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "SmallVec copies its elements bytewise");
  static_assert(N >= 1, "SmallVec needs an inline slot");

public:
  SmallVec() {}
  SmallVec(std::initializer_list<T> L) { assign(L.begin(), L.size()); }
  SmallVec(const SmallVec &O) { assign(O.data(), O.size()); }
  SmallVec(SmallVec &&O) noexcept { steal(O); }
  ~SmallVec() { release(); }

  SmallVec &operator=(const SmallVec &O) {
    if (this != &O)
      assign(O.data(), O.size());
    return *this;
  }
  SmallVec &operator=(SmallVec &&O) noexcept {
    if (this != &O) {
      release();
      steal(O);
    }
    return *this;
  }
  SmallVec &operator=(std::initializer_list<T> L) {
    assign(L.begin(), L.size());
    return *this;
  }

  uint32_t size() const { return Size; }

  T *data() { return isInline() ? Inline : Heap; }
  const T *data() const { return isInline() ? Inline : Heap; }
  T *begin() { return data(); }
  T *end() { return data() + Size; }
  const T *begin() const { return data(); }
  const T *end() const { return data() + Size; }

  T &operator[](uint32_t I) {
    assert(I < Size && "SmallVec index out of range");
    return data()[I];
  }
  const T &operator[](uint32_t I) const {
    assert(I < Size && "SmallVec index out of range");
    return data()[I];
  }

  void push_back(const T &V) {
    T Copy = V; // V may live in this vector, which grow() moves
    if (Size == Cap)
      grow(Size + 1);
    data()[Size++] = Copy;
  }
  /// Keeps the first \p NewSize elements; a heap block stays allocated.
  void truncate(uint32_t NewSize) {
    assert(NewSize <= Size && "truncate cannot grow a SmallVec");
    Size = NewSize;
  }

  bool operator==(const SmallVec &O) const {
    return Size == O.Size && std::equal(begin(), end(), O.begin());
  }

private:
  uint32_t Size = 0;
  uint32_t Cap = N; // N: inline; larger: the capacity of Heap
  union {
    T Inline[N];
    T *Heap;
  };

  /// True while the elements live inside the object.
  bool isInline() const { return Cap == N; }

  void assign(const T *From, uint32_t Count) {
    if (Count > Cap)
      grow(Count);
    if (Count)
      std::memmove(data(), From, Count * sizeof(T));
    Size = Count;
  }
  void grow(uint32_t Needed) {
    uint32_t NewCap = std::max<uint32_t>(2 * Cap, Needed);
    T *Block = static_cast<T *>(::operator new(NewCap * sizeof(T)));
    std::memcpy(Block, data(), Size * sizeof(T));
    release();
    Heap = Block;
    Cap = NewCap;
  }
  void release() {
    if (!isInline())
      ::operator delete(Heap);
    Cap = N;
  }
  /// Takes \p O's elements and leaves it empty and inline.
  void steal(SmallVec &O) {
    Size = O.Size;
    Cap = O.Cap;
    if (O.isInline())
      std::memcpy(Inline, O.Inline, Size * sizeof(T));
    else
      Heap = O.Heap;
    O.Size = 0;
    O.Cap = N;
  }
};

} // namespace alive

#endif // ALIVE2RE_SUPPORT_SMALLVEC_H
