//===- sema/Memory.cpp - SMT encoding of the memory model --------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sema/Memory.h"

#include "support/Profile.h"
#include "support/Stats.h"

#include <cassert>

using namespace alive;
using namespace alive::sema;
using namespace alive::smt;
using ir::Function;
using ir::Module;

//===----------------------------------------------------------------------===//
// MemoryLayout
//===----------------------------------------------------------------------===//

static unsigned countAllocas(const Function &F) {
  unsigned N = 0;
  for (unsigned BI = 0; BI < F.numBlocks(); ++BI)
    for (const auto &I : *F.block(BI))
      N += ir::isa<ir::Alloca>(I.get());
  return N;
}

static unsigned countPtrArgs(const Function &F) {
  unsigned N = 0;
  for (unsigned I = 0; I < F.numArgs(); ++I)
    N += F.arg(I)->type()->isPtr();
  return N;
}

MemoryLayout MemoryLayout::compute(const Function &Src, const Function &Tgt,
                                   const Module *M) {
  prof::Span ProfSpan("memory_layout");
  MemoryLayout L;
  L.Blocks.push_back(
      {Block::Kind::Null, 0, "null", 0, mkBV(64, 0), true});

  unsigned Bid = 1;
  if (M) {
    for (unsigned I = 0; I < M->numGlobals(); ++I) {
      const ir::GlobalVar *G = M->global(I);
      Block B{Block::Kind::Global, Bid++, G->name(), G->sizeBytes(),
              mkBV(64, G->sizeBytes()), G->isConstant()};
      L.Blocks.push_back(std::move(B));
    }
  }

  // Anonymous blocks reachable through pointer arguments: one per pointer
  // argument (plus one spare so distinct arguments can be made disjoint).
  unsigned Anon = std::max(countPtrArgs(Src), countPtrArgs(Tgt));
  if (Anon)
    ++Anon;
  for (unsigned I = 0; I < Anon; ++I) {
    Expr Size = mkVar("blocksize." + std::to_string(Bid), 64);
    L.Blocks.push_back(
        {Block::Kind::Anon, Bid, "anon" + std::to_string(I), 0, Size, false});
    ++Bid;
  }

  L.FirstLocal = Bid;
  // Local slots are shared numbering space for both sides' allocas.
  L.LocalSlots = std::max(countAllocas(Src), countAllocas(Tgt));
  for (unsigned I = 0; I < L.LocalSlots; ++I) {
    L.Blocks.push_back({Block::Kind::Local, Bid, "local" + std::to_string(I),
                        0, mkBV(64, 0), false});
    ++Bid;
  }

  unsigned NumBids = Bid;
  L.BidBits = 1;
  while ((1u << L.BidBits) < NumBids)
    ++L.BidBits;
  return L;
}

unsigned MemoryLayout::payloadBits() const {
  unsigned PtrPayload = 3 + BidBits + OffsetBits;
  return PtrPayload < 8 ? 8 : PtrPayload;
}

const MemoryLayout::Block *
MemoryLayout::globalBlock(const std::string &Name) const {
  for (const Block &B : Blocks)
    if (B.K == Block::Kind::Global && B.Name == Name)
      return &B;
  return nullptr;
}

Expr MemoryLayout::ptrBid(Expr Ptr) const {
  return mkExtract(Ptr, OffsetBits, BidBits);
}

Expr MemoryLayout::ptrOff(Expr Ptr) const {
  return mkExtract(Ptr, 0, OffsetBits);
}

Expr MemoryLayout::makePtr(Expr Bid, Expr Off) const {
  return mkConcat(Bid, Off);
}

Expr MemoryLayout::makePtr(unsigned Bid, uint64_t Off) const {
  return mkConcat(mkBV(BidBits, Bid), mkBV(OffsetBits, Off));
}

Expr MemoryLayout::blockSize(Expr Bid, const std::string &SideTag) const {
  Expr R = mkBV(64, 0); // out-of-table bids size 0 => any access is UB
  for (const Block &B : Blocks) {
    Expr Size;
    if (B.K == Block::Kind::Local)
      Size = mkVar("blocksize." + std::to_string(B.Bid) + "." + SideTag, 64);
    else
      Size = B.Size ? mkBV(64, B.Size) : B.SymSize;
    R = mkIte(mkEq(Bid, mkBV(BidBits, B.Bid)), Size, R);
  }
  return R;
}

Expr MemoryLayout::isLocalBid(Expr Bid) const {
  // Compare one bit wider: FirstLocal may equal 2^BidBits when there are
  // no local slots.
  return mkUge(mkZExt(Bid, BidBits + 1), mkBV(BidBits + 1, FirstLocal));
}

Expr MemoryLayout::isReadOnlyBid(Expr Bid) const {
  Expr R = mkFalse();
  for (const Block &B : Blocks)
    if (B.ReadOnly)
      R = mkOr(R, mkEq(Bid, mkBV(BidBits, B.Bid)));
  return R;
}

Expr MemoryLayout::isNonLocalOrNull(Expr Bid) const {
  return mkUlt(mkZExt(Bid, BidBits + 1), mkBV(BidBits + 1, FirstLocal));
}

//===----------------------------------------------------------------------===//
// ByteOps
//===----------------------------------------------------------------------===//

Expr ByteOps::packIntByte(Expr Value8, Expr PoisonMask8) const {
  assert(Value8.width() == 8 && PoisonMask8.width() == 8 &&
         "bad byte components");
  Expr Payload = mkZExt(Value8, L.payloadBits());
  return mkConcat(mkConcat(mkBV(1, 0), PoisonMask8), Payload);
}

Expr ByteOps::packPtrByte(Expr Ptr, unsigned ByteIdx, Expr NonPoison) const {
  Expr Payload = mkZExt(mkConcat(Ptr, mkBV(3, ByteIdx)), L.payloadBits());
  Expr Mask = mkIte(NonPoison, mkBV(8, 0), mkBV(BitVec::allOnes(8)));
  return mkConcat(mkConcat(mkBV(1, 1), Mask), Payload);
}

Expr ByteOps::isPtrByte(Expr Byte) const {
  return mkEq(mkExtract(Byte, L.payloadBits() + 8, 1), mkBV(1, 1));
}

Expr ByteOps::npMask(Expr Byte) const {
  return mkExtract(Byte, L.payloadBits(), 8);
}

Expr ByteOps::intValue(Expr Byte) const { return mkExtract(Byte, 0, 8); }

Expr ByteOps::ptrPayloadPtr(Expr Byte) const {
  return mkExtract(Byte, 3, L.ptrBits());
}

Expr ByteOps::ptrPayloadIdx(Expr Byte) const { return mkExtract(Byte, 0, 3); }

//===----------------------------------------------------------------------===//
// Memory
//===----------------------------------------------------------------------===//

Memory::Memory(const MemoryLayout &L, std::string SideTag)
    : L(L), SideTag(std::move(SideTag)), Version(mkBV(16, 0)) {}

Expr Memory::byteAddr(Expr Ptr, unsigned I) const {
  Expr Bid = L.ptrBid(Ptr);
  Expr Off = mkAdd(L.ptrOff(Ptr), mkBV(MemoryLayout::OffsetBits, I));
  return L.makePtr(Bid, Off);
}

Expr Memory::accessOk(Expr Ptr, unsigned Bytes, bool IsWrite) const {
  Expr Bid = L.ptrBid(Ptr);
  Expr Off = L.ptrOff(Ptr);
  Expr NotNull = mkNe(Bid, mkBV(L.bidBits(), 0));
  // One bit wider: numBlocks may equal 2^bidBits exactly.
  Expr InTable = mkUlt(mkZExt(Bid, L.bidBits() + 1),
                       mkBV(L.bidBits() + 1, L.numBlocks()));
  // off + Bytes <= size, evaluated at 65 bits to dodge wrap-around.
  Expr End = mkAdd(mkZExt(Off, 65), mkBV(65, Bytes));
  Expr InBounds = mkUle(End, mkZExt(blockSize(Bid), 65));
  Expr Ok = mkAnd(mkAnd(NotNull, InTable), InBounds);
  if (IsWrite)
    Ok = mkAnd(Ok, mkNot(L.isReadOnlyBid(Bid)));
  return Ok;
}

void Memory::storeByte(Expr Cond, Expr Addr, Expr Byte) {
  ALIVE_STAT_COUNTER(Stores, "memory.store_bytes");
  Stores.inc();
  Chain.push_back({false, Cond, Addr, Byte, nullptr});
}

void Memory::appendHavoc(Expr Cond, std::function<Expr(Expr)> ByteFn) {
  ALIVE_STAT_COUNTER(Havocs, "memory.havocs");
  Havocs.inc();
  Chain.push_back({true, Cond, Expr(), Expr(), std::move(ByteFn)});
}

void Memory::bumpVersion(Expr Cond) {
  Version = mkAdd(Version, mkIte(Cond, mkBV(16, 1), mkBV(16, 0)));
}

Expr Memory::initialByte(Expr Addr) const {
  // Shared world memory for non-local blocks; a per-side arbitrary-but-fixed
  // content for locals (an under-approximation of "load of an uninitialized
  // alloca yields undef": the undef is pinned; see DESIGN.md).
  Expr Shared = mkApp("mem0", L.byteBits(), {Addr});
  Expr LocalInit = mkApp("localinit." + SideTag, L.byteBits(), {Addr});
  return mkIte(L.isLocalBid(L.ptrBid(Addr)), LocalInit, Shared);
}

Expr Memory::loadByte(Expr Addr) const {
  ALIVE_STAT_COUNTER(Loads, "memory.load_bytes");
  Loads.inc();
  Expr R = initialByte(Addr);
  for (const Elem &E : Chain) {
    if (E.IsHavoc) {
      Expr Applies =
          mkAnd(E.Cond, L.isNonLocalOrNull(L.ptrBid(Addr)));
      R = mkIte(Applies, E.HavocByte(Addr), R);
    } else {
      R = mkIte(mkAnd(E.Cond, mkEq(Addr, E.Addr)), E.Byte, R);
    }
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Lane <-> bytes
//===----------------------------------------------------------------------===//

void sema::laneToBytes(const ByteOps &B, const ir::Type *Ty,
                       const StateValue &SV, std::vector<Expr> &Out) {
  unsigned Bytes = Ty->storeSize();
  if (Ty->isPtr()) {
    for (unsigned I = 0; I < Bytes; ++I)
      Out.push_back(B.packPtrByte(SV.Val, I, SV.NonPoison));
    return;
  }
  // Integer / FP: little-endian 8-bit slices, padded to whole bytes.
  Expr Bits = SV.Val;
  unsigned W = Bits.width();
  if (W < Bytes * 8)
    Bits = mkZExt(Bits, Bytes * 8);
  Expr Mask = mkIte(SV.NonPoison, mkBV(8, 0), mkBV(BitVec::allOnes(8)));
  for (unsigned I = 0; I < Bytes; ++I)
    Out.push_back(B.packIntByte(mkExtract(Bits, I * 8, 8), Mask));
}

StateValue sema::lanesFromBytes(const ByteOps &B, const ir::Type *Ty,
                                const std::vector<Expr> &Bytes) {
  assert(Bytes.size() == Ty->storeSize() && "byte count mismatch");
  if (Ty->isPtr()) {
    // All bytes must be pointer bytes of the same pointer in order.
    Expr Ptr = B.ptrPayloadPtr(Bytes[0]);
    Expr Ok = mkTrue();
    for (unsigned I = 0; I < Bytes.size(); ++I) {
      Ok = mkAnd(Ok, B.isPtrByte(Bytes[I]));
      Ok = mkAnd(Ok, mkEq(B.npMask(Bytes[I]), mkBV(8, 0)));
      Ok = mkAnd(Ok, mkEq(B.ptrPayloadIdx(Bytes[I]), mkBV(3, I)));
      if (I > 0)
        Ok = mkAnd(Ok, mkEq(B.ptrPayloadPtr(Bytes[I]), Ptr));
    }
    return {Ptr, Ok, mkFalse()};
  }
  // Integer / FP: value bits concatenated; poison if any relevant bit is
  // poison or any byte is a pointer byte (type punning rule, Section 4).
  unsigned W = Ty->bitWidth();
  Expr Val;
  Expr AnyPoison = mkFalse();
  Expr AnyPtr = mkFalse();
  for (unsigned I = 0; I < Bytes.size(); ++I) {
    Expr V8 = B.intValue(Bytes[I]);
    Val = I == 0 ? V8 : mkConcat(V8, Val);
    unsigned RelevantBits = W > I * 8 ? std::min(8u, W - I * 8) : 0;
    if (RelevantBits) {
      Expr MaskBits = mkExtract(B.npMask(Bytes[I]), 0, RelevantBits);
      AnyPoison = mkOr(AnyPoison, mkNe(MaskBits, mkBV(RelevantBits, 0)));
    }
    AnyPtr = mkOr(AnyPtr, B.isPtrByte(Bytes[I]));
  }
  if (Val.width() > W)
    Val = mkTrunc(Val, W);
  Expr NonPoison = mkAnd(mkNot(AnyPoison), mkNot(AnyPtr));
  return {Val, NonPoison, mkFalse()};
}
