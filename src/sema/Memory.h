//===- sema/Memory.h - SMT encoding of the memory model ---------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section 4 memory model: memory blocks identified by small integer
/// bids, pointers as (bid, offset) bit-vector pairs, and byte-granular
/// contents with per-bit poison masks and pointer-byte tags. Memory state is
/// a guarded store chain (functional updates) rooted at a shared
/// uninterpreted initial memory, so the same initial bytes are observed by
/// the source and target functions.
///
/// Layout of one encoded byte, low bits first:
///   [ payload : PW ] [ npMask : 8 ] [ isPtr : 1 ]
/// where PW = max(8, 3 + bidBits + 64). Non-pointer bytes keep an 8-bit
/// value in the low payload bits; pointer bytes keep (byteIdx:3, bid, off).
/// npMask bit i set means *bit i is poison* (whole-byte for pointer bytes).
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_SEMA_MEMORY_H
#define ALIVE2RE_SEMA_MEMORY_H

#include "ir/Function.h"
#include "sema/StateValue.h"

#include <functional>
#include <unordered_map>

namespace alive::sema {

/// The block table shared by the source/target pair: bid 0 is null, then
/// globals (by name), then anonymous input blocks that argument pointers may
/// reference, then per-side local (alloca) blocks.
class MemoryLayout {
public:
  struct Block {
    enum class Kind : uint8_t { Null, Global, Anon, Local };
    Kind K;
    unsigned Bid;
    std::string Name;
    /// Concrete size when known; otherwise Size == 0 and SymSize is a
    /// shared symbolic input.
    uint64_t Size = 0;
    smt::Expr SymSize;
    bool ReadOnly = false;
  };

  /// Builds the table for a src/tgt function pair (globals come from the
  /// pair's module; local slots cover the larger alloca count).
  static MemoryLayout compute(const ir::Function &Src, const ir::Function &Tgt,
                              const ir::Module *M);

  unsigned bidBits() const { return BidBits; }
  static constexpr unsigned OffsetBits = 64;
  unsigned ptrBits() const { return BidBits + OffsetBits; }
  unsigned payloadBits() const;
  unsigned byteBits() const { return payloadBits() + 9; }

  unsigned numBlocks() const { return (unsigned)Blocks.size(); }
  unsigned numLocalSlots() const { return LocalSlots; }
  const Block &block(unsigned Bid) const { return Blocks[Bid]; }
  const Block *globalBlock(const std::string &Name) const;
  /// First bid of the per-side local (alloca) region.
  unsigned firstLocalBid() const { return FirstLocal; }

  /// Expr helpers on packed pointers (bid ++ off).
  smt::Expr ptrBid(smt::Expr Ptr) const;
  smt::Expr ptrOff(smt::Expr Ptr) const;
  smt::Expr makePtr(smt::Expr Bid, smt::Expr Off) const;
  smt::Expr makePtr(unsigned Bid, uint64_t Off) const;
  smt::Expr nullPtr() const { return makePtr(0u, 0); }
  /// Size of the block \p Bid points to (ite chain; symbolic for Anon
  /// blocks, and per-side symbolic for Local blocks — the encoder pins the
  /// local sizes with axioms when it sees the allocas).
  smt::Expr blockSize(smt::Expr Bid, const std::string &SideTag) const;
  smt::Expr isLocalBid(smt::Expr Bid) const;
  smt::Expr isReadOnlyBid(smt::Expr Bid) const;
  /// Valid non-local block for argument pointers: null or a Global/Anon bid.
  smt::Expr isNonLocalOrNull(smt::Expr Bid) const;

private:
  std::vector<Block> Blocks;
  unsigned BidBits = 1;
  unsigned FirstLocal = 1;
  unsigned LocalSlots = 0;
};

/// Byte pack/unpack helpers (see the file comment for the layout).
struct ByteOps {
  const MemoryLayout &L;
  explicit ByteOps(const MemoryLayout &L) : L(L) {}

  smt::Expr packIntByte(smt::Expr Value8, smt::Expr PoisonMask8) const;
  smt::Expr packPtrByte(smt::Expr Ptr, unsigned ByteIdx,
                        smt::Expr NonPoison) const;
  smt::Expr isPtrByte(smt::Expr Byte) const;
  smt::Expr npMask(smt::Expr Byte) const;
  smt::Expr intValue(smt::Expr Byte) const;
  smt::Expr ptrPayloadPtr(smt::Expr Byte) const;    // the (bid,off) part
  smt::Expr ptrPayloadIdx(smt::Expr Byte) const;    // the 3-bit byte index
};

/// One function execution's memory: a guarded chain of updates over the
/// shared initial memory. The encoder owns UB bookkeeping; this class only
/// provides the bounds predicate.
class Memory {
public:
  /// \p SideTag distinguishes per-side symbols ("src"/"tgt"/"srcI").
  Memory(const MemoryLayout &L, std::string SideTag);

  /// Address of byte \p I of the access at \p Ptr.
  smt::Expr byteAddr(smt::Expr Ptr, unsigned I) const;

  /// UB-free condition for an access of \p Bytes bytes at \p Ptr:
  /// a real (non-null, in-table) block, in bounds, and writable if needed.
  smt::Expr accessOk(smt::Expr Ptr, unsigned Bytes, bool IsWrite) const;

  /// Block size seen by this side (locals are per-side).
  smt::Expr blockSize(smt::Expr Bid) const {
    return L.blockSize(Bid, SideTag);
  }

  /// Appends a guarded single-byte store.
  void storeByte(smt::Expr Cond, smt::Expr Addr, smt::Expr Byte);
  /// Appends a call havoc over non-local blocks; \p ByteFn maps an address
  /// to the havocked byte expression.
  void appendHavoc(smt::Expr Cond, std::function<smt::Expr(smt::Expr)> ByteFn);

  /// Reads one byte at \p Addr through the chain.
  smt::Expr loadByte(smt::Expr Addr) const;

  /// The dynamic memory-version counter (counts maybe-observable stores and
  /// havocs so far), used to key unknown-call applications (Section 6).
  smt::Expr version() const { return Version; }
  void bumpVersion(smt::Expr Cond);

  const MemoryLayout &layout() const { return L; }

private:
  struct Elem {
    bool IsHavoc;
    smt::Expr Cond;
    smt::Expr Addr; // store only
    smt::Expr Byte; // store only
    std::function<smt::Expr(smt::Expr)> HavocByte;
  };

  const MemoryLayout &L;
  std::string SideTag;
  std::vector<Elem> Chain;
  smt::Expr Version;

  smt::Expr initialByte(smt::Expr Addr) const;
};

/// Serializes a scalar lane into \p N bytes appended to \p Out (undef/FP
/// values go in as plain bits; poison becomes a full poison mask).
void laneToBytes(const ByteOps &B, const ir::Type *Ty, const StateValue &SV,
                 std::vector<smt::Expr> &Out);

/// Reassembles a scalar lane of type \p Ty from consecutive bytes.
/// Type-punning rules of Section 4 apply: partial poison for ints, whole
/// poison for mismatched pointer/non-pointer bytes.
StateValue lanesFromBytes(const ByteOps &B, const ir::Type *Ty,
                          const std::vector<smt::Expr> &Bytes);

} // namespace alive::sema

#endif // ALIVE2RE_SEMA_MEMORY_H
