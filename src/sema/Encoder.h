//===- sema/Encoder.h - IR -> SMT function encoding -------------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Encodes one (already unrolled, acyclic) IR function into SMT following
/// Sections 3, 4 and 6 of the paper: per-register (value, ispoison) pairs
/// with per-use undef refresh, flow-sensitive block domains with no path
/// forking, a UB accumulator, byte-granular memory, and unknown calls as
/// uninterpreted functions keyed by (memory version, arguments) so that
/// matching source/target calls agree by congruence.
///
/// Quantifier roles: variables named "in.*"/"blocksize.*" plus the shared
/// memory applications are inputs I (common to both functions); variables
/// registered in FunctionEncoding::NondetVars are that side's
/// nondeterminism N (undef instances, freeze picks, NaN bit patterns, nsz
/// zero signs).
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_SEMA_ENCODER_H
#define ALIVE2RE_SEMA_ENCODER_H

#include "sema/Memory.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace alive::sema {

struct EncodeOptions {
  /// Symbol tag for this side's nondeterminism ("src", "tgt", "srcI", ...).
  std::string Tag = "src";
  /// Equivalence-baseline mode (ablation E7): no UB, no poison, pinned
  /// undef. This reproduces a naive translation validator without deferred
  /// UB support.
  bool IgnoreUB = false;
};

/// Where each nondeterministic variable of an encoding comes from: its root
/// choice plus the chain of instructions that re-read it (each read of a
/// value whose template carries refresh variables is a fresh choice,
/// Section 3.3). A path is interned as its parent path plus one step, so a
/// chain that grows with the unroll factor costs one entry per read: a
/// trie whose children are found on their parent's list (a value has few
/// readers), and whose roots are hashed.
/// Rendered for people as "%a > %x > ret" (DESIGN.md "Instantiation
/// seeds").
class ReadPaths {
public:
  static constexpr unsigned None = ~0u;
  /// What one entry is. Read: a reader by its key, "%name" or the opcode
  /// of an unnamed reader, or a root spelled in full ("%a", "blocksize.1").
  /// The choice kinds are roots keyed by an instruction: an undef constant
  /// by its reader, a freeze/nsz/NaN choice by its own instruction.
  enum class Step : uint8_t { Read, Undef, Freeze, Nsz, NaNBits, NaNSign };

  /// The id of the key string \p Key, interned.
  unsigned internKey(const std::string &Key);
  /// The id of \p Key when interned, else None.
  unsigned findKey(const std::string &Key) const;
  size_t numKeys() const { return Keys.size(); }
  const std::string &keyText(unsigned KeyId) const { return Keys[KeyId]; }

  /// The path (\p Parent, \p S, key id \p Key), interned; \p Parent is
  /// None for a root.
  unsigned intern(unsigned Parent, Step S, unsigned Key);
  /// Its id when interned, else None.
  unsigned find(unsigned Parent, Step S, unsigned Key) const;

  size_t size() const { return Entries.size(); }
  unsigned parent(unsigned Id) const { return Entries[Id].Parent; }
  unsigned root(unsigned Id) const { return Entries[Id].Root; }
  Step step(unsigned Id) const { return Entries[Id].S; }
  /// The key id of path \p Id's last step.
  unsigned keyId(unsigned Id) const { return Entries[Id].Key; }
  const std::string &key(unsigned Id) const { return Keys[keyId(Id)]; }
  /// "undef(%x) > %y > ret".
  std::string render(unsigned Id) const;

private:
  struct Entry {
    unsigned Parent, Root, Key;
    Step S;
    /// The first child, and the next child of the same parent.
    unsigned FirstChild = None, NextSibling = None;
  };
  std::vector<Entry> Entries;
  std::vector<std::string> Keys;
  std::unordered_map<std::string, unsigned> KeyIds;
  /// Roots by (key, step).
  std::unordered_map<uint64_t, unsigned> Roots;
};

/// One call site's record, used for the "no introduced calls" check.
struct CallRecord {
  std::string Callee;
  smt::Expr Dom;
  smt::Expr Version;
  std::vector<smt::Expr> Args; // flattened values and poison flags
};

/// The result of encoding a function.
struct FunctionEncoding {
  /// Precondition over the inputs (argument attributes, pointer-argument
  /// block validity). Sink-domain negation is added by the refinement layer.
  smt::Expr Pre = smt::mkTrue();
  /// Semantic axioms (exact FP special cases, etc.) to conjoin with this
  /// side's execution formula.
  std::vector<smt::Expr> Axioms;
  /// Domain-weighted immediate-UB condition.
  smt::Expr UB = smt::mkFalse();
  /// Domain of the unroller's sink blocks (negated into the precondition).
  smt::Expr SinkDomain = smt::mkFalse();
  /// Domain of reaching some ret instruction.
  smt::Expr RetDomain = smt::mkFalse();
  /// Merged return value (empty for void functions).
  EncodedValue RetVal;
  /// Final memory state.
  std::shared_ptr<Memory> Mem;
  std::vector<CallRecord> Calls;

  std::unordered_set<smt::ExprId> NondetVars;
  /// The same variables in creation order (used to align the inner source
  /// copy's nondeterminism with the target's / premise copy's for seeding).
  std::vector<smt::Expr> NondetOrder;
  /// NondetOrder[I]'s read path, an id in Paths.
  std::vector<unsigned> NondetPaths;
  ReadPaths Paths;
  /// Uninterpreted-function names whose presence in a counterexample means
  /// the result is an over-approximation (Section 3.8), not a proven bug.
  std::unordered_set<std::string> ApproxFnNames;
};

/// Encodes \p F. The function must be loop-free (run the unroller first);
/// \p Sinks are the unroller's sink blocks.
FunctionEncoding
encodeFunction(const ir::Function &F, const MemoryLayout &L,
               const std::unordered_set<const ir::BasicBlock *> &Sinks,
               const EncodeOptions &Opts);

} // namespace alive::sema

#endif // ALIVE2RE_SEMA_ENCODER_H
