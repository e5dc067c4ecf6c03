//===- tests/sema/SemaTest.cpp -----------------------------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
// Unit tests for the semantics encoder: evaluating encodings on concrete
// inputs and checking them against the expected Figure 3 semantics, plus
// memory layout and byte pack/unpack invariants.
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "sema/Encoder.h"
#include "smt/Solver.h"
#include "transform/Unroll.h"

#include "gtest/gtest.h"

#include <map>

using namespace alive;
using namespace alive::sema;
using namespace alive::smt;

namespace {

struct Encoded {
  std::unique_ptr<ir::Module> M;
  std::unique_ptr<MemoryLayout> L;
  FunctionEncoding E;
};

Encoded encode(const char *IR) {
  resetContext();
  Encoded R;
  R.M = ir::parseModuleOrDie(IR);
  const ir::Function *F = R.M->function(R.M->numFunctions() - 1);
  R.L = std::make_unique<MemoryLayout>(
      MemoryLayout::compute(*F, *F, R.M.get()));
  R.E = encodeFunction(*F, *R.L, {}, EncodeOptions{"src", false});
  return R;
}

/// Evaluates an encoding under a model assigning concrete argument values
/// (no undef, no poison).
Model inputs(std::initializer_list<std::pair<unsigned, uint64_t>> Args,
             unsigned Width) {
  Model M;
  for (auto [Idx, V] : Args) {
    Expr Var = mkVar("in." + std::to_string(Idx) + ".0", Width);
    M.set(Var.id(), BitVec(Width, V));
  }
  return M;
}

TEST(Sema, AddEncoding) {
  Encoded R = encode(R"(
define i8 @f(i8 %a, i8 %b) {
entry:
  %x = add i8 %a, %b
  ret i8 %x
}
)");
  Model M = inputs({{0, 200}, {1, 100}}, 8);
  EXPECT_EQ(evaluate(R.E.RetVal.Elems[0].Val, M).low64(), (200 + 100) & 0xff);
  EXPECT_FALSE(evaluate(R.E.UB, M).low64());
  EXPECT_TRUE(evaluate(R.E.RetVal.Elems[0].NonPoison, M).low64());
  EXPECT_TRUE(evaluate(R.E.RetDomain, M).low64());
}

TEST(Sema, NswOverflowIsPoison) {
  Encoded R = encode(R"(
define i8 @f(i8 %a, i8 %b) {
entry:
  %x = add nsw i8 %a, %b
  ret i8 %x
}
)");
  Model M = inputs({{0, 127}, {1, 1}}, 8);
  EXPECT_FALSE(evaluate(R.E.RetVal.Elems[0].NonPoison, M).low64())
      << "127 + 1 overflows signed i8: poison";
  Model M2 = inputs({{0, 100}, {1, 1}}, 8);
  EXPECT_TRUE(evaluate(R.E.RetVal.Elems[0].NonPoison, M2).low64());
}

TEST(Sema, DivByZeroIsUB) {
  Encoded R = encode(R"(
define i8 @f(i8 %a, i8 %b) {
entry:
  %x = udiv i8 %a, %b
  ret i8 %x
}
)");
  Model M = inputs({{0, 10}, {1, 0}}, 8);
  EXPECT_TRUE(evaluate(R.E.UB, M).low64());
  Model M2 = inputs({{0, 10}, {1, 3}}, 8);
  EXPECT_FALSE(evaluate(R.E.UB, M2).low64());
  EXPECT_EQ(evaluate(R.E.RetVal.Elems[0].Val, M2).low64(), 3u);
}

TEST(Sema, SDivOverflowIsUB) {
  Encoded R = encode(R"(
define i8 @f(i8 %a, i8 %b) {
entry:
  %x = sdiv i8 %a, %b
  ret i8 %x
}
)");
  Model M = inputs({{0, 0x80}, {1, 0xff}}, 8); // INT_MIN / -1
  EXPECT_TRUE(evaluate(R.E.UB, M).low64());
}

TEST(Sema, BranchMergesDomains) {
  Encoded R = encode(R"(
define i8 @f(i8 %a) {
entry:
  %c = icmp ult i8 %a, 10
  br i1 %c, label %t, label %e
t:
  ret i8 1
e:
  ret i8 2
}
)");
  EXPECT_EQ(evaluate(R.E.RetVal.Elems[0].Val, inputs({{0, 5}}, 8)).low64(),
            1u);
  EXPECT_EQ(evaluate(R.E.RetVal.Elems[0].Val, inputs({{0, 50}}, 8)).low64(),
            2u);
}

TEST(Sema, BranchOnPoisonIsUB) {
  Encoded R = encode(R"(
define i8 @f(i8 %a) {
entry:
  %x = add nsw i8 %a, 1
  %c = icmp slt i8 %x, %a
  br i1 %c, label %t, label %e
t:
  ret i8 1
e:
  ret i8 2
}
)");
  Model M = inputs({{0, 127}}, 8); // 127+1 overflows -> poison -> branch UB
  EXPECT_TRUE(evaluate(R.E.UB, M).low64());
  Model M2 = inputs({{0, 5}}, 8);
  EXPECT_FALSE(evaluate(R.E.UB, M2).low64());
}

TEST(Sema, SelectShortCircuitsPoison) {
  Encoded R = encode(R"(
define i8 @f(i8 %a, i1 %c) {
entry:
  %p = add nsw i8 %a, 1
  %r = select i1 %c, i8 %p, i8 0
  ret i8 %r
}
)");
  // Select picks the non-poison arm: result defined even though %p poison.
  Model M;
  M.set(mkVar("in.0.0", 8).id(), BitVec(8, 127)); // %p poison
  M.set(mkVar("in.1.0", 1).id(), BitVec(1, 0));   // pick arm 2
  EXPECT_TRUE(evaluate(R.E.RetVal.Elems[0].NonPoison, M).low64());
  EXPECT_EQ(evaluate(R.E.RetVal.Elems[0].Val, M).low64(), 0u);
  Model M2;
  M2.set(mkVar("in.0.0", 8).id(), BitVec(8, 127));
  M2.set(mkVar("in.1.0", 1).id(), BitVec(1, 1)); // pick poison arm
  EXPECT_FALSE(evaluate(R.E.RetVal.Elems[0].NonPoison, M2).low64());
}

TEST(Sema, PoisonConstantPropagates) {
  Encoded R = encode(R"(
define i8 @f(i8 %a) {
entry:
  %x = add i8 %a, poison
  ret i8 %x
}
)");
  EXPECT_FALSE(
      evaluate(R.E.RetVal.Elems[0].NonPoison, inputs({{0, 1}}, 8)).low64());
}

TEST(Sema, FreezeYieldsDefined) {
  Encoded R = encode(R"(
define i8 @f() {
entry:
  %x = freeze i8 poison
  ret i8 %x
}
)");
  EXPECT_TRUE(
      evaluate(R.E.RetVal.Elems[0].NonPoison, Model()).low64());
  EXPECT_FALSE(R.E.NondetVars.empty()) << "freeze introduces a choice var";
}

TEST(Sema, UndefReadsAreRefreshed) {
  Encoded R = encode(R"(
define i8 @f() {
entry:
  %x = add i8 undef, undef
  ret i8 %x
}
)");
  // The two reads must use distinct nondet variables: the sum can be odd.
  std::unordered_set<ExprId> Vars;
  collectVars(R.E.RetVal.Elems[0].Val, Vars);
  EXPECT_GE(Vars.size(), 2u);
}

TEST(Sema, VectorLanesIndependentPoison) {
  Encoded R = encode(R"(
define <2 x i8> @f(<2 x i8> %v) {
entry:
  %x = add <2 x i8> %v, <i8 1, i8 poison>
  ret <2 x i8> %x
}
)");
  ASSERT_EQ(R.E.RetVal.Elems.size(), 2u);
  Model M;
  M.set(mkVar("in.0.0", 8).id(), BitVec(8, 5));
  M.set(mkVar("in.0.1", 8).id(), BitVec(8, 6));
  EXPECT_TRUE(evaluate(R.E.RetVal.Elems[0].NonPoison, M).low64());
  EXPECT_FALSE(evaluate(R.E.RetVal.Elems[1].NonPoison, M).low64());
  EXPECT_EQ(evaluate(R.E.RetVal.Elems[0].Val, M).low64(), 6u);
}

TEST(Sema, MemoryStoreLoadRoundTrip) {
  Encoded R = encode(R"(
define i16 @f(i16 %a) {
entry:
  %s = alloca i16
  store i16 %a, ptr %s
  %v = load i16, ptr %s
  ret i16 %v
}
)");
  Model M = inputs({{0, 0xbeef}}, 16);
  EXPECT_EQ(evaluate(R.E.RetVal.Elems[0].Val, M).low64(), 0xbeefu);
  EXPECT_TRUE(evaluate(R.E.RetVal.Elems[0].NonPoison, M).low64());
  // Axioms pin the local block size; UB must evaluate false under them.
  Model MA = M;
  for (Expr A : R.E.Axioms) {
    // blocksize axiom: eq(var, const) — extract and satisfy it.
    std::unordered_set<ExprId> Vars;
    collectVars(A, Vars);
    for (ExprId V : Vars)
      MA.set(V, BitVec(64, 2));
  }
  EXPECT_FALSE(evaluate(R.E.UB, MA).low64());
}

TEST(Sema, StorePoisonLoadsPoison) {
  Encoded R = encode(R"(
define i8 @f() {
entry:
  %s = alloca i8
  store i8 poison, ptr %s
  %v = load i8, ptr %s
  ret i8 %v
}
)");
  EXPECT_FALSE(evaluate(R.E.RetVal.Elems[0].NonPoison, Model()).low64());
}

TEST(Sema, CallsAreRecordedAndKeyed) {
  Encoded R = encode(R"(
declare i8 @ext(i8)
define i8 @f(i8 %a) {
entry:
  %r1 = call i8 @ext(i8 %a)
  %r2 = call i8 @ext(i8 %a)
  %x = add i8 %r1, %r2
  ret i8 %x
}
)");
  ASSERT_EQ(R.E.Calls.size(), 2u);
  EXPECT_EQ(R.E.Calls[0].Callee, "ext");
  // The second call's memory version differs (the first call havocs).
  EXPECT_NE(R.E.Calls[0].Version, R.E.Calls[1].Version);
}

TEST(Sema, KnownIntrinsicExact) {
  Encoded R = encode(R"(
define i8 @f(i8 %a, i8 %b) {
entry:
  %m = call i8 @llvm.smax.i8(i8 %a, i8 %b)
  ret i8 %m
}
)");
  EXPECT_TRUE(R.E.Calls.empty()) << "intrinsics are not external calls";
  EXPECT_TRUE(R.E.ApproxFnNames.empty()) << "smax has exact semantics";
  Model M = inputs({{0, 0xfe /*-2*/}, {1, 3}}, 8);
  EXPECT_EQ(evaluate(R.E.RetVal.Elems[0].Val, M).low64(), 3u);
}

TEST(Sema, MemsetExpandsToByteStores) {
  Encoded R = encode(R"(
define i8 @f(i8 %v) {
entry:
  %s = alloca [4 x i8]
  call void @llvm.memset.p0.i64(ptr %s, i8 %v, i64 4)
  %g = gep ptr %s, i64 2
  %l = load i8, ptr %g
  ret i8 %l
}
)");
  EXPECT_TRUE(R.E.Calls.empty()) << "memset with constant length is exact";
  Model M = inputs({{0, 0x5a}}, 8);
  EXPECT_EQ(evaluate(R.E.RetVal.Elems[0].Val, M).low64(), 0x5au);
}

TEST(Sema, MemcpyCopiesBytes) {
  Encoded R = encode(R"(
define i8 @f(i8 %v) {
entry:
  %a = alloca i8
  %b = alloca i8
  store i8 %v, ptr %a
  call void @llvm.memcpy.p0.i64(ptr %b, ptr %a, i64 1)
  %l = load i8, ptr %b
  ret i8 %l
}
)");
  Model M = inputs({{0, 0x77}}, 8);
  EXPECT_EQ(evaluate(R.E.RetVal.Elems[0].Val, M).low64(), 0x77u);
}

TEST(Sema, SaturatingAndOverflowIntrinsics) {
  Encoded R = encode(R"(
define i8 @f(i8 %a, i8 %b) {
entry:
  %s = call i8 @llvm.uadd.sat.i8(i8 %a, i8 %b)
  ret i8 %s
}
)");
  EXPECT_EQ(evaluate(R.E.RetVal.Elems[0].Val, inputs({{0, 200}, {1, 100}}, 8))
                .low64(),
            255u);
  EXPECT_EQ(evaluate(R.E.RetVal.Elems[0].Val, inputs({{0, 3}, {1, 4}}, 8))
                .low64(),
            7u);

  Encoded R2 = encode(R"(
define i1 @g(i8 %a, i8 %b) {
entry:
  %agg = call {i8, i1} @llvm.sadd.with.overflow.i8(i8 %a, i8 %b)
  %o = extractvalue {i8, i1} %agg, 1
  ret i1 %o
}
)");
  EXPECT_EQ(evaluate(R2.E.RetVal.Elems[0].Val,
                     inputs({{0, 127}, {1, 1}}, 8))
                .low64(),
            1u);
  EXPECT_EQ(evaluate(R2.E.RetVal.Elems[0].Val, inputs({{0, 5}, {1, 1}}, 8))
                .low64(),
            0u);
}

TEST(Sema, UnsupportedIntrinsicIsOverApproximated) {
  Encoded R = encode(R"(
define i8 @f(i8 %a) {
entry:
  %m = call i8 @llvm.fshl.i8(i8 %a, i8 %a, i8 3)
  ret i8 %m
}
)");
  EXPECT_FALSE(R.E.ApproxFnNames.empty())
      << "unknown intrinsics become tagged over-approximations (3.8)";
}

TEST(Sema, SinkDomainsAreSeparated) {
  resetContext();
  auto M = ir::parseModuleOrDie(R"(
define i8 @f(i8 %a) {
entry:
  %c = icmp eq i8 %a, 0
  br i1 %c, label %s, label %r
s:
  unreachable
r:
  ret i8 1
}
)");
  const ir::Function *F = M->function(0);
  MemoryLayout L = MemoryLayout::compute(*F, *F, M.get());
  // First treat the unreachable as real UB...
  FunctionEncoding E1 = encodeFunction(*F, L, {}, EncodeOptions{"src", false});
  Model In = Model();
  Model MZero;
  MZero.set(mkVar("in.0.0", 8).id(), BitVec(8, 0));
  EXPECT_TRUE(evaluate(E1.UB, MZero).low64());
  EXPECT_TRUE(E1.SinkDomain.isFalse());
  // ...then as an unroller sink: excluded domain, not UB.
  std::unordered_set<const ir::BasicBlock *> Sinks{F->blockByName("s")};
  FunctionEncoding E2 =
      encodeFunction(*F, L, Sinks, EncodeOptions{"src", false});
  EXPECT_FALSE(evaluate(E2.UB, MZero).low64());
  EXPECT_TRUE(evaluate(E2.SinkDomain, MZero).low64());
}

TEST(Sema, ReadPathsNameEachRead) {
  // Every nondeterministic variable has a read path: its root (an argument,
  // an undef constant keyed by its reader, a freeze choice, a block size)
  // and the instructions that re-read it. A loop unrolled twice extends the
  // chains through the copies, and each path is interned once, as its
  // parent plus one step.
  resetContext();
  auto M = ir::parseModuleOrDie(R"(
define i8 @f(i8 %a, i8 %n) {
entry:
  %x = add i8 %a, undef
  %f = freeze i8 %x
  br label %loop
loop:
  %i = phi i8 [ 0, %entry ], [ %i1, %loop ]
  %i1 = add i8 %i, %a
  %c = icmp ult i8 %i1, %n
  br i1 %c, label %loop, label %exit
exit:
  %r = add i8 %f, %i1
  ret i8 %r
}
)");
  std::unique_ptr<ir::Function> F = M->function(0)->clone();
  transform::UnrollResult U = transform::unrollLoops(*F, 2);
  MemoryLayout L = MemoryLayout::compute(*F, *F, M.get());
  FunctionEncoding E =
      encodeFunction(*F, L, U.Sinks, EncodeOptions{"src", false});
  ASSERT_EQ(E.NondetPaths.size(), E.NondetOrder.size());
  std::map<std::string, unsigned> Ids;
  for (unsigned P : E.NondetPaths)
    Ids[E.Paths.render(P)] = P;
  for (const char *Want :
       {"blocksize.1", "%a", "%n", "%a > %x", "undef(%x)", "%a > %x > %f",
        "undef(%x) > %f", "freeze(%f)", "%a > %i1 > %c > br",
        "%n > %c > br", "%a > %i1.l0u2 > %c.l0u2 > br",
        "%a > %i1 > %i.l0u2 > %i1.l0u2 > %c.l0u2 > br"})
    EXPECT_TRUE(Ids.count(Want)) << Want;
  unsigned Deep = Ids["%a > %i1 > %i.l0u2 > %i1.l0u2 > %c.l0u2 > br"];
  EXPECT_EQ(E.Paths.parent(Deep),
            Ids["%a > %i1 > %i.l0u2 > %i1.l0u2 > %c.l0u2"]);
  EXPECT_EQ(E.Paths.root(Deep), Ids["%a"]);
  EXPECT_EQ(E.Paths.key(Deep), "br");
  EXPECT_EQ(E.Paths.root(Ids["undef(%x) > %f"]), Ids["undef(%x)"]);
  EXPECT_EQ(E.Paths.size(), Ids.size());
}

TEST(Sema, FcmpClassification) {
  Encoded R = encode(R"(
define i1 @f(float %a) {
entry:
  %c = fcmp uno float %a, %a
  ret i1 %c
}
)");
  Model MNaN = inputs({{0, 0x7fc00000}}, 32);
  EXPECT_EQ(evaluate(R.E.RetVal.Elems[0].Val, MNaN).low64(), 1u);
  Model MOne = inputs({{0, 0x3f800000}}, 32);
  EXPECT_EQ(evaluate(R.E.RetVal.Elems[0].Val, MOne).low64(), 0u);
}

TEST(Sema, FaddExactZeroCases) {
  Encoded R = encode(R"(
define float @f(float %a) {
entry:
  %r = fadd float %a, 0.0
  ret float %r
}
)");
  // -0.0 + +0.0 == +0.0 (the crux of selected bug #2).
  Model MNegZero = inputs({{0, 0x80000000}}, 32);
  EXPECT_EQ(evaluate(R.E.RetVal.Elems[0].Val, MNegZero).low64(), 0u);
  // x + 0.0 == x for normal x.
  Model MOne = inputs({{0, 0x3f800000}}, 32);
  EXPECT_EQ(evaluate(R.E.RetVal.Elems[0].Val, MOne).low64(), 0x3f800000u);
  EXPECT_TRUE(R.E.ApproxFnNames.count("fadd.f32"))
      << "the general rounding case is a tagged over-approximation";
}

TEST(Sema, ByteOpsRoundTrip) {
  resetContext();
  auto M = ir::parseModuleOrDie("define void @f() {\nentry:\n  ret void\n}\n");
  const ir::Function *F = M->function(0);
  MemoryLayout L = MemoryLayout::compute(*F, *F, M.get());
  ByteOps B(L);
  Expr Byte = B.packIntByte(mkBV(8, 0xa5), mkBV(8, 0x0f));
  EXPECT_TRUE(B.isPtrByte(Byte).isFalse());
  BitVec V;
  ASSERT_TRUE(B.intValue(Byte).getConst(V));
  EXPECT_EQ(V.low64(), 0xa5u);
  ASSERT_TRUE(B.npMask(Byte).getConst(V));
  EXPECT_EQ(V.low64(), 0x0fu);

  Expr Ptr = L.makePtr(1u, 0x1234);
  Expr PByte = B.packPtrByte(Ptr, 5, mkTrue());
  EXPECT_TRUE(B.isPtrByte(PByte).isTrue());
  ASSERT_TRUE(B.ptrPayloadIdx(PByte).getConst(V));
  EXPECT_EQ(V.low64(), 5u);
  EXPECT_EQ(B.ptrPayloadPtr(PByte), Ptr);
}

} // namespace
