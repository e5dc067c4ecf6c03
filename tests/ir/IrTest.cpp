//===- tests/ir/IrTest.cpp -------------------------------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
// Tests for the IR substrate: type interning, parsing, printing (round
// trips), the verifier, and constant handling (undef/poison included).
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "opt/Pass.h"

#include "gtest/gtest.h"

#include <iterator>
#include <memory>
#include <vector>

using namespace alive;
using namespace alive::ir;

namespace {

TEST(Types, InterningGivesPointerEquality) {
  EXPECT_EQ(Type::getInt(32), Type::getInt(32));
  EXPECT_NE(Type::getInt(32), Type::getInt(16));
  EXPECT_EQ(Type::getVector(Type::getInt(8), 4),
            Type::getVector(Type::getInt(8), 4));
  EXPECT_NE(Type::getVector(Type::getInt(8), 4),
            Type::getArray(Type::getInt(8), 4));
  EXPECT_EQ(Type::getStruct({Type::getInt(32), Type::getPtr()}),
            Type::getStruct({Type::getInt(32), Type::getPtr()}));
}

TEST(Types, WidthsAndSizes) {
  EXPECT_EQ(Type::getInt(13)->bitWidth(), 13u);
  EXPECT_EQ(Type::getInt(13)->storeSize(), 2u);
  EXPECT_EQ(Type::getFloat()->bitWidth(), 32u);
  EXPECT_EQ(Type::getDouble()->storeSize(), 8u);
  EXPECT_EQ(Type::getPtr()->storeSize(), 8u);
  const Type *V = Type::getVector(Type::getInt(8), 4);
  EXPECT_EQ(V->bitWidth(), 32u);
  EXPECT_EQ(V->storeSize(), 4u);
  const Type *S = Type::getStruct({Type::getInt(32), Type::getInt(8)});
  EXPECT_EQ(S->bitWidth(), 40u);
  EXPECT_EQ(S->storeSize(), 5u);
  EXPECT_EQ(S->numElements(), 2u);
  EXPECT_EQ(S->elementType(1), Type::getInt(8));
}

TEST(Types, Strings) {
  EXPECT_EQ(Type::getInt(1)->str(), "i1");
  EXPECT_EQ(Type::getVector(Type::getInt(8), 4)->str(), "<4 x i8>");
  EXPECT_EQ(Type::getArray(Type::getDouble(), 2)->str(), "[2 x double]");
  EXPECT_EQ(Type::getStruct({Type::getInt(32), Type::getPtr()})->str(),
            "{i32, ptr}");
}

static const char *ExampleFn = R"(
define i32 @fn(i32 %a, i32 %b) {
entry:
  %t = add i32 %a, %a
  %c = icmp eq i32 %t, 0
  br i1 %c, label %then, label %else
then:
  %q = shl i32 %a, 2
  ret i32 %q
else:
  %r = and i32 %b, 1
  ret i32 %r
}
)";

TEST(Parser, PaperFigure1Function) {
  Diag Err;
  auto M = parseModule(ExampleFn, Err);
  ASSERT_TRUE(M) << Err.str();
  Function *F = M->functionByName("fn");
  ASSERT_TRUE(F);
  EXPECT_EQ(F->numArgs(), 2u);
  EXPECT_EQ(F->numBlocks(), 3u);
  EXPECT_EQ(F->entry()->name(), "entry");
  EXPECT_EQ(F->instructionCount(), 7u);
  EXPECT_TRUE(verifyModule(*M, Err)) << Err.str();
}

TEST(Parser, RoundTripsThroughPrinter) {
  Diag Err;
  auto M = parseModule(ExampleFn, Err);
  ASSERT_TRUE(M) << Err.str();
  std::string Printed = printModule(*M);
  auto M2 = parseModule(Printed, Err);
  ASSERT_TRUE(M2) << Err.str() << "\n" << Printed;
  EXPECT_EQ(printModule(*M2), Printed);
}

TEST(Parser, AllScalarInstructionKinds) {
  const char *Src = R"(
declare i32 @ext(i32, ptr)
define i32 @all(i32 %a, i32 noundef %b, ptr nonnull %p, float %f, double %d) {
entry:
  %s1 = sub nuw nsw i32 %a, %b
  %m = mul i32 %s1, 3
  %dv = sdiv exact i32 %m, 2
  %x1 = xor i32 %dv, -1
  %sh = lshr exact i32 %x1, 1
  %fa = fadd nnan ninf nsz float %f, 1.5
  %fn = fneg float %fa
  %fc = fcmp olt float %fn, 0.0
  %z = zext i1 %fc to i32
  %t = trunc i32 %z to i8
  %se = sext i8 %t to i64
  %bc = bitcast float %fa to i32
  %fz = freeze i32 %bc
  %c = icmp slt i32 %fz, %a
  %sel = select i1 %c, i32 %a, i32 %b
  %al = alloca i32, align 4
  store i32 %sel, ptr %al, align 4
  %g = gep inbounds ptr %al, i64 0, 4
  %ld = load i32, ptr %g, align 4
  %cl = call i32 @ext(i32 %ld, ptr %al)
  switch i32 %cl, label %done [ 1, label %one  2, label %two ]
one:
  br label %done
two:
  unreachable
done:
  %ph = phi i32 [ %cl, %entry ], [ 7, %one ]
  ret i32 %ph
}
)";
  Diag Err;
  auto M = parseModule(Src, Err);
  ASSERT_TRUE(M) << Err.str();
  EXPECT_TRUE(verifyModule(*M, Err)) << Err.str();
  // Round trip.
  auto M2 = parseModule(printModule(*M), Err);
  ASSERT_TRUE(M2) << Err.str() << printModule(*M);
  EXPECT_EQ(printModule(*M2), printModule(*M));
}

TEST(Parser, EveryOpcodeSpellingPrintsAndParsesBack) {
  // One instruction per value of each opcode and predicate enum, built
  // with its constructor, printed, and parsed back as the same value.
  const char *Head = "define void @f(i32 %a, i8 %n, float %x) {\nentry:\n";
  Diag Err;
  auto ArgM = parseModule(std::string(Head) + "  ret void\n}\n", Err);
  ASSERT_TRUE(ArgM) << Err.str();
  const Function &ArgF = *ArgM->function(0);
  Argument *A = ArgF.arg(0), *N = ArgF.arg(1), *X = ArgF.arg(2);
  const Type *I32 = A->type(), *F32 = X->type(), *I1 = Type::getBool();

  // Each instruction with the value it carries.
  std::vector<std::pair<std::unique_ptr<Instr>, unsigned>> Made;
  for (unsigned I = 0; I <= unsigned(BinOp::Op::Xor); ++I)
    Made.emplace_back(new BinOp(BinOp::Op(I), I32, "r", A, A), I);
  for (unsigned I = 0; I <= unsigned(FBinOp::Op::FRem); ++I)
    Made.emplace_back(new FBinOp(FBinOp::Op(I), F32, "r", X, X), I);
  for (unsigned I = 0; I <= unsigned(ICmp::Pred::SLE); ++I)
    Made.emplace_back(new ICmp(ICmp::Pred(I), "r", A, A, I1), I);
  for (unsigned I = 0; I <= unsigned(FCmp::Pred::UNO); ++I)
    Made.emplace_back(new FCmp(FCmp::Pred(I), "r", X, X, I1), I);
  // Each cast's operand and result type, in the order of Cast::Op: trunc,
  // zext, sext, bitcast, fptosi, fptoui, sitofp, uitofp.
  const std::pair<Argument *, const Type *> CastSig[] = {
      {A, N->type()}, {N, I32}, {N, I32}, {X, I32},
      {X, I32},       {X, I32}, {A, F32}, {A, F32}};
  static_assert(std::size(CastSig) == unsigned(Cast::Op::UIToFP) + 1);
  for (unsigned I = 0; I < std::size(CastSig); ++I)
    Made.emplace_back(
        new Cast(Cast::Op(I), CastSig[I].second, "r", CastSig[I].first), I);

  auto valueOf = [](const Instr &I) -> unsigned {
    if (auto *B = dyn_cast<BinOp>(&I))
      return unsigned(B->getOp());
    if (auto *B = dyn_cast<FBinOp>(&I))
      return unsigned(B->getOp());
    if (auto *C = dyn_cast<ICmp>(&I))
      return unsigned(C->pred());
    if (auto *C = dyn_cast<FCmp>(&I))
      return unsigned(C->pred());
    return unsigned(cast<Cast>(&I)->getOp());
  };
  for (const auto &[I, Value] : Made) {
    std::string Line = printInstr(*I);
    SCOPED_TRACE(Line);
    auto M = parseModule(std::string(Head) + "  " + Line + "\n  ret void\n}\n",
                         Err);
    ASSERT_TRUE(M) << Err.str();
    const Instr &Parsed = *M->function(0)->block(0)->instr(0);
    EXPECT_EQ(Parsed.kind(), I->kind());
    EXPECT_EQ(valueOf(Parsed), Value);
    EXPECT_EQ(printInstr(Parsed), Line);
  }
}

TEST(Parser, VectorAndAggregateInstructions) {
  const char *Src = R"(
define <4 x i8> @vec(<4 x i8> %v, {i32, i8} %s) {
entry:
  %e = extractelement <4 x i8> %v, i32 1
  %i = insertelement <4 x i8> %v, i8 %e, i32 0
  %sh = shufflevector <4 x i8> %v, <4 x i8> %i, <4 x i32> <i32 3, i32 2, i32 undef, i32 2>
  %x = extractvalue {i32, i8} %s, 0
  %t = trunc i32 %x to i8
  %s2 = insertvalue {i32, i8} %s, i8 %t, 1
  %f = extractvalue {i32, i8} %s2, 1
  %i2 = insertelement <4 x i8> %sh, i8 %f, i32 2
  %a = add <4 x i8> %i2, <i8 1, i8 2, i8 undef, i8 poison>
  ret <4 x i8> %a
}
)";
  Diag Err;
  auto M = parseModule(Src, Err);
  ASSERT_TRUE(M) << Err.str();
  EXPECT_TRUE(verifyModule(*M, Err)) << Err.str();
  auto M2 = parseModule(printModule(*M), Err);
  ASSERT_TRUE(M2) << Err.str() << printModule(*M);
  EXPECT_EQ(printModule(*M2), printModule(*M));
}

TEST(Parser, UndefPoisonNullConstants) {
  const char *Src = R"(
define i32 @c(ptr %p) {
entry:
  %a = add i32 undef, poison
  %c = icmp eq ptr %p, null
  %s = select i1 %c, i32 %a, i32 -7
  ret i32 %s
}
)";
  Diag Err;
  auto M = parseModule(Src, Err);
  ASSERT_TRUE(M) << Err.str();
  Function *F = M->functionByName("c");
  const Instr *Add = F->entry()->instr(0);
  EXPECT_EQ(Add->op(0)->kind(), ValueKind::Undef);
  EXPECT_EQ(Add->op(1)->kind(), ValueKind::Poison);
  const Instr *Sel = F->entry()->instr(2);
  const auto *CI = dyn_cast<ConstInt>(Sel->op(2));
  ASSERT_TRUE(CI);
  EXPECT_EQ(CI->value().toSignedString(), "-7");
}

TEST(Parser, ForwardReferencesAcrossBlocks) {
  // %x is defined in a later-printed block that dominates the use.
  const char *Src = R"(
define i32 @fwd(i1 %c) {
entry:
  br label %a
b:
  %r = add i32 %x, 1
  ret i32 %r
a:
  %x = add i32 1, 2
  br label %b
}
)";
  Diag Err;
  auto M = parseModule(Src, Err);
  ASSERT_TRUE(M) << Err.str();
  EXPECT_TRUE(verifyModule(*M, Err)) << Err.str();
}

TEST(Parser, Globals) {
  const char *Src = R"(
@buf = global [16 x i8]
@tbl = constant [4 x i32]

define i8 @g(i64 %i) {
entry:
  %p = gep inbounds ptr @buf, i64 %i
  %v = load i8, ptr %p
  ret i8 %v
}
)";
  Diag Err;
  auto M = parseModule(Src, Err);
  ASSERT_TRUE(M) << Err.str();
  ASSERT_EQ(M->numGlobals(), 2u);
  EXPECT_FALSE(M->global(0)->isConstant());
  EXPECT_TRUE(M->global(1)->isConstant());
  EXPECT_EQ(M->global(0)->sizeBytes(), 16u);
}

TEST(Parser, Errors) {
  Diag Err;
  EXPECT_FALSE(parseModule("define i32 @f( {", Err));
  EXPECT_FALSE(parseModule("define i99 @f() { entry: ret i99 0 }", Err));
  EXPECT_FALSE(
      parseModule("define i32 @f() {\nentry:\n  ret i32 %nope\n}", Err));
  EXPECT_FALSE(parseModule(
      "define i32 @f() {\nentry:\n  br label %missing\n}", Err));
  EXPECT_FALSE(parseModule(
      "define i32 @f() {\nentry:\n  %x = frobnicate i32 1, 2\n  ret i32 %x\n}",
      Err));
  EXPECT_FALSE(Err.empty());
}

TEST(Verifier, RejectsIllFormedFunctions) {
  Diag Err;
  // Missing terminator.
  {
    Module M;
    Function *F = M.addFunction("f", Type::getInt(32));
    F->addBlock("entry");
    EXPECT_FALSE(verifyFunction(*F, Err));
  }
  // Use does not dominate: %y uses %x defined in a sibling branch.
  {
    auto M = parseModule(R"(
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  %x = add i32 1, 2
  br label %join
b:
  %y = add i32 %x, 1
  br label %join
join:
  %p = phi i32 [ %x, %a ], [ %y, %b ]
  ret i32 %p
}
)",
                         Err);
    ASSERT_TRUE(M) << Err.str();
    EXPECT_FALSE(verifyModule(*M, Err));
  }
  // Phi missing a predecessor entry.
  {
    auto M = parseModule(R"(
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %join
a:
  br label %join
join:
  %p = phi i32 [ 1, %a ]
  ret i32 %p
}
)",
                         Err);
    ASSERT_TRUE(M) << Err.str();
    EXPECT_FALSE(verifyModule(*M, Err));
  }
}

TEST(Function, CloneIsDeepAndEquivalent) {
  Diag Err;
  auto M = parseModule(ExampleFn, Err);
  ASSERT_TRUE(M) << Err.str();
  Function *F = M->functionByName("fn");
  auto FC = F->clone();
  EXPECT_EQ(printFunction(*FC), printFunction(*F));
  EXPECT_TRUE(verifyFunction(*FC, Err)) << Err.str();
  // Mutating the clone leaves the original untouched. Like a pass, rewire
  // %t's uses (%c) before erasing it.
  opt::replaceAllUses(*FC, FC->block(0)->instr(0), FC->arg(0));
  FC->block(0)->erase(0);
  EXPECT_NE(printFunction(*FC), printFunction(*F));
  EXPECT_EQ(F->instructionCount(), 7u);
}

TEST(ConstFP, EncodingRoundTrip) {
  const Type *F32 = Type::getFloat();
  BitVec Bits = ConstFP::encode(F32, 1.5);
  ConstFP C(F32, Bits);
  EXPECT_EQ(C.toDouble(), 1.5);
  const Type *F64 = Type::getDouble();
  ConstFP D(F64, ConstFP::encode(F64, -0.0));
  EXPECT_EQ(D.bits().low64(), 0x8000000000000000ull);
}

} // namespace
