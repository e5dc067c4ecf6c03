//===- ir/Parser.cpp - Textual IR parser -------------------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "ir/Lexer.h"
#include "support/Profile.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace alive;
using namespace alive::ir;

namespace {

/// The value of enum \p E, searched from its first value to \p Last, that
/// \p Name spells as \p Text: the printer's spelling is the one the parser
/// accepts.
template <typename E>
std::optional<E> bySpelling(const std::string &Text, const char *(*Name)(E),
                            E Last) {
  for (unsigned I = 0; I <= unsigned(Last); ++I)
    if (Text == Name(E(I)))
      return E(I);
  return std::nullopt;
}

/// Parser state for one module. Implements recursive descent with one-token
/// lookahead; errors unwind via the Failed flag (no exceptions).
class ParserImpl {
public:
  ParserImpl(const std::string &Text, Diag &Err) : Lex(Text), Err(Err) {}

  std::unique_ptr<Module> run();

private:
  Lexer Lex;
  Diag &Err;
  bool Failed = false;
  std::unique_ptr<Module> M;
  Function *F = nullptr;
  BasicBlock *CurBB = nullptr;

  // Per-function state.
  std::unordered_map<std::string, Value *> Values; // %name -> def
  std::unordered_map<std::string, std::unique_ptr<Argument>> Placeholders;
  std::unordered_map<std::string, BasicBlock *> BlocksByName;
  std::unordered_set<std::string> DefinedLabels;

  void error(const Token &T, const std::string &Msg) {
    if (!Failed)
      Err = Diag(T.Line, T.Col, Msg);
    Failed = true;
  }
  void errorHere(const std::string &Msg) { error(Lex.peek(), Msg); }

  bool expectPunct(char C) {
    if (Lex.peek().isPunct(C)) {
      Lex.next();
      return true;
    }
    errorHere(std::string("expected '") + C + "'");
    return false;
  }
  bool expectWord(const char *W) {
    if (Lex.peek().isWord(W)) {
      Lex.next();
      return true;
    }
    errorHere(std::string("expected '") + W + "'");
    return false;
  }
  bool consumeWord(const char *W) {
    if (Lex.peek().isWord(W)) {
      Lex.next();
      return true;
    }
    return false;
  }
  bool consumePunct(char C) {
    if (Lex.peek().isPunct(C)) {
      Lex.next();
      return true;
    }
    return false;
  }

  const Type *parseType();
  const Type *parseTypeImpl();
  bool parseUInt(uint64_t &Out);
  Value *parseOperand(const Type *Ty);
  Value *lookupOrPlaceholder(const std::string &Name, const Type *Ty);
  BasicBlock *blockRef(const std::string &Name);

  void parseGlobal();
  void parseDeclare();
  void parseDefine();
  void parseBlockBody();
  /// \returns the new instruction, or null. After an error it may return
  /// one built before the error; the caller frees it.
  Instr *parseInstruction(std::string ResultName);
  BinOp::Flags parseIntFlags(BinOp::Op O);
  FBinOp::FastMathFlags parseFMF();
  unsigned parseOptionalAlign(unsigned Default);
  void finishFunction();

  /// Recursion guard for nested vector/array/struct types; fuzzed inputs
  /// with tens of thousands of '[2 x' prefixes must produce a diagnostic,
  /// not a stack overflow.
  static constexpr unsigned MaxTypeDepth = 64;
  unsigned TypeDepth = 0;
};

std::unique_ptr<Module> ParserImpl::run() {
  M = std::make_unique<Module>();
  while (!Failed && !Lex.peek().is(Token::Kind::Eof)) {
    const Token &T = Lex.peek();
    if (T.is(Token::Kind::GlobalId)) {
      parseGlobal();
    } else if (T.isWord("declare")) {
      parseDeclare();
    } else if (T.isWord("define")) {
      parseDefine();
    } else {
      errorHere("expected 'define', 'declare' or a global definition");
      break;
    }
  }
  if (Failed)
    return nullptr;
  return std::move(M);
}

const Type *ParserImpl::parseType() {
  if (TypeDepth >= MaxTypeDepth) {
    errorHere("type nesting too deep");
    return nullptr;
  }
  ++TypeDepth;
  const Type *Ty = parseTypeImpl();
  --TypeDepth;
  return Ty;
}

const Type *ParserImpl::parseTypeImpl() {
  const Token T = Lex.next();
  if (T.is(Token::Kind::Word)) {
    if (T.Text == "void")
      return Type::getVoid();
    if (T.Text == "float")
      return Type::getFloat();
    if (T.Text == "double")
      return Type::getDouble();
    if (T.Text == "ptr")
      return Type::getPtr();
    if (T.Text.size() > 1 && T.Text[0] == 'i') {
      errno = 0;
      char *End = nullptr;
      unsigned long Bits = std::strtoul(T.Text.c_str() + 1, &End, 10);
      if (errno == 0 && End && !*End && Bits >= 1 && Bits <= 64)
        return Type::getInt((unsigned)Bits);
      error(T, "unsupported integer width '" + T.Text + "'");
      return nullptr;
    }
    error(T, "unknown type '" + T.Text + "'");
    return nullptr;
  }
  if (T.isPunct('<') || T.isPunct('[')) {
    bool IsVector = T.isPunct('<');
    uint64_t Count;
    if (!parseUInt(Count))
      return nullptr;
    if (!expectWord("x"))
      return nullptr;
    const Type *Elem = parseType();
    if (!Elem)
      return nullptr;
    if (!expectPunct(IsVector ? '>' : ']'))
      return nullptr;
    if (Count == 0 || Count > 1024) {
      error(T, "unsupported element count");
      return nullptr;
    }
    return IsVector ? Type::getVector(Elem, (unsigned)Count)
                    : Type::getArray(Elem, (unsigned)Count);
  }
  if (T.isPunct('{')) {
    std::vector<const Type *> Fields;
    while (true) {
      const Type *FT = parseType();
      if (!FT)
        return nullptr;
      Fields.push_back(FT);
      if (consumePunct('}'))
        break;
      if (!expectPunct(','))
        return nullptr;
    }
    return Type::getStruct(std::move(Fields));
  }
  error(T, "expected a type");
  return nullptr;
}

bool ParserImpl::parseUInt(uint64_t &Out) {
  const Token T = Lex.next();
  if (!T.is(Token::Kind::Number)) {
    error(T, "expected an integer");
    return false;
  }
  errno = 0;
  char *End = nullptr;
  Out = std::strtoull(T.Text.c_str(), &End, 0);
  if (errno == ERANGE || !End || *End || T.Text[0] == '-') {
    error(T, "bad integer literal '" + T.Text + "'");
    return false;
  }
  return true;
}

Value *ParserImpl::lookupOrPlaceholder(const std::string &Name,
                                       const Type *Ty) {
  auto It = Values.find(Name);
  if (It != Values.end())
    return It->second;
  auto PIt = Placeholders.find(Name);
  if (PIt != Placeholders.end())
    return PIt->second.get();
  auto Placeholder = std::make_unique<Argument>(Ty, Name);
  Value *Raw = Placeholder.get();
  Placeholders.emplace(Name, std::move(Placeholder));
  return Raw;
}

Value *ParserImpl::parseOperand(const Type *Ty) {
  const Token T = Lex.next();
  if (T.is(Token::Kind::LocalId))
    return lookupOrPlaceholder(T.Text, Ty);
  if (T.is(Token::Kind::GlobalId)) {
    if (GlobalVar *G = M->globalByName(T.Text))
      return G;
    error(T, "unknown global '@" + T.Text + "'");
    return nullptr;
  }
  if (T.is(Token::Kind::Word)) {
    if (T.Text == "undef")
      return F->getUndef(Ty);
    if (T.Text == "poison")
      return F->getPoison(Ty);
    if (T.Text == "null") {
      if (!Ty->isPtr()) {
        error(T, "'null' needs pointer type");
        return nullptr;
      }
      return F->getNull();
    }
    if (T.Text == "true" || T.Text == "false") {
      if (!Ty->isInt() || Ty->intWidth() != 1) {
        error(T, "boolean literal needs type i1");
        return nullptr;
      }
      return F->getConstInt(Ty, T.Text == "true" ? 1 : 0);
    }
    if (T.Text == "zeroinitializer") {
      if (Ty->isInt())
        return F->getConstInt(Ty, 0);
      if (Ty->isFP())
        return F->getConstFP(Ty, BitVec(Ty->bitWidth(), 0));
      if (Ty->isPtr())
        return F->getNull();
      std::vector<Value *> Elems;
      for (unsigned I = 0; I < Ty->numElements(); ++I) {
        const Type *ET = Ty->elementType(I);
        if (ET->isInt())
          Elems.push_back(F->getConstInt(ET, 0));
        else if (ET->isFP())
          Elems.push_back(F->getConstFP(ET, BitVec(ET->bitWidth(), 0)));
        else if (ET->isPtr())
          Elems.push_back(F->getNull());
        else {
          error(T, "zeroinitializer of nested aggregate unsupported");
          return nullptr;
        }
      }
      return F->getConstAggregate(Ty, std::move(Elems));
    }
    error(T, "unexpected token '" + T.Text + "' in operand");
    return nullptr;
  }
  if (T.is(Token::Kind::Number)) {
    if (Ty->isInt()) {
      BitVec V;
      if (!BitVec::fromString(Ty->intWidth(), T.Text, V)) {
        error(T, "bad integer literal '" + T.Text + "'");
        return nullptr;
      }
      return F->getConstInt(Ty, V);
    }
    if (Ty->isFP()) {
      // Accept the raw-bit form 0xfpHHHH... and plain decimal floats.
      if (T.Text.size() > 4 && T.Text.compare(0, 4, "0xfp") == 0) {
        BitVec Bits;
        if (!BitVec::fromString(Ty->bitWidth(), "0x" + T.Text.substr(4),
                                Bits)) {
          error(T, "bad float bit pattern");
          return nullptr;
        }
        return F->getConstFP(Ty, Bits);
      }
      double D = std::strtod(T.Text.c_str(), nullptr);
      return F->getConstFP(Ty, ConstFP::encode(Ty, D));
    }
    error(T, "numeric literal for non-numeric type " + Ty->str());
    return nullptr;
  }
  // Aggregate literal: '<' ty val, ... '>' | '[' ... ']' | '{' ... '}'
  if (T.isPunct('<') || T.isPunct('[') || T.isPunct('{')) {
    char Close = T.isPunct('<') ? '>' : T.isPunct('[') ? ']' : '}';
    if (!Ty->isAggregate()) {
      error(T, "aggregate literal for non-aggregate type " + Ty->str());
      return nullptr;
    }
    std::vector<Value *> Elems;
    for (unsigned I = 0; I < Ty->numElements(); ++I) {
      if (I && !expectPunct(','))
        return nullptr;
      const Type *ET = parseType();
      if (!ET)
        return nullptr;
      if (ET != Ty->elementType(I)) {
        errorHere("element type mismatch in aggregate literal");
        return nullptr;
      }
      Value *E = parseOperand(ET);
      if (!E)
        return nullptr;
      Elems.push_back(E);
    }
    if (!expectPunct(Close))
      return nullptr;
    return F->getConstAggregate(Ty, std::move(Elems));
  }
  error(T, "expected an operand");
  return nullptr;
}

BasicBlock *ParserImpl::blockRef(const std::string &Name) {
  auto It = BlocksByName.find(Name);
  if (It != BlocksByName.end())
    return It->second;
  BasicBlock *BB = F->addBlock(Name);
  BlocksByName[Name] = BB;
  return BB;
}

void ParserImpl::parseGlobal() {
  Token NameTok = Lex.next(); // @name
  if (!expectPunct('='))
    return;
  bool Constant = false;
  if (consumeWord("constant"))
    Constant = true;
  else if (!expectWord("global"))
    return;
  const Type *Ty = parseType();
  if (!Ty)
    return;
  // Optional initializer is currently parsed and discarded unless it is
  // zeroinitializer or a scalar literal; the encoder treats non-constant
  // global contents as unconstrained anyway (inputs to the function).
  GlobalVar *G = M->addGlobal(NameTok.Text, Ty, Constant);
  (void)G;
  const Token &Next = Lex.peek();
  if (Next.is(Token::Kind::Number) || Next.isWord("zeroinitializer") ||
      Next.isWord("undef")) {
    Lex.next();
  }
}

void ParserImpl::parseDeclare() {
  Lex.next(); // declare
  const Type *RetTy = parseType();
  if (!RetTy)
    return;
  Token NameTok = Lex.next();
  if (!NameTok.is(Token::Kind::GlobalId)) {
    error(NameTok, "expected function name");
    return;
  }
  Function *Decl = M->addFunction(NameTok.Text, RetTy);
  if (!expectPunct('('))
    return;
  if (!consumePunct(')')) {
    unsigned Idx = 0;
    while (true) {
      const Type *ArgTy = parseType();
      if (!ArgTy)
        return;
      Decl->addArg(ArgTy, "arg" + std::to_string(Idx++));
      if (consumePunct(')'))
        break;
      if (!expectPunct(','))
        return;
    }
  }
}

void ParserImpl::parseDefine() {
  Lex.next(); // define
  const Type *RetTy = parseType();
  if (!RetTy)
    return;
  Token NameTok = Lex.next();
  if (!NameTok.is(Token::Kind::GlobalId)) {
    error(NameTok, "expected function name");
    return;
  }
  F = M->addFunction(NameTok.Text, RetTy);
  Values.clear();
  Placeholders.clear();
  BlocksByName.clear();
  DefinedLabels.clear();

  if (!expectPunct('('))
    return;
  if (!consumePunct(')')) {
    while (true) {
      const Type *ArgTy = parseType();
      if (!ArgTy)
        return;
      bool NonNull = false, NoUndef = false;
      while (true) {
        if (consumeWord("nonnull"))
          NonNull = true;
        else if (consumeWord("noundef"))
          NoUndef = true;
        else
          break;
      }
      Token ArgName = Lex.next();
      if (!ArgName.is(Token::Kind::LocalId)) {
        error(ArgName, "expected argument name");
        return;
      }
      Argument *A = F->addArg(ArgTy, ArgName.Text);
      A->setNonNull(NonNull);
      A->setNoUndef(NoUndef);
      Values[ArgName.Text] = A;
      if (consumePunct(')'))
        break;
      if (!expectPunct(','))
        return;
    }
  }
  if (!expectPunct('{'))
    return;
  parseBlockBody();
  if (Failed)
    return;
  finishFunction();
}

void ParserImpl::parseBlockBody() {
  CurBB = nullptr;
  while (!Failed) {
    if (consumePunct('}'))
      return;
    const Token &T = Lex.peek();
    if (T.is(Token::Kind::Eof)) {
      errorHere("unexpected end of input inside function body");
      return;
    }
    // Label?  word ':'
    if (T.is(Token::Kind::Word)) {
      // Peek requires checking the next char; labels are 'name:'.
      // Instruction keywords are never followed by ':', so try label first
      // by looking at known instruction starters.
      static const char *Starters[] = {
          "ret",   "br",    "switch", "unreachable", "store", "call",
          "fence", // reserved
      };
      bool IsStarter = false;
      for (const char *S : Starters)
        IsStarter |= T.Text == S;
      if (!IsStarter) {
        Token LabelTok = Lex.next();
        if (!expectPunct(':'))
          return;
        if (!DefinedLabels.insert(LabelTok.Text).second) {
          error(LabelTok, "duplicate label '" + LabelTok.Text + "'");
          return;
        }
        CurBB = blockRef(LabelTok.Text);
        continue;
      }
    }
    if (!CurBB) {
      // Implicit entry label.
      DefinedLabels.insert("entry");
      CurBB = blockRef("entry");
    }
    std::string ResultName;
    if (T.is(Token::Kind::LocalId)) {
      ResultName = Lex.next().Text;
      if (!expectPunct('='))
        return;
    }
    // Owned until appended, so one built before an error is freed.
    std::unique_ptr<Instr> Owned(parseInstruction(std::move(ResultName)));
    if (Failed)
      return;
    Instr *I = CurBB->append(Owned.release());
    if (!I->name().empty()) {
      if (Values.count(I->name())) {
        errorHere("duplicate definition of %" + I->name());
        return;
      }
      Values[I->name()] = I;
    }
  }
}

BinOp::Flags ParserImpl::parseIntFlags(BinOp::Op O) {
  BinOp::Flags Fl;
  while (true) {
    if (consumeWord("nsw"))
      Fl.NSW = true;
    else if (consumeWord("nuw"))
      Fl.NUW = true;
    else if (consumeWord("exact"))
      Fl.Exact = true;
    else
      break;
  }
  return Fl;
}

FBinOp::FastMathFlags ParserImpl::parseFMF() {
  FBinOp::FastMathFlags Fl;
  while (true) {
    if (consumeWord("nnan"))
      Fl.NNan = true;
    else if (consumeWord("ninf"))
      Fl.NInf = true;
    else if (consumeWord("nsz"))
      Fl.NSZ = true;
    else if (consumeWord("fast"))
      Fl.NNan = Fl.NInf = Fl.NSZ = true;
    else
      break;
  }
  return Fl;
}

unsigned ParserImpl::parseOptionalAlign(unsigned Default) {
  if (consumePunct(',')) {
    if (!expectWord("align"))
      return Default;
    const Token ATok = Lex.peek();
    uint64_t A;
    if (!parseUInt(A))
      return Default;
    // LLVM's contract: a power of two, bounded well below 2^32. Anything
    // else (including overflowed literals) is a diagnostic, not a silent
    // truncation to unsigned.
    if (A == 0 || A > (1u << 29) || (A & (A - 1))) {
      error(ATok, "unsupported alignment");
      return Default;
    }
    return (unsigned)A;
  }
  return Default;
}

Instr *ParserImpl::parseInstruction(std::string ResultName) {
  Token OpTok = Lex.next();
  if (!OpTok.is(Token::Kind::Word)) {
    error(OpTok, "expected an instruction");
    return nullptr;
  }
  const std::string &Op = OpTok.Text;

  auto intBinOp = [&](BinOp::Op O) -> Instr * {
    BinOp::Flags Fl = parseIntFlags(O);
    const Type *Ty = parseType();
    if (!Ty)
      return nullptr;
    Value *A = parseOperand(Ty);
    if (!A || !expectPunct(','))
      return nullptr;
    Value *B = parseOperand(Ty);
    if (!B)
      return nullptr;
    return new BinOp(O, Ty, std::move(ResultName), A, B, Fl);
  };
  auto fpBinOp = [&](FBinOp::Op O) -> Instr * {
    FBinOp::FastMathFlags Fl = parseFMF();
    const Type *Ty = parseType();
    if (!Ty)
      return nullptr;
    Value *A = parseOperand(Ty);
    if (!A || !expectPunct(','))
      return nullptr;
    Value *B = parseOperand(Ty);
    if (!B)
      return nullptr;
    return new FBinOp(O, Ty, std::move(ResultName), A, B, Fl);
  };

  if (auto O = bySpelling(Op, BinOp::opName, BinOp::Op::Xor))
    return intBinOp(*O);
  if (auto O = bySpelling(Op, FBinOp::opName, FBinOp::Op::FRem))
    return fpBinOp(*O);

  if (Op == "fneg") {
    const Type *Ty = parseType();
    if (!Ty)
      return nullptr;
    Value *A = parseOperand(Ty);
    if (!A)
      return nullptr;
    return new FNeg(Ty, std::move(ResultName), A);
  }

  if (Op == "icmp" || Op == "fcmp") {
    Token PredTok = Lex.next();
    if (!PredTok.is(Token::Kind::Word)) {
      error(PredTok, "expected comparison predicate");
      return nullptr;
    }
    const Type *Ty = parseType();
    if (!Ty)
      return nullptr;
    Value *A = parseOperand(Ty);
    if (!A || !expectPunct(','))
      return nullptr;
    Value *B = parseOperand(Ty);
    if (!B)
      return nullptr;
    const Type *ResTy = Ty->isVector()
                            ? Type::getVector(Type::getBool(),
                                              Ty->numElements())
                            : Type::getBool();
    if (Op == "icmp") {
      if (auto P = bySpelling(PredTok.Text, ICmp::predName, ICmp::Pred::SLE))
        return new ICmp(*P, std::move(ResultName), A, B, ResTy);
      error(PredTok, "unknown icmp predicate");
      return nullptr;
    }
    if (auto P = bySpelling(PredTok.Text, FCmp::predName, FCmp::Pred::UNO))
      return new FCmp(*P, std::move(ResultName), A, B, ResTy);
    error(PredTok, "unknown fcmp predicate");
    return nullptr;
  }

  if (Op == "select") {
    const Type *CondTy = parseType();
    if (!CondTy)
      return nullptr;
    Value *C = parseOperand(CondTy);
    if (!C || !expectPunct(','))
      return nullptr;
    const Type *Ty = parseType();
    if (!Ty)
      return nullptr;
    Value *A = parseOperand(Ty);
    if (!A || !expectPunct(','))
      return nullptr;
    const Type *Ty2 = parseType();
    if (Ty2 != Ty) {
      errorHere("select arm types differ");
      return nullptr;
    }
    Value *B = parseOperand(Ty);
    if (!B)
      return nullptr;
    return new Select(Ty, std::move(ResultName), C, A, B);
  }

  if (Op == "freeze") {
    const Type *Ty = parseType();
    if (!Ty)
      return nullptr;
    Value *A = parseOperand(Ty);
    if (!A)
      return nullptr;
    return new Freeze(Ty, std::move(ResultName), A);
  }

  if (auto CO = bySpelling(Op, Cast::opName, Cast::Op::UIToFP)) {
    const Type *SrcTy = parseType();
    if (!SrcTy)
      return nullptr;
    Value *A = parseOperand(SrcTy);
    if (!A || !expectWord("to"))
      return nullptr;
    const Type *DstTy = parseType();
    if (!DstTy)
      return nullptr;
    return new Cast(*CO, DstTy, std::move(ResultName), A);
  }

  if (Op == "phi") {
    const Type *Ty = parseType();
    if (!Ty)
      return nullptr;
    auto *P = new Phi(Ty, std::move(ResultName));
    while (true) {
      if (!expectPunct('['))
        break;
      Value *V = parseOperand(Ty);
      if (!V || !expectPunct(','))
        break;
      Token BBTok = Lex.next();
      if (!BBTok.is(Token::Kind::LocalId)) {
        error(BBTok, "expected predecessor label");
        break;
      }
      P->addIncoming(V, blockRef(BBTok.Text));
      if (!expectPunct(']'))
        break;
      if (!consumePunct(','))
        break;
    }
    return P;
  }

  if (Op == "br") {
    if (consumeWord("label")) {
      Token BBTok = Lex.next();
      if (!BBTok.is(Token::Kind::LocalId)) {
        error(BBTok, "expected label");
        return nullptr;
      }
      return new Br(blockRef(BBTok.Text));
    }
    const Type *Ty = parseType();
    if (!Ty)
      return nullptr;
    Value *C = parseOperand(Ty);
    if (!C || !expectPunct(',') || !expectWord("label"))
      return nullptr;
    Token T1 = Lex.next();
    if (!T1.is(Token::Kind::LocalId) || !expectPunct(',') ||
        !expectWord("label")) {
      error(T1, "expected 'label %bb, label %bb'");
      return nullptr;
    }
    Token T2 = Lex.next();
    if (!T2.is(Token::Kind::LocalId)) {
      error(T2, "expected label");
      return nullptr;
    }
    return new Br(C, blockRef(T1.Text), blockRef(T2.Text));
  }

  if (Op == "switch") {
    const Type *Ty = parseType();
    if (!Ty)
      return nullptr;
    if (!Ty->isInt()) {
      error(OpTok, "switch condition must have integer type");
      return nullptr;
    }
    Value *C = parseOperand(Ty);
    if (!C || !expectPunct(',') || !expectWord("label"))
      return nullptr;
    Token DefTok = Lex.next();
    if (!DefTok.is(Token::Kind::LocalId)) {
      error(DefTok, "expected default label");
      return nullptr;
    }
    auto *S = new Switch(C, blockRef(DefTok.Text));
    if (!expectPunct('['))
      return S;
    while (!consumePunct(']')) {
      Token NumTok = Lex.next();
      BitVec CaseV;
      if (!NumTok.is(Token::Kind::Number) ||
          !BitVec::fromString(Ty->intWidth(), NumTok.Text, CaseV)) {
        error(NumTok, "expected case value");
        return S;
      }
      if (!expectPunct(',') || !expectWord("label"))
        return S;
      Token BBTok = Lex.next();
      if (!BBTok.is(Token::Kind::LocalId)) {
        error(BBTok, "expected case label");
        return S;
      }
      S->addCase(std::move(CaseV), blockRef(BBTok.Text));
    }
    return S;
  }

  if (Op == "ret") {
    if (consumeWord("void"))
      return new Ret(nullptr);
    const Type *Ty = parseType();
    if (!Ty)
      return nullptr;
    Value *V = parseOperand(Ty);
    if (!V)
      return nullptr;
    return new Ret(V);
  }

  if (Op == "unreachable")
    return new Unreachable();

  if (Op == "alloca") {
    const Type *Ty = parseType();
    if (!Ty)
      return nullptr;
    unsigned Align = parseOptionalAlign(1);
    return new Alloca(std::move(ResultName), Ty, Align);
  }

  if (Op == "load") {
    const Type *Ty = parseType();
    if (!Ty || !expectPunct(','))
      return nullptr;
    const Type *PtrTy = parseType();
    if (!PtrTy || !PtrTy->isPtr()) {
      errorHere("load needs a pointer operand");
      return nullptr;
    }
    Value *P = parseOperand(PtrTy);
    if (!P)
      return nullptr;
    unsigned Align = parseOptionalAlign(1);
    return new Load(Ty, std::move(ResultName), P, Align);
  }

  if (Op == "store") {
    const Type *Ty = parseType();
    if (!Ty)
      return nullptr;
    Value *V = parseOperand(Ty);
    if (!V || !expectPunct(','))
      return nullptr;
    const Type *PtrTy = parseType();
    if (!PtrTy || !PtrTy->isPtr()) {
      errorHere("store needs a pointer operand");
      return nullptr;
    }
    Value *P = parseOperand(PtrTy);
    if (!P)
      return nullptr;
    unsigned Align = parseOptionalAlign(1);
    return new Store(V, P, Align);
  }

  if (Op == "gep") {
    bool InBounds = consumeWord("inbounds");
    const Type *PtrTy = parseType();
    if (!PtrTy || !PtrTy->isPtr()) {
      errorHere("gep base must be a pointer");
      return nullptr;
    }
    Value *Base = parseOperand(PtrTy);
    if (!Base || !expectPunct(','))
      return nullptr;
    const Type *IdxTy = parseType();
    if (!IdxTy || !IdxTy->isInt()) {
      errorHere("gep index must be an integer");
      return nullptr;
    }
    Value *Idx = parseOperand(IdxTy);
    if (!Idx)
      return nullptr;
    uint64_t Scale = 1;
    if (consumePunct(',')) {
      if (!parseUInt(Scale))
        return nullptr;
    }
    return new Gep(std::move(ResultName), Base, Idx, Scale, InBounds);
  }

  if (Op == "call") {
    const Type *RetTy = parseType();
    if (!RetTy)
      return nullptr;
    Token FnTok = Lex.next();
    if (!FnTok.is(Token::Kind::GlobalId)) {
      error(FnTok, "expected callee name");
      return nullptr;
    }
    if (!expectPunct('('))
      return nullptr;
    std::vector<Value *> Args;
    if (!consumePunct(')')) {
      while (true) {
        const Type *ArgTy = parseType();
        if (!ArgTy)
          return nullptr;
        Value *A = parseOperand(ArgTy);
        if (!A)
          return nullptr;
        Args.push_back(A);
        if (consumePunct(')'))
          break;
        if (!expectPunct(','))
          return nullptr;
      }
    }
    return new Call(RetTy, std::move(ResultName), FnTok.Text,
                    std::move(Args));
  }

  if (Op == "extractelement") {
    const Type *VecTy = parseType();
    if (!VecTy || !VecTy->isVector()) {
      errorHere("extractelement needs a vector");
      return nullptr;
    }
    Value *V = parseOperand(VecTy);
    if (!V || !expectPunct(','))
      return nullptr;
    const Type *IdxTy = parseType();
    Value *I = IdxTy ? parseOperand(IdxTy) : nullptr;
    if (!I)
      return nullptr;
    return new ExtractElement(VecTy->elementType(), std::move(ResultName), V,
                              I);
  }

  if (Op == "insertelement") {
    const Type *VecTy = parseType();
    if (!VecTy || !VecTy->isVector()) {
      errorHere("insertelement needs a vector");
      return nullptr;
    }
    Value *V = parseOperand(VecTy);
    if (!V || !expectPunct(','))
      return nullptr;
    const Type *ElemTy = parseType();
    Value *E = ElemTy ? parseOperand(ElemTy) : nullptr;
    if (!E || !expectPunct(','))
      return nullptr;
    const Type *IdxTy = parseType();
    Value *I = IdxTy ? parseOperand(IdxTy) : nullptr;
    if (!I)
      return nullptr;
    return new InsertElement(VecTy, std::move(ResultName), V, E, I);
  }

  if (Op == "shufflevector") {
    const Type *VecTy = parseType();
    if (!VecTy || !VecTy->isVector()) {
      errorHere("shufflevector needs vectors");
      return nullptr;
    }
    Value *V1 = parseOperand(VecTy);
    if (!V1 || !expectPunct(','))
      return nullptr;
    const Type *VecTy2 = parseType();
    if (VecTy2 && VecTy2 != VecTy) {
      errorHere("shufflevector operands must have the same type");
      return nullptr;
    }
    Value *V2 = VecTy2 ? parseOperand(VecTy2) : nullptr;
    if (!V2 || !expectPunct(','))
      return nullptr;
    // Mask: <N x i32> <i32 k, i32 undef, ...>
    const Type *MaskTy = parseType();
    if (!MaskTy || !MaskTy->isVector()) {
      errorHere("shufflevector mask must be a vector");
      return nullptr;
    }
    if (!expectPunct('<'))
      return nullptr;
    std::vector<int> Mask;
    for (unsigned I = 0; I < MaskTy->numElements(); ++I) {
      if (I && !expectPunct(','))
        return nullptr;
      const Type *ET = parseType();
      if (!ET)
        return nullptr;
      if (consumeWord("undef")) {
        Mask.push_back(-1);
      } else {
        const Token KTok = Lex.peek();
        uint64_t K;
        if (!parseUInt(K))
          return nullptr;
        // A mask lane selects from the 2N concatenated input lanes; a
        // larger index would flow a garbage (int) cast into the encoder.
        if (K >= 2ULL * VecTy->numElements()) {
          error(KTok, "shufflevector mask index out of range");
          return nullptr;
        }
        Mask.push_back((int)K);
      }
    }
    if (!expectPunct('>'))
      return nullptr;
    const Type *ResTy =
        Type::getVector(VecTy->elementType(), (unsigned)Mask.size());
    return new ShuffleVector(ResTy, std::move(ResultName), V1, V2,
                             std::move(Mask));
  }

  if (Op == "extractvalue") {
    const Type *AggTy = parseType();
    if (!AggTy || !AggTy->isAggregate()) {
      errorHere("extractvalue needs an aggregate");
      return nullptr;
    }
    Value *V = parseOperand(AggTy);
    if (!V || !expectPunct(','))
      return nullptr;
    uint64_t Idx;
    if (!parseUInt(Idx))
      return nullptr;
    if (Idx >= AggTy->numElements()) {
      errorHere("extractvalue index out of range");
      return nullptr;
    }
    return new ExtractValue(AggTy->elementType((unsigned)Idx),
                            std::move(ResultName), V, (unsigned)Idx);
  }

  if (Op == "insertvalue") {
    const Type *AggTy = parseType();
    if (!AggTy || !AggTy->isAggregate()) {
      errorHere("insertvalue needs an aggregate");
      return nullptr;
    }
    Value *V = parseOperand(AggTy);
    if (!V || !expectPunct(','))
      return nullptr;
    const Type *ElemTy = parseType();
    Value *E = ElemTy ? parseOperand(ElemTy) : nullptr;
    if (!E || !expectPunct(','))
      return nullptr;
    uint64_t Idx;
    if (!parseUInt(Idx))
      return nullptr;
    if (Idx >= AggTy->numElements()) {
      errorHere("insertvalue index out of range");
      return nullptr;
    }
    return new InsertValue(AggTy, std::move(ResultName), V, E,
                           (unsigned)Idx);
  }

  error(OpTok, "unknown instruction '" + Op + "'");
  return nullptr;
}

void ParserImpl::finishFunction() {
  // Every referenced label must have been defined.
  for (auto &[Name, BB] : BlocksByName) {
    if (!DefinedLabels.count(Name)) {
      errorHere("reference to undefined label '%" + Name + "' in @" +
                F->name());
      return;
    }
  }
  // Resolve forward value references.
  if (Placeholders.empty())
    return;
  for (unsigned BI = 0; BI < F->numBlocks(); ++BI) {
    BasicBlock *BB = F->block(BI);
    for (const auto &I : *BB) {
      for (unsigned OpIdx = 0; OpIdx < I->numOps(); ++OpIdx) {
        Value *OpV = I->op(OpIdx);
        if (OpV->kind() != ValueKind::Argument)
          continue;
        auto It = Placeholders.find(OpV->name());
        if (It == Placeholders.end() || It->second.get() != OpV)
          continue;
        auto VIt = Values.find(OpV->name());
        if (VIt == Values.end()) {
          errorHere("use of undefined value %" + OpV->name() + " in @" +
                    F->name());
          return;
        }
        I->setOp(OpIdx, VIt->second);
      }
    }
  }
}

} // namespace

std::unique_ptr<Module> ir::parseModule(const std::string &Text, Diag &Err) {
  prof::Span ProfSpan("parse");
  ParserImpl P(Text, Err);
  return P.run();
}

std::unique_ptr<Module> ir::parseModuleOrDie(const std::string &Text) {
  Diag Err;
  auto M = parseModule(Text, Err);
  if (!M) {
    std::fprintf(stderr, "IR parse error: %s\n", Err.str().c_str());
    std::abort();
  }
  return M;
}
