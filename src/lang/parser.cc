#include "lang/parser.h"

#include <cctype>
#include <cmath>
#include <set>
#include <unordered_map>
#include <vector>

namespace dmac {

namespace {

// ---- lexer -----------------------------------------------------------------

enum class TokKind {
  kIdent,
  kNumber,
  kString,
  kMatMul,  // %*%
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kAssign,  // =
  kLParen,
  kRParen,
  kLBrace,
  kRBrace,
  kComma,
  kColon,
  kFor,
  kIn,
  kEnd,  // end of input
};

struct Token {
  TokKind kind;
  std::string text;
  double number = 0;
  int line = 1;
  int col = 1;
};

class Lexer {
 public:
  explicit Lexer(const std::string& source) : src_(source) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> out;
    while (true) {
      SkipWhitespaceAndComments();
      if (pos_ >= src_.size()) break;
      const int line = line_, col = col_;
      const char c = src_[pos_];
      Token tok;
      tok.line = line;
      tok.col = col;
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        tok.text = LexIdent();
        tok.kind = tok.text == "for" ? TokKind::kFor
                   : tok.text == "in" ? TokKind::kIn
                                      : TokKind::kIdent;
      } else if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') {
        DMAC_ASSIGN_OR_RETURN(tok.number, LexNumber());
        tok.kind = TokKind::kNumber;
      } else if (c == '"') {
        DMAC_ASSIGN_OR_RETURN(tok.text, LexString());
        tok.kind = TokKind::kString;
      } else if (c == '%') {
        if (src_.compare(pos_, 3, "%*%") != 0) {
          return Error("expected %*%");
        }
        Advance(3);
        tok.kind = TokKind::kMatMul;
      } else {
        Advance(1);
        switch (c) {
          case '+':
            tok.kind = TokKind::kPlus;
            break;
          case '-':
            tok.kind = TokKind::kMinus;
            break;
          case '*':
            tok.kind = TokKind::kStar;
            break;
          case '/':
            tok.kind = TokKind::kSlash;
            break;
          case '=':
            tok.kind = TokKind::kAssign;
            break;
          case '(':
            tok.kind = TokKind::kLParen;
            break;
          case ')':
            tok.kind = TokKind::kRParen;
            break;
          case '{':
            tok.kind = TokKind::kLBrace;
            break;
          case '}':
            tok.kind = TokKind::kRBrace;
            break;
          case ',':
            tok.kind = TokKind::kComma;
            break;
          case ':':
            tok.kind = TokKind::kColon;
            break;
          case ';':
            continue;  // statement separator: ignored by the grammar
          default:
            return Error(std::string("unexpected character '") + c + "'");
        }
      }
      out.push_back(std::move(tok));
    }
    Token end;
    end.kind = TokKind::kEnd;
    end.line = line_;
    end.col = col_;
    out.push_back(end);
    return out;
  }

 private:
  void Advance(size_t n) {
    for (size_t i = 0; i < n && pos_ < src_.size(); ++i) {
      if (src_[pos_] == '\n') {
        ++line_;
        col_ = 1;
      } else {
        ++col_;
      }
      ++pos_;
    }
  }

  void SkipWhitespaceAndComments() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        Advance(1);
      } else if (c == '#' ||
                 (c == '/' && pos_ + 1 < src_.size() &&
                  src_[pos_ + 1] == '/')) {
        while (pos_ < src_.size() && src_[pos_] != '\n') Advance(1);
      } else {
        break;
      }
    }
  }

  std::string LexIdent() {
    const size_t start = pos_;
    while (pos_ < src_.size() &&
           (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
            src_[pos_] == '_')) {
      Advance(1);
    }
    return src_.substr(start, pos_ - start);
  }

  Result<double> LexNumber() {
    const size_t start = pos_;
    while (pos_ < src_.size() &&
           (std::isdigit(static_cast<unsigned char>(src_[pos_])) ||
            src_[pos_] == '.' || src_[pos_] == 'e' || src_[pos_] == 'E' ||
            ((src_[pos_] == '+' || src_[pos_] == '-') && pos_ > start &&
             (src_[pos_ - 1] == 'e' || src_[pos_ - 1] == 'E')))) {
      Advance(1);
    }
    try {
      return std::stod(src_.substr(start, pos_ - start));
    } catch (...) {
      return Error("malformed number");
    }
  }

  Result<std::string> LexString() {
    Advance(1);  // opening quote
    const size_t start = pos_;
    while (pos_ < src_.size() && src_[pos_] != '"') Advance(1);
    if (pos_ >= src_.size()) return Error("unterminated string literal");
    std::string value = src_.substr(start, pos_ - start);
    Advance(1);  // closing quote
    return value;
  }

  Status Error(const std::string& message) const {
    return Status::Invalid(message + " at line " + std::to_string(line_) +
                           ":" + std::to_string(col_));
  }

  const std::string& src_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

// ---- parser ----------------------------------------------------------------

/// A parsed expression is either matrix- or scalar-valued.
struct Value {
  bool is_matrix = false;
  MatrixExprPtr matrix;
  ScalarExprPtr scalar;

  static Value Matrix(MatrixExprPtr m) { return {true, std::move(m), nullptr}; }
  static Value Scalar(ScalarExprPtr s) { return {false, nullptr, std::move(s)}; }
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Program> Run() {
    while (Peek().kind != TokKind::kEnd) {
      DMAC_RETURN_NOT_OK(ParseStatement());
    }
    return std::move(program_);
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Next() {
    const Token& t = Peek();
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }
  bool Accept(TokKind kind) {
    if (Peek().kind != kind) return false;
    Next();
    return true;
  }
  Status Expect(TokKind kind, const char* what) {
    if (Accept(kind)) return Status::Ok();
    return ErrorAt(Peek(), std::string("expected ") + what);
  }
  static Status ErrorAt(const Token& tok, const std::string& message) {
    return Status::Invalid(message + " at line " + std::to_string(tok.line) +
                           ":" + std::to_string(tok.col));
  }

  // ---- statements ---------------------------------------------------------

  Status ParseStatement() {
    const Token& tok = Peek();
    if (tok.kind == TokKind::kFor) return ParseFor();
    if (tok.kind != TokKind::kIdent) {
      return ErrorAt(tok, "expected statement");
    }
    if (tok.text == "output" || tok.text == "output_scalar") {
      const bool scalar = tok.text == "output_scalar";
      Next();
      DMAC_RETURN_NOT_OK(Expect(TokKind::kLParen, "'('"));
      const Token& name = Peek();
      DMAC_RETURN_NOT_OK(Expect(TokKind::kIdent, "identifier"));
      DMAC_RETURN_NOT_OK(Expect(TokKind::kRParen, "')'"));
      if (scalar) {
        if (matrix_vars_.count(name.text)) {
          return ErrorAt(name, name.text + " is a matrix, not a scalar");
        }
        program_.scalar_outputs.push_back(name.text);
      } else {
        if (!matrix_vars_.count(name.text)) {
          return ErrorAt(name, "unknown matrix variable " + name.text);
        }
        program_.outputs.push_back(name.text);
      }
      return Status::Ok();
    }

    // Assignment: ident = expr.
    const std::string target = Next().text;
    DMAC_RETURN_NOT_OK(Expect(TokKind::kAssign, "'='"));
    DMAC_ASSIGN_OR_RETURN(Value value, ParseExpr());
    Statement st;
    st.target = target;
    if (value.is_matrix) {
      st.kind = Statement::Kind::kAssignMatrix;
      st.matrix = std::move(value.matrix);
      matrix_vars_.insert(target);
      int_constants_.erase(target);
    } else {
      st.kind = Statement::Kind::kAssignScalar;
      st.scalar = value.scalar;
      if (matrix_vars_.count(target)) {
        return Status::Invalid("variable " + target +
                               " changes type from matrix to scalar");
      }
      scalar_vars_.insert(target);
      // Track integer-literal constants for loop bounds.
      if (value.scalar->kind == ScalarExpr::Kind::kLiteral &&
          value.scalar->literal == std::floor(value.scalar->literal)) {
        int_constants_[target] = static_cast<int64_t>(value.scalar->literal);
      } else {
        int_constants_.erase(target);
      }
    }
    program_.statements.push_back(std::move(st));
    return Status::Ok();
  }

  Status ParseFor() {
    Next();  // 'for'
    const Token& var = Peek();
    DMAC_RETURN_NOT_OK(Expect(TokKind::kIdent, "loop variable"));
    DMAC_RETURN_NOT_OK(Expect(TokKind::kIn, "'in'"));
    DMAC_ASSIGN_OR_RETURN(int64_t begin, ParseLoopBound());
    DMAC_RETURN_NOT_OK(Expect(TokKind::kColon, "':'"));
    DMAC_ASSIGN_OR_RETURN(int64_t end, ParseLoopBound());
    DMAC_RETURN_NOT_OK(Expect(TokKind::kLBrace, "'{'"));
    if (end < begin) return ErrorAt(var, "empty loop range");
    if (end - begin > 100000) return ErrorAt(var, "loop too large to unroll");

    // Record the body's token range, then replay it per iteration.
    const size_t body_start = pos_;
    int depth = 1;
    while (depth > 0) {
      const Token& t = Next();
      if (t.kind == TokKind::kEnd) return ErrorAt(t, "unterminated loop");
      if (t.kind == TokKind::kLBrace) ++depth;
      if (t.kind == TokKind::kRBrace) --depth;
    }
    const size_t after_body = pos_;

    for (int64_t i = begin; i < end; ++i) {
      int_constants_[var.text] = i;
      pos_ = body_start;
      while (Peek().kind != TokKind::kRBrace) {
        DMAC_RETURN_NOT_OK(ParseStatement());
      }
    }
    int_constants_.erase(var.text);
    pos_ = after_body;
    return Status::Ok();
  }

  Result<int64_t> ParseLoopBound() {
    const Token& tok = Next();
    if (tok.kind == TokKind::kNumber) {
      if (tok.number != std::floor(tok.number)) {
        return ErrorAt(tok, "loop bound must be an integer");
      }
      return static_cast<int64_t>(tok.number);
    }
    if (tok.kind == TokKind::kIdent) {
      auto it = int_constants_.find(tok.text);
      if (it == int_constants_.end()) {
        return ErrorAt(tok, tok.text + " is not an integer constant");
      }
      return it->second;
    }
    return ErrorAt(tok, "expected loop bound");
  }

  // ---- expressions (precedence climbing) -----------------------------------

  // expr     := term (('+'|'-') term)*
  // term     := factor (('*'|'/') factor)*
  // factor   := unary ('%*%' unary)*          (via the chain flattener)
  // unary    := '-' unary | primary
  Result<Value> ParseExpr() {
    DMAC_ASSIGN_OR_RETURN(Value lhs, ParseTerm());
    while (Peek().kind == TokKind::kPlus || Peek().kind == TokKind::kMinus) {
      const bool add = Next().kind == TokKind::kPlus;
      DMAC_ASSIGN_OR_RETURN(Value rhs, ParseTerm());
      DMAC_ASSIGN_OR_RETURN(
          lhs, Combine(std::move(lhs), std::move(rhs), add ? '+' : '-'));
    }
    return lhs;
  }

  Result<Value> ParseTerm() {
    DMAC_ASSIGN_OR_RETURN(Value lhs, ParseMatMul());
    while (Peek().kind == TokKind::kStar || Peek().kind == TokKind::kSlash) {
      const bool mul = Next().kind == TokKind::kStar;
      DMAC_ASSIGN_OR_RETURN(Value rhs, ParseMatMul());
      DMAC_ASSIGN_OR_RETURN(
          lhs, Combine(std::move(lhs), std::move(rhs), mul ? '*' : '/'));
    }
    return lhs;
  }

  Result<Value> ParseMatMul() {
    DMAC_ASSIGN_OR_RETURN(Value lhs, ParseUnary());
    while (Peek().kind == TokKind::kMatMul) {
      const Token& op = Next();
      DMAC_ASSIGN_OR_RETURN(Value rhs, ParseUnary());
      if (!lhs.is_matrix || !rhs.is_matrix) {
        return ErrorAt(op, "%*% requires matrix operands");
      }
      lhs = Value::Matrix(
          MatrixExpr::Multiply(std::move(lhs.matrix), std::move(rhs.matrix)));
    }
    return lhs;
  }

  Result<Value> ParseUnary() {
    if (Peek().kind == TokKind::kMinus) {
      Next();
      DMAC_ASSIGN_OR_RETURN(Value v, ParseUnary());
      if (v.is_matrix) return Value::Matrix(Negate(std::move(v.matrix)));
      return Value::Scalar(ScalarExpr::Binary('-', ScalarExpr::Literal(0.0),
                                              std::move(v.scalar)));
    }
    return ParsePrimary();
  }

  Result<Value> ParsePrimary() {
    const Token& tok = Next();
    switch (tok.kind) {
      case TokKind::kNumber:
        return Value::Scalar(ScalarExpr::Literal(tok.number));
      case TokKind::kLParen: {
        DMAC_ASSIGN_OR_RETURN(Value v, ParseExpr());
        DMAC_RETURN_NOT_OK(Expect(TokKind::kRParen, "')'"));
        return v;
      }
      case TokKind::kIdent: {
        if (Peek().kind == TokKind::kLParen) return ParseCall(tok);
        if (matrix_vars_.count(tok.text)) {
          return Value::Matrix(MatrixExpr::VarRef(tok.text));
        }
        // Loop variables read as literals; other scalars as var refs.
        auto it = int_constants_.find(tok.text);
        if (it != int_constants_.end() && !scalar_vars_.count(tok.text)) {
          return Value::Scalar(
              ScalarExpr::Literal(static_cast<double>(it->second)));
        }
        if (scalar_vars_.count(tok.text) || int_constants_.count(tok.text)) {
          return Value::Scalar(ScalarExpr::VarRef(tok.text));
        }
        return ErrorAt(tok, "unknown variable " + tok.text);
      }
      default:
        return ErrorAt(tok, "expected expression");
    }
  }

  Result<Value> ParseCall(const Token& name) {
    DMAC_RETURN_NOT_OK(Expect(TokKind::kLParen, "'('"));
    std::vector<Value> args;
    std::vector<Token> arg_tokens;
    if (Peek().kind != TokKind::kRParen) {
      do {
        arg_tokens.push_back(Peek());
        if (Peek().kind == TokKind::kString) {
          Next();
          args.push_back(Value{});  // placeholder; text kept in arg_tokens
        } else {
          DMAC_ASSIGN_OR_RETURN(Value v, ParseExpr());
          args.push_back(std::move(v));
        }
      } while (Accept(TokKind::kComma));
    }
    DMAC_RETURN_NOT_OK(Expect(TokKind::kRParen, "')'"));

    auto literal_arg = [&](size_t i) -> Result<double> {
      if (i >= args.size() || args[i].is_matrix ||
          args[i].scalar == nullptr ||
          args[i].scalar->kind != ScalarExpr::Kind::kLiteral) {
        return ErrorAt(name, name.text + ": argument " + std::to_string(i) +
                                 " must be a numeric literal");
      }
      return args[i].scalar->literal;
    };
    auto matrix_arg = [&](size_t i) -> Result<MatrixExprPtr> {
      if (i >= args.size() || !args[i].is_matrix) {
        return ErrorAt(name, name.text + ": argument " + std::to_string(i) +
                                 " must be a matrix");
      }
      return args[i].matrix;
    };

    if (name.text == "load") {
      if (args.size() != 4 || arg_tokens.empty() ||
          arg_tokens[0].kind != TokKind::kString) {
        return ErrorAt(name,
                       "load(\"name\", rows, cols, sparsity) expected");
      }
      DMAC_ASSIGN_OR_RETURN(double rows, literal_arg(1));
      DMAC_ASSIGN_OR_RETURN(double cols, literal_arg(2));
      DMAC_ASSIGN_OR_RETURN(double sparsity, literal_arg(3));
      return Value::Matrix(MatrixExpr::Load(
          arg_tokens[0].text,
          {static_cast<int64_t>(rows), static_cast<int64_t>(cols)},
          sparsity));
    }
    if (name.text == "random") {
      if (args.size() != 2) {
        return ErrorAt(name, "random(rows, cols) expected");
      }
      DMAC_ASSIGN_OR_RETURN(double rows, literal_arg(0));
      DMAC_ASSIGN_OR_RETURN(double cols, literal_arg(1));
      return Value::Matrix(MatrixExpr::Random(
          "rand" + std::to_string(next_random_++),
          {static_cast<int64_t>(rows), static_cast<int64_t>(cols)}));
    }
    if (name.text == "t") {
      DMAC_ASSIGN_OR_RETURN(MatrixExprPtr m, matrix_arg(0));
      if (args.size() != 1) return ErrorAt(name, "t(X) expects one matrix");
      return Value::Matrix(MatrixExpr::Transpose(std::move(m)));
    }
    if (name.text == "exp" || name.text == "log" || name.text == "abs" ||
        name.text == "sigmoid" || name.text == "square") {
      DMAC_ASSIGN_OR_RETURN(MatrixExprPtr m, matrix_arg(0));
      if (args.size() != 1) {
        return ErrorAt(name, name.text + "(X) expects one matrix");
      }
      const UnaryFnKind fn = name.text == "exp"     ? UnaryFnKind::kExp
                             : name.text == "log"   ? UnaryFnKind::kLog
                             : name.text == "abs"   ? UnaryFnKind::kAbs
                             : name.text == "sigmoid"
                                 ? UnaryFnKind::kSigmoid
                                 : UnaryFnKind::kSquare;
      return Value::Matrix(MatrixExpr::Cellwise(
          {.kind = CellOp::kUnary, .fn = fn}, std::move(m)));
    }
    if (name.text == "rowsums" || name.text == "colsums") {
      DMAC_ASSIGN_OR_RETURN(MatrixExprPtr m, matrix_arg(0));
      if (args.size() != 1) {
        return ErrorAt(name, name.text + "(X) expects one matrix");
      }
      return Value::Matrix(name.text == "rowsums"
                               ? MatrixExpr::RowSums(std::move(m))
                               : MatrixExpr::ColSums(std::move(m)));
    }
    if (name.text == "sum" || name.text == "norm2" || name.text == "value") {
      DMAC_ASSIGN_OR_RETURN(MatrixExprPtr m, matrix_arg(0));
      if (args.size() != 1) {
        return ErrorAt(name, name.text + "(X) expects one matrix");
      }
      const ReduceKind kind = name.text == "sum"     ? ReduceKind::kSum
                              : name.text == "norm2" ? ReduceKind::kNorm2
                                                     : ReduceKind::kValue;
      return Value::Scalar(ScalarExpr::Reduce(kind, std::move(m)));
    }
    if (name.text == "sqrt") {
      if (args.size() != 1 || args[0].is_matrix) {
        return ErrorAt(name, "sqrt(s) expects one scalar");
      }
      return Value::Scalar(ScalarExpr::Sqrt(args[0].scalar));
    }
    return ErrorAt(name, "unknown function " + name.text);
  }

  /// Combines two values under + - * /, resolving matrix/scalar typing.
  Result<Value> Combine(Value lhs, Value rhs, char op) {
    if (lhs.is_matrix && rhs.is_matrix) {
      const CellOp::Kind kind = op == '+'   ? CellOp::kAdd
                                : op == '-' ? CellOp::kSubtract
                                : op == '*' ? CellOp::kMultiply
                                            : CellOp::kDivide;
      return Value::Matrix(MatrixExpr::Cellwise(
          {kind}, std::move(lhs.matrix), std::move(rhs.matrix)));
    }
    if (!lhs.is_matrix && !rhs.is_matrix) {
      return Value::Scalar(ScalarExpr::Binary(op, std::move(lhs.scalar),
                                              std::move(rhs.scalar)));
    }
    // Mixed matrix/scalar.
    const bool matrix_left = lhs.is_matrix;
    MatrixExprPtr m = matrix_left ? std::move(lhs.matrix)
                                  : std::move(rhs.matrix);
    ScalarExprPtr s = matrix_left ? std::move(rhs.scalar)
                                  : std::move(lhs.scalar);
    switch (op) {
      case '*':
        return Value::Matrix(WithScalar(CellOp::kScale, std::move(m),
                                        std::move(s)));
      case '+':
        return Value::Matrix(WithScalar(CellOp::kShift, std::move(m),
                                        std::move(s)));
      case '-':
        if (matrix_left) {  // X - s == X + (-s)
          return Value::Matrix(WithScalar(
              CellOp::kShift, std::move(m),
              ScalarExpr::Binary('-', ScalarExpr::Literal(0.0),
                                 std::move(s))));
        }
        // s - X == (X * -1) + s
        return Value::Matrix(
            WithScalar(CellOp::kShift, Negate(std::move(m)), std::move(s)));
      case '/':
        if (matrix_left) {  // X / s == X * (1/s)
          return Value::Matrix(WithScalar(
              CellOp::kScale, std::move(m),
              ScalarExpr::Binary('/', ScalarExpr::Literal(1.0),
                                 std::move(s))));
        }
        return Status::Unsupported("scalar / matrix is not supported");
      default:
        return Status::Internal("bad operator");
    }
  }

  /// `m` scaled (kScale) or shifted (kShift) by `s`.
  static MatrixExprPtr WithScalar(CellOp::Kind kind, MatrixExprPtr m,
                                  ScalarExprPtr s) {
    return MatrixExpr::Cellwise({kind}, std::move(m), nullptr, std::move(s));
  }

  /// -m, as m scaled by -1.
  static MatrixExprPtr Negate(MatrixExprPtr m) {
    return WithScalar(CellOp::kScale, std::move(m), ScalarExpr::Literal(-1.0));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  Program program_;
  std::unordered_map<std::string, int64_t> int_constants_;
  std::set<std::string> matrix_vars_;
  std::set<std::string> scalar_vars_;
  int next_random_ = 0;
};

}  // namespace

Result<Program> ParseProgram(const std::string& source) {
  Lexer lexer(source);
  DMAC_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Run());
  return Parser(std::move(tokens)).Run();
}

}  // namespace dmac
