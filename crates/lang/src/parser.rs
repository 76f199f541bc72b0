//! Recursive-descent parser for mini-C.
//!
//! Operator precedence follows C (with Rust-style `as` casts binding tighter
//! than any binary operator); binary operators are parsed by precedence
//! climbing, one loop over the table in `binary_op`. Loops may be tagged
//! `@name:` so that expert annotations and reports can refer to them
//! stably. Identifiers are interned as they are parsed (see [`Names`]).

use crate::ast::*;
use crate::error::{Error, ErrorKind};
use crate::token::{unescape, Pos, Token, TokenKind};
use std::collections::HashMap;

/// Parses a token stream (as produced by [`crate::lex`]) into a [`Program`].
/// The end of the slice reads as [`TokenKind::Eof`] at the last token's
/// position, so a stream need not end with one.
///
/// # Errors
///
/// Returns a [`Error`] with [`ErrorKind::Parse`] on the first syntax error.
pub fn parse(tokens: &[Token<'_>]) -> Result<Program, Error> {
    let end = tokens.last().map_or(Pos::new(1, 1), |t| t.pos);
    let builtins = crate::sema::BUILTINS.iter().enumerate();
    Parser {
        tokens,
        end: Token::new(TokenKind::Eof, end),
        at: 0,
        exprs: Vec::with_capacity(tokens.len() / 2),
        depth: 0,
        syms: builtins.map(|(i, b)| (b.0, Sym(i as u32))).collect(),
        names: Names::default(),
    }
    .program()
}

/// Zero-sized token proving `enter` succeeded (forces paired `leave`).
struct DepthGuard;

/// Maximum nesting depth of expressions, statements and types. The parser
/// is recursive-descent; without a bound, adversarial input like ten
/// thousand `(`s overflows the stack instead of reporting an error. The
/// bound is conservative because debug-build frames are large, and it is
/// part of the language: deeper programs are rejected.
const MAX_DEPTH: u32 = 96;

struct Parser<'t, 'a> {
    tokens: &'t [Token<'a>],
    /// What the parser reads past the last token.
    end: Token<'a>,
    at: usize,
    exprs: Vec<Expr>,
    depth: u32,
    /// Symbol of each identifier interned so far, the builtins first.
    syms: HashMap<&'a str, Sym>,
    names: Names,
}

/// The binary operator a token stands for and its precedence level,
/// loosest (0) to tightest (9).
fn binary_op(k: TokenKind<'_>) -> Option<(BinOp, u8)> {
    use BinOp::*;
    use TokenKind as T;
    Some(match k {
        T::OrOr => (Or, 0),
        T::AndAnd => (And, 1),
        T::Pipe => (BitOr, 2),
        T::Caret => (BitXor, 3),
        T::Amp => (BitAnd, 4),
        T::EqEq => (Eq, 5),
        T::NotEq => (Ne, 5),
        T::Lt => (Lt, 6),
        T::Le => (Le, 6),
        T::Gt => (Gt, 6),
        T::Ge => (Ge, 6),
        T::Shl => (Shl, 7),
        T::Shr => (Shr, 7),
        T::Plus => (Add, 8),
        T::Minus => (Sub, 8),
        T::Star => (Mul, 9),
        T::Slash => (Div, 9),
        T::Percent => (Rem, 9),
        _ => return None,
    })
}

impl<'a> Parser<'_, 'a> {
    fn token(&self) -> &Token<'a> {
        self.tokens.get(self.at).unwrap_or(&self.end)
    }

    fn peek(&self) -> TokenKind<'a> {
        self.token().kind
    }

    fn pos(&self) -> Pos {
        self.token().pos
    }

    fn bump(&mut self) -> TokenKind<'a> {
        let k = self.peek();
        self.at += 1;
        k
    }

    fn eat(&mut self, k: TokenKind<'_>) -> bool {
        if self.peek() == k {
            self.at += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, k: TokenKind<'_>) -> Result<(), Error> {
        if self.eat(k) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{k}`, found `{}`", self.peek())))
        }
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        Error::new(ErrorKind::Parse, msg, self.pos())
    }

    /// Adds an expression; ids are handed out in the order nodes are
    /// added.
    fn add(&mut self, pos: Pos, kind: ExprKind) -> ExprId {
        self.exprs.push(Expr { pos, kind });
        ExprId(self.exprs.len() as u32 - 1)
    }

    fn enter(&mut self) -> Result<DepthGuard, Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            self.depth -= 1;
            return Err(self.err("nesting too deep"));
        }
        Ok(DepthGuard)
    }

    fn leave(&mut self, _guard: DepthGuard) {
        self.depth -= 1;
    }

    fn intern(&mut self, name: &'a str) -> Sym {
        let names = &mut self.names;
        *self.syms.entry(name).or_insert_with(|| names.push(name))
    }

    fn ident(&mut self) -> Result<Sym, Error> {
        match self.peek() {
            TokenKind::Ident(s) => {
                self.at += 1;
                Ok(self.intern(s))
            }
            other => Err(self.err(format!("expected identifier, found `{other}`"))),
        }
    }

    // ---- items ----------------------------------------------------------

    fn program(mut self) -> Result<Program, Error> {
        let mut prog = Program::default();
        loop {
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::Struct => prog.structs.push(self.struct_def()?),
                TokenKind::Let => prog.globals.push(self.global_def()?),
                TokenKind::Fn => prog.functions.push(self.fn_def()?),
                other => return Err(self.err(format!("expected item, found `{other}`"))),
            }
        }
        prog.exprs = self.exprs;
        prog.names = self.names;
        Ok(prog)
    }

    /// Parses `item (, item)* ,? close` after the opening delimiter.
    fn list<T>(
        &mut self,
        close: TokenKind<'_>,
        mut item: impl FnMut(&mut Self) -> Result<T, Error>,
    ) -> Result<Vec<T>, Error> {
        let mut out = Vec::new();
        while !self.eat(close) {
            out.push(item(self)?);
            if !self.eat(TokenKind::Comma) {
                self.expect(close)?;
                break;
            }
        }
        Ok(out)
    }

    /// A `name: type` pair, as struct fields and parameters are written.
    fn typed_name(&mut self) -> Result<(Sym, TyAst), Error> {
        let name = self.ident()?;
        self.expect(TokenKind::Colon)?;
        Ok((name, self.ty()?))
    }

    fn struct_def(&mut self) -> Result<StructDef, Error> {
        let pos = self.pos();
        self.expect(TokenKind::Struct)?;
        let name = self.ident()?;
        self.expect(TokenKind::LBrace)?;
        let fields = self.list(TokenKind::RBrace, Self::typed_name)?;
        Ok(StructDef { name, fields, pos })
    }

    fn global_def(&mut self) -> Result<GlobalDef, Error> {
        let pos = self.pos();
        self.expect(TokenKind::Let)?;
        let (name, ty) = self.typed_name()?;
        let init = self.initializer()?;
        Ok(GlobalDef {
            name,
            ty,
            init,
            pos,
        })
    }

    /// An optional `= expr`, then the `;` ending a `let`.
    fn initializer(&mut self) -> Result<Option<ExprId>, Error> {
        let init = if self.eat(TokenKind::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(TokenKind::Semi)?;
        Ok(init)
    }

    fn fn_def(&mut self) -> Result<FnDef, Error> {
        let pos = self.pos();
        self.expect(TokenKind::Fn)?;
        let name = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let params = self.list(TokenKind::RParen, Self::typed_name)?;
        let ret = if self.eat(TokenKind::Arrow) {
            Some(self.ty()?)
        } else {
            None
        };
        let body = self.block()?;
        Ok(FnDef {
            name,
            params,
            ret,
            body,
            pos,
        })
    }

    fn ty(&mut self) -> Result<TyAst, Error> {
        let g = self.enter()?;
        let r = self.ty_inner();
        self.leave(g);
        r
    }

    fn ty_inner(&mut self) -> Result<TyAst, Error> {
        Ok(match self.peek() {
            TokenKind::TyInt => {
                self.at += 1;
                TyAst::Int
            }
            TokenKind::TyFloat => {
                self.at += 1;
                TyAst::Float
            }
            TokenKind::TyBool => {
                self.at += 1;
                TyAst::Bool
            }
            TokenKind::Star => {
                self.at += 1;
                TyAst::Ptr(Box::new(self.ty()?))
            }
            TokenKind::LBracket => {
                self.at += 1;
                let elem = self.ty()?;
                self.expect(TokenKind::Semi)?;
                let n = match self.bump() {
                    TokenKind::Int(n) if n >= 0 => n as usize,
                    other => {
                        return Err(self.err(format!("expected array length, found `{other}`")))
                    }
                };
                self.expect(TokenKind::RBracket)?;
                TyAst::Array(Box::new(elem), n)
            }
            TokenKind::Ident(_) => TyAst::Named(self.ident()?),
            other => return Err(self.err(format!("expected type, found `{other}`"))),
        })
    }

    // ---- statements ------------------------------------------------------

    fn block(&mut self) -> Result<Vec<Stmt>, Error> {
        self.expect(TokenKind::LBrace)?;
        let mut out = Vec::new();
        while !self.eat(TokenKind::RBrace) {
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt, Error> {
        let g = self.enter()?;
        let r = self.stmt_inner();
        self.leave(g);
        r
    }

    fn stmt_inner(&mut self) -> Result<Stmt, Error> {
        let pos = self.pos();
        let kind = match self.peek() {
            TokenKind::At => {
                self.at += 1;
                let tag = self.ident()?;
                self.expect(TokenKind::Colon)?;
                return match self.peek() {
                    TokenKind::While => self.while_stmt(Some(tag)),
                    TokenKind::For => self.for_stmt(Some(tag)),
                    other => Err(self.err(format!(
                        "loop tag must precede `while` or `for`, found `{other}`"
                    ))),
                };
            }
            TokenKind::Let => {
                self.at += 1;
                let (name, ty) = self.typed_name()?;
                let init = self.initializer()?;
                StmtKind::Let { name, ty, init }
            }
            TokenKind::If => {
                self.at += 1;
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let then_body = self.block()?;
                let else_body = if !self.eat(TokenKind::Else) {
                    Vec::new()
                } else if self.peek() == TokenKind::If {
                    vec![self.stmt()?]
                } else {
                    self.block()?
                };
                StmtKind::If {
                    cond,
                    then_body,
                    else_body,
                }
            }
            TokenKind::While => return self.while_stmt(None),
            TokenKind::For => return self.for_stmt(None),
            TokenKind::Break => {
                self.at += 1;
                self.expect(TokenKind::Semi)?;
                StmtKind::Break
            }
            TokenKind::Continue => {
                self.at += 1;
                self.expect(TokenKind::Semi)?;
                StmtKind::Continue
            }
            TokenKind::Return => {
                self.at += 1;
                let value = if self.peek() == TokenKind::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::Semi)?;
                StmtKind::Return(value)
            }
            TokenKind::Print => {
                self.at += 1;
                self.expect(TokenKind::LParen)?;
                let args = self.list(TokenKind::RParen, |p| match p.peek() {
                    TokenKind::Str(s) => {
                        p.at += 1;
                        Ok(PrintArg::Label(unescape(s)))
                    }
                    _ => Ok(PrintArg::Value(p.expr()?)),
                })?;
                self.expect(TokenKind::Semi)?;
                StmtKind::Print(args)
            }
            TokenKind::LBrace => StmtKind::Block(self.block()?),
            _ => return self.assign_or_expr_stmt(),
        };
        Ok(Stmt { pos, kind })
    }

    fn while_stmt(&mut self, tag: Option<Sym>) -> Result<Stmt, Error> {
        let pos = self.pos();
        self.expect(TokenKind::While)?;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        Ok(Stmt {
            pos,
            kind: StmtKind::While { tag, cond, body },
        })
    }

    fn for_stmt(&mut self, tag: Option<Sym>) -> Result<Stmt, Error> {
        let pos = self.pos();
        self.expect(TokenKind::For)?;
        self.expect(TokenKind::LParen)?;
        // `init` ends with the `;` consumed by the sub-statement parse.
        let init = if self.peek() == TokenKind::Let {
            Box::new(self.stmt()?)
        } else {
            Box::new(self.assign_or_expr_stmt()?)
        };
        let cond = self.expr()?;
        self.expect(TokenKind::Semi)?;
        // `step` has no trailing `;` before the `)`.
        let step = Box::new(self.assign_no_semi()?);
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        Ok(Stmt {
            pos,
            kind: StmtKind::For {
                tag,
                init,
                cond,
                step,
                body,
            },
        })
    }

    fn assign_or_expr_stmt(&mut self) -> Result<Stmt, Error> {
        let stmt = self.assign_no_semi()?;
        self.expect(TokenKind::Semi)?;
        Ok(stmt)
    }

    fn assign_no_semi(&mut self) -> Result<Stmt, Error> {
        let pos = self.pos();
        let first = self.expr()?;
        let kind = if self.eat(TokenKind::Assign) {
            StmtKind::Assign {
                target: first,
                value: self.expr()?,
            }
        } else {
            StmtKind::Expr(first)
        };
        Ok(Stmt { pos, kind })
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self) -> Result<ExprId, Error> {
        let g = self.enter()?;
        let r = self.binary(0);
        self.leave(g);
        r
    }

    /// An expression whose binary operators all bind at `min` or
    /// tighter; operators of one level associate to the left.
    fn binary(&mut self, min: u8) -> Result<ExprId, Error> {
        let mut lhs = self.unary()?;
        while let Some((op, level)) = binary_op(self.peek()).filter(|&(_, l)| l >= min) {
            let pos = self.pos();
            self.at += 1;
            let rhs = self.binary(level + 1)?;
            lhs = self.add(pos, ExprKind::Binary(op, lhs, rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<ExprId, Error> {
        let pos = self.pos();
        let op = match self.peek() {
            TokenKind::Minus => UnOp::Neg,
            TokenKind::Bang => UnOp::Not,
            _ => return self.postfix(),
        };
        self.at += 1;
        let e = self.unary()?;
        Ok(self.add(pos, ExprKind::Unary(op, e)))
    }

    fn postfix(&mut self) -> Result<ExprId, Error> {
        let mut e = self.primary()?;
        loop {
            let pos = self.pos();
            let kind = match self.peek() {
                TokenKind::LBracket => {
                    self.at += 1;
                    let idx = self.expr()?;
                    self.expect(TokenKind::RBracket)?;
                    ExprKind::Index(e, idx)
                }
                TokenKind::Dot | TokenKind::Arrow => {
                    self.at += 1;
                    ExprKind::Field(e, self.ident()?)
                }
                TokenKind::As => {
                    self.at += 1;
                    ExprKind::Cast(e, self.ty()?)
                }
                _ => return Ok(e),
            };
            e = self.add(pos, kind);
        }
    }

    /// A primary expression. Its id is taken before its operands', so it
    /// is filled in once they are parsed.
    fn primary(&mut self) -> Result<ExprId, Error> {
        let pos = self.pos();
        let id = self.add(pos, ExprKind::NullLit);
        let kind = match self.bump() {
            TokenKind::Int(v) => ExprKind::IntLit(v),
            TokenKind::Float(v) => ExprKind::FloatLit(v),
            TokenKind::True => ExprKind::BoolLit(true),
            TokenKind::False => ExprKind::BoolLit(false),
            TokenKind::Null => ExprKind::NullLit,
            TokenKind::New => {
                if self.eat(TokenKind::LBracket) {
                    let elem = self.ty()?;
                    self.expect(TokenKind::Semi)?;
                    let len = self.expr()?;
                    self.expect(TokenKind::RBracket)?;
                    ExprKind::NewArray(elem, len)
                } else {
                    ExprKind::NewStruct(self.ident()?)
                }
            }
            TokenKind::LParen => {
                let inner = self.expr()?;
                self.expect(TokenKind::RParen)?;
                return Ok(inner);
            }
            TokenKind::Ident(name) => {
                let name = self.intern(name);
                if self.eat(TokenKind::LParen) {
                    ExprKind::Call(name, self.list(TokenKind::RParen, Self::expr)?)
                } else {
                    ExprKind::Var(name)
                }
            }
            other => {
                self.at -= 1;
                return Err(self.err(format!("expected expression, found `{other}`")));
            }
        };
        self.exprs[id.0 as usize].kind = kind;
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Program {
        parse(&lex(src).expect("lex")).expect("parse")
    }

    /// The returned expression of `fn main`, printed with full
    /// parentheses.
    fn parse_expr(src: &str) -> String {
        let prog = parse_src(&format!("fn main() -> int {{ return {src}; }}"));
        match &prog.functions[0].body[0].kind {
            StmtKind::Return(Some(e)) => shape(&prog, *e),
            other => panic!("expected return, got {other:?}"),
        }
    }

    fn ty_shape(names: &Names, t: &TyAst) -> String {
        match t {
            TyAst::Int => "int".into(),
            TyAst::Float => "float".into(),
            TyAst::Bool => "bool".into(),
            TyAst::Ptr(t) => format!("*{}", ty_shape(names, t)),
            TyAst::Array(t, n) => format!("[{}; {n}]", ty_shape(names, t)),
            TyAst::Named(n) => names.get(*n).into(),
        }
    }

    fn shape(p: &Program, e: ExprId) -> String {
        let s = |e: &ExprId| shape(p, *e);
        let names = &p.names;
        match &p.expr(e).kind {
            ExprKind::IntLit(v) => v.to_string(),
            ExprKind::FloatLit(v) => v.to_string(),
            ExprKind::BoolLit(v) => v.to_string(),
            ExprKind::NullLit => "null".into(),
            ExprKind::Var(n) => names.get(*n).into(),
            ExprKind::Unary(op, a) => format!("({op}{})", s(a)),
            ExprKind::Binary(op, a, b) => format!("({} {op} {})", s(a), s(b)),
            ExprKind::Index(a, i) => format!("{}[{}]", s(a), s(i)),
            ExprKind::Field(a, f) => format!("{}.{}", s(a), names.get(*f)),
            ExprKind::Call(f, args) => format!(
                "{}({})",
                names.get(*f),
                args.iter().map(s).collect::<Vec<_>>().join(",")
            ),
            ExprKind::NewStruct(n) => format!("new {}", names.get(*n)),
            ExprKind::NewArray(t, n) => format!("new[{};{}]", ty_shape(names, t), s(n)),
            ExprKind::Cast(a, t) => format!("({} as {})", s(a), ty_shape(names, t)),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        assert_eq!(parse_expr("1 + 2 * 3"), "(1 + (2 * 3))");
    }

    #[test]
    fn precedence_cmp_over_logic() {
        assert_eq!(
            parse_expr("a < b && c >= d || e == f"),
            "(((a < b) && (c >= d)) || (e == f))"
        );
    }

    #[test]
    fn precedence_shift_between_cmp_and_add() {
        assert_eq!(parse_expr("a < b << 1 + c"), "(a < (b << (1 + c)))");
    }

    #[test]
    fn postfix_chain() {
        assert_eq!(parse_expr("p.next.val"), "p.next.val");
        assert_eq!(parse_expr("a[i][j]"), "a[i][j]");
        assert_eq!(parse_expr("p->next->val"), "p.next.val");
    }

    #[test]
    fn cast_binds_tighter_than_binary() {
        assert_eq!(parse_expr("x + i as float"), "(x + (i as float))");
    }

    #[test]
    fn unary_chain() {
        assert_eq!(parse_expr("- -x"), "(-(-x))");
        assert_eq!(parse_expr("!a && b"), "((!a) && b)");
    }

    #[test]
    fn parses_struct_global_fn() {
        let p = parse_src(
            "struct Node { val: int, next: *Node }\n\
             let g: [int; 10];\n\
             fn id(x: int) -> int { return x; }",
        );
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.structs[0].fields.len(), 2);
        assert_eq!(p.globals.len(), 1);
        assert_eq!(p.functions.len(), 1);
    }

    #[test]
    fn parses_tagged_loops() {
        let p = parse_src(
            "fn main() { @hot: for (let i: int = 0; i < 4; i = i + 1) { } \
             @scan: while (false) { } }",
        );
        let body = &p.functions[0].body;
        match (&body[0].kind, &body[1].kind) {
            (StmtKind::For { tag: Some(a), .. }, StmtKind::While { tag: Some(b), .. }) => {
                assert_eq!(p.name(*a), "hot");
                assert_eq!(p.name(*b), "scan");
            }
            other => panic!("unexpected statements: {other:?}"),
        }
    }

    #[test]
    fn parses_if_else_chain() {
        let p = parse_src(
            "fn f(x: int) -> int { if (x < 0) { return 0; } else if (x < 10) { return 1; } \
             else { return 2; } }",
        );
        match &p.functions[0].body[0].kind {
            StmtKind::If { else_body, .. } => {
                assert_eq!(else_body.len(), 1);
                assert!(matches!(else_body[0].kind, StmtKind::If { .. }));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parses_print_with_labels() {
        let p = parse_src(r#"fn main() { print("sum", 1 + 2); }"#);
        match &p.functions[0].body[0].kind {
            StmtKind::Print(args) => {
                assert!(matches!(args[0], PrintArg::Label(ref s) if s == "sum"));
                assert!(matches!(args[1], PrintArg::Value(_)));
            }
            other => panic!("expected print, got {other:?}"),
        }
    }

    #[test]
    fn parses_new_forms() {
        assert_eq!(parse_expr("new Node"), "new Node");
        assert_eq!(parse_expr("new [float; n * 2]"), "new[float;(n * 2)]");
    }

    #[test]
    fn expr_ids_are_unique() {
        let p = parse_src("fn main() -> int { return 1 + 2 * 3 - 4; }");
        assert!(p.exprs.len() >= 7);
    }

    #[test]
    fn nesting_depth_is_bounded_not_fatal() {
        // Moderate nesting parses; adversarial nesting errors cleanly
        // instead of overflowing the parser's stack.
        for (depth, ok) in [(64usize, true), (200, false), (5000, false)] {
            let expr = format!("{}1{}", "(".repeat(depth), ")".repeat(depth));
            let src = format!("fn main() -> int {{ return {expr}; }}");
            let toks = lex(&src).expect("lex");
            let result = parse(&toks);
            assert_eq!(result.is_ok(), ok, "depth {depth}");
            if !ok {
                assert!(result
                    .expect_err("deep nesting must error")
                    .message()
                    .contains("nesting too deep"));
            }
        }
    }

    #[test]
    fn empty_token_slice_is_an_empty_program() {
        let p = parse(&[]).expect("no tokens is no items");
        assert!(p.functions.is_empty() && p.structs.is_empty() && p.globals.is_empty());
    }

    #[test]
    fn slice_end_reads_as_eof_at_the_last_position() {
        let toks = lex("fn main() { }").expect("lex");
        let without_eof = &toks[..toks.len() - 1];
        assert_eq!(parse(without_eof), parse(&toks));
        let err = parse(&toks[..4]).expect_err("cut inside the item");
        assert_eq!(err.message(), "expected `{`, found `<eof>`");
        assert_eq!(err.pos(), toks[3].pos);
    }

    #[test]
    fn error_on_missing_semicolon() {
        let toks = lex("fn main() { let x: int = 1 }").expect("lex");
        let err = parse(&toks).expect_err("should fail");
        assert_eq!(err.kind(), ErrorKind::Parse);
    }

    #[test]
    fn error_on_tag_without_loop() {
        let toks = lex("fn main() { @t: if (true) { } }").expect("lex");
        assert!(parse(&toks).is_err());
    }

    #[test]
    fn for_loop_components() {
        let p = parse_src("fn main() { for (let i: int = 0; i < 8; i = i + 2) { break; } }");
        match &p.functions[0].body[0].kind {
            StmtKind::For {
                init, step, body, ..
            } => {
                assert!(matches!(init.kind, StmtKind::Let { .. }));
                assert!(matches!(step.kind, StmtKind::Assign { .. }));
                assert!(matches!(body[0].kind, StmtKind::Break));
            }
            other => panic!("expected for, got {other:?}"),
        }
    }
}
