//! Abstract syntax tree for mini-C.
//!
//! Expressions live in one array per program, [`Program::exprs`], and
//! refer to their operands by [`ExprId`], their index there, assigned by
//! the parser; the type checker publishes a side table mapping ids to
//! resolved types (see [`crate::sema::TypeMap`]), which the IR lowering
//! consults.
//!
//! Identifiers are interned: the tree holds a [`Sym`] wherever the source
//! names something, and the program's [`Names`] holds each distinct
//! identifier once. Later stages resolve names through tables indexed by
//! symbol rather than by hashing strings.

use crate::token::Pos;
use std::fmt;

/// Unique id of an expression node within one [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExprId(pub u32);

/// An interned identifier: an index into its program's [`Names`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

impl Sym {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The distinct identifiers of one program, in order of first
/// appearance, stored back to back. Every table starts with the names of
/// the builtins, so builtin `i` of [`crate::sema::BUILTINS`] is `Sym(i)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Names {
    text: String,
    /// End offset of each name in `text`.
    ends: Vec<u32>,
}

impl Default for Names {
    fn default() -> Self {
        let mut names = Names {
            text: String::new(),
            ends: Vec::new(),
        };
        for (name, _, _) in crate::sema::BUILTINS {
            names.push(name);
        }
        names
    }
}

impl Names {
    /// Appends `name` as a new symbol, without looking for an equal one.
    pub(crate) fn push(&mut self, name: &str) -> Sym {
        self.text.push_str(name);
        self.ends.push(self.text.len() as u32);
        Sym(self.ends.len() as u32 - 1)
    }

    /// The identifier `s` stands for.
    pub fn get(&self, s: Sym) -> &str {
        let start = match s.index() {
            0 => 0,
            i => self.ends[i - 1] as usize,
        };
        &self.text[start..self.ends[s.index()] as usize]
    }

    /// Number of symbols, builtins included.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if there are no symbols (never: the builtins are always
    /// there).
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

/// A syntactic type annotation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TyAst {
    /// `int` — 64-bit signed integer.
    Int,
    /// `float` — 64-bit IEEE float.
    Float,
    /// `bool`.
    Bool,
    /// `*T` — pointer to a heap object (struct or heap array).
    Ptr(Box<TyAst>),
    /// `[T; N]` — fixed-size array (locals and globals only).
    Array(Box<TyAst>, usize),
    /// A named struct type. Struct values live on the heap and are always
    /// manipulated through `*Name` pointers; a bare struct type is only legal
    /// under `Ptr` or in `new`.
    Named(Sym),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%` (integers only)
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuit)
    And,
    /// `||` (short-circuit)
    Or,
    /// `&` (integers)
    BitAnd,
    /// `|` (integers)
    BitOr,
    /// `^` (integers)
    BitXor,
    /// `<<` (integers)
    Shl,
    /// `>>` (integers, arithmetic)
    Shr,
}

impl BinOp {
    /// True for the short-circuit logical operators.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Boolean not.
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => write!(f, "-"),
            UnOp::Not => write!(f, "!"),
        }
    }
}

/// An expression node; its id is its index in [`Program::exprs`].
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Source position.
    pub pos: Pos,
    /// The expression itself.
    pub kind: ExprKind,
}

/// Expression variants.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// `true` / `false`.
    BoolLit(bool),
    /// `null` pointer literal.
    NullLit,
    /// Variable reference.
    Var(Sym),
    /// Unary operation.
    Unary(UnOp, ExprId),
    /// Binary operation (including short-circuit `&&`/`||`).
    Binary(BinOp, ExprId, ExprId),
    /// `base[index]` on a fixed array or heap-array pointer.
    Index(ExprId, ExprId),
    /// `base.field` / `base->field` on a struct pointer.
    Field(ExprId, Sym),
    /// Function call `f(args...)`; may resolve to a builtin intrinsic.
    Call(Sym, Vec<ExprId>),
    /// `new Name` — heap-allocate a zeroed struct, yields `*Name`.
    NewStruct(Sym),
    /// `new [T; len]` — heap-allocate a zeroed array of dynamic length,
    /// yields `*T`.
    NewArray(TyAst, ExprId),
    /// `expr as T` numeric cast (int ↔ float).
    Cast(ExprId, TyAst),
}

/// A statement node.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Source position.
    pub pos: Pos,
    /// The statement itself.
    pub kind: StmtKind,
}

/// Statement variants.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `let name: ty = init;` — locals are zero-initialized if `init` is
    /// absent.
    Let {
        /// Variable name.
        name: Sym,
        /// Declared type.
        ty: TyAst,
        /// Optional initializer.
        init: Option<ExprId>,
    },
    /// `lvalue = expr;`
    Assign {
        /// Target lvalue (variable, index or field expression).
        target: ExprId,
        /// Value to store.
        value: ExprId,
    },
    /// Bare expression statement (must be a call).
    Expr(ExprId),
    /// `if (cond) { .. } else { .. }`
    If {
        /// Condition (bool).
        cond: ExprId,
        /// Then branch.
        then_body: Vec<Stmt>,
        /// Else branch (empty when absent).
        else_body: Vec<Stmt>,
    },
    /// `while (cond) { .. }`, optionally tagged `@name: while ...`.
    While {
        /// Optional loop tag used by expert annotations and reports.
        tag: Option<Sym>,
        /// Condition (bool).
        cond: ExprId,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `for (init; cond; step) { .. }`, optionally tagged.
    For {
        /// Optional loop tag.
        tag: Option<Sym>,
        /// Init statement (let or assign), runs once.
        init: Box<Stmt>,
        /// Condition (bool), checked before each iteration.
        cond: ExprId,
        /// Step statement (assign or expr), runs after each iteration.
        step: Box<Stmt>,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `break;` out of the innermost loop.
    Break,
    /// `continue;` to the innermost loop's step/condition.
    Continue,
    /// `return expr?;`
    Return(Option<ExprId>),
    /// `print(args...);` — observable output; marks the containing loop as
    /// having I/O, which excludes it from DCA candidacy (paper §IV-E).
    /// String-literal arguments label output; other arguments are evaluated.
    Print(Vec<PrintArg>),
    /// A nested block `{ .. }` introducing a scope.
    Block(Vec<Stmt>),
}

/// One argument of a `print` statement.
#[derive(Debug, Clone, PartialEq)]
pub enum PrintArg {
    /// A literal label, not evaluated.
    Label(String),
    /// An expression whose value is printed.
    Value(ExprId),
}

/// A struct definition.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDef {
    /// Struct name.
    pub name: Sym,
    /// Field names and types, in declaration order.
    pub fields: Vec<(Sym, TyAst)>,
    /// Source position.
    pub pos: Pos,
}

/// A global variable definition. Globals are zero-initialized; scalar
/// globals may carry a constant initializer.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDef {
    /// Global name.
    pub name: Sym,
    /// Declared type (scalar or fixed array).
    pub ty: TyAst,
    /// Optional constant initializer (scalars only).
    pub init: Option<ExprId>,
    /// Source position.
    pub pos: Pos,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FnDef {
    /// Function name.
    pub name: Sym,
    /// Parameter names and types.
    pub params: Vec<(Sym, TyAst)>,
    /// Return type; `None` for unit functions.
    pub ret: Option<TyAst>,
    /// Function body.
    pub body: Vec<Stmt>,
    /// Source position.
    pub pos: Pos,
}

/// A whole parsed program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Struct definitions.
    pub structs: Vec<StructDef>,
    /// Global definitions.
    pub globals: Vec<GlobalDef>,
    /// Function definitions.
    pub functions: Vec<FnDef>,
    /// Every expression, indexed by [`ExprId`]. An id the parser gave a
    /// parenthesized expression before finding its inner one holds a
    /// `null` nothing refers to.
    pub exprs: Vec<Expr>,
    /// The identifiers the tree's symbols stand for.
    pub names: Names,
}

impl Program {
    /// The expression with id `id`.
    pub fn expr(&self, id: ExprId) -> &Expr {
        &self.exprs[id.0 as usize]
    }

    /// The identifier `s` stands for.
    pub fn name(&self, s: Sym) -> &str {
        self.names.get(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_intern_in_order_after_the_builtins() {
        let mut names = Names::default();
        let base = crate::sema::BUILTINS.len() as u32;
        assert_eq!(names.len(), base as usize);
        assert_eq!(names.get(Sym(0)), crate::sema::BUILTINS[0].0);
        assert_eq!(names.push("node"), Sym(base));
        assert_eq!(names.push("n"), Sym(base + 1));
        assert_eq!(names.get(Sym(base)), "node");
        assert_eq!(names.get(Sym(base + 1)), "n");
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::And.is_logical());
        assert!(!BinOp::BitAnd.is_logical());
    }

    #[test]
    fn program_names_its_symbols() {
        let mut p = Program::default();
        let main = p.names.push("main");
        assert_eq!(p.name(main), "main");
    }
}
