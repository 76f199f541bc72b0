//! Type checker for mini-C.
//!
//! Resolves names, checks types, and produces a [`CheckedProgram`]: the AST
//! plus a [`TypeMap`] giving every expression its resolved [`Ty`] and a
//! resolved struct table. The IR lowering in `dca-ir` consumes this.
//!
//! ## Language rules enforced here
//!
//! * No implicit numeric conversions; use `as` casts.
//! * Struct values live on the heap only: variables, fields and parameters
//!   of struct type must be pointers (`*Name`).
//! * Fixed arrays (`[T; N]`) exist only as locals and globals, cannot be
//!   assigned or passed whole, and have scalar/pointer elements. Heap arrays
//!   (`new [T; n]`) are shared via their pointer.
//! * `null` coerces to any pointer type from context.
//! * `break`/`continue` must be inside a loop; loop tags must be unique
//!   within a function.

use crate::ast::*;
use crate::error::{Error, ErrorKind};
use crate::token::Pos;

/// A resolved (semantic) type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// Boolean.
    Bool,
    /// No value (unit-function call used as a statement).
    Unit,
    /// Pointer to a heap object with the given element/struct type.
    Ptr(Box<Ty>),
    /// Fixed-size array (locals/globals only).
    Array(Box<Ty>, usize),
    /// A struct, by index into [`CheckedProgram::structs`].
    Struct(usize),
    /// The type of a bare `null` with no pointer context; coerces to any
    /// `Ptr`.
    NullPtr,
}

impl Ty {
    /// True for `int`, `float`, `bool` and pointers — the types that fit in
    /// one memory cell.
    pub fn is_scalar(&self) -> bool {
        matches!(
            self,
            Ty::Int | Ty::Float | Ty::Bool | Ty::Ptr(_) | Ty::NullPtr
        )
    }

    /// True if a value of type `self` can be supplied where `target` is
    /// expected (equality, or `null` into any pointer).
    pub fn coerces_to(&self, target: &Ty) -> bool {
        self == target || (matches!(self, Ty::NullPtr) && matches!(target, Ty::Ptr(_)))
    }
}

impl std::fmt::Display for Ty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ty::Int => write!(f, "int"),
            Ty::Float => write!(f, "float"),
            Ty::Bool => write!(f, "bool"),
            Ty::Unit => write!(f, "()"),
            Ty::Ptr(t) => write!(f, "*{t}"),
            Ty::Array(t, n) => write!(f, "[{t}; {n}]"),
            Ty::Struct(i) => write!(f, "struct#{i}"),
            Ty::NullPtr => write!(f, "*_"),
        }
    }
}

/// A resolved struct: name plus field names and types in declaration order.
#[derive(Debug, Clone, PartialEq)]
pub struct StructInfo {
    /// Struct name.
    pub name: String,
    /// Fields in declaration order.
    pub fields: Vec<(String, Ty)>,
}

/// Signature of a function (or builtin).
#[derive(Debug, Clone, PartialEq)]
pub struct FnSig {
    /// Parameter types.
    pub params: Vec<Ty>,
    /// Return type (`Ty::Unit` for none).
    pub ret: Ty,
}

/// Side table mapping every [`ExprId`] to its resolved type.
#[derive(Debug, Clone, Default)]
pub struct TypeMap {
    types: Vec<Option<Ty>>,
}

impl TypeMap {
    fn new(exprs: usize) -> Self {
        TypeMap {
            types: vec![None; exprs],
        }
    }

    fn set(&mut self, id: ExprId, ty: Ty) {
        self.types[id.0 as usize] = Some(ty);
    }

    /// The resolved type of an expression.
    ///
    /// # Panics
    ///
    /// Panics if the expression was never checked (an internal invariant
    /// violation).
    pub fn ty(&self, id: ExprId) -> &Ty {
        self.types[id.0 as usize]
            .as_ref()
            .expect("expression was not type-checked")
    }
}

/// Output of [`check`]: the program plus all resolved type information.
#[derive(Debug, Clone)]
pub struct CheckedProgram {
    /// The (unchanged) AST.
    pub ast: Program,
    /// Expression types.
    pub types: TypeMap,
    /// Resolved structs; `Ty::Struct(i)` indexes this.
    pub structs: Vec<StructInfo>,
    /// Function signatures, in the order of `ast.functions` (user
    /// functions only).
    pub fn_sigs: Vec<FnSig>,
    /// What each symbol names at the top level.
    pub items: Items,
}

/// Per symbol, the index of the struct (into [`CheckedProgram::structs`]),
/// global and function (into the AST's lists) it names, if any.
#[derive(Debug, Clone)]
pub struct Items {
    /// Structs by name.
    pub structs: Vec<Option<usize>>,
    /// Globals by name.
    pub globals: Vec<Option<usize>>,
    /// Functions by name.
    pub funcs: Vec<Option<usize>>,
}

impl Items {
    /// Resolves a type annotation; `names` spells symbols in errors.
    ///
    /// # Errors
    ///
    /// An unknown struct name, or array elements that are not scalars.
    pub fn resolve(&self, t: &TyAst, pos: Pos, names: &Names) -> Result<Ty, Error> {
        Ok(match t {
            TyAst::Int => Ty::Int,
            TyAst::Float => Ty::Float,
            TyAst::Bool => Ty::Bool,
            TyAst::Ptr(inner) => Ty::Ptr(Box::new(self.resolve(inner, pos, names)?)),
            TyAst::Array(elem, n) => {
                let e = self.resolve(elem, pos, names)?;
                if !e.is_scalar() {
                    return Err(err("array elements must be scalar or pointer", pos));
                }
                Ty::Array(Box::new(e), *n)
            }
            TyAst::Named(name) => match self.structs[name.index()] {
                Some(i) => Ty::Struct(i),
                None => return Err(err(format!("unknown type `{}`", names.get(*name)), pos)),
            },
        })
    }
}

/// Lexical scopes of bindings from symbols to `T`, innermost last.
/// Looking a symbol up reads one table slot; leaving a scope undoes its
/// bindings in reverse.
#[derive(Debug, Clone)]
pub struct Scopes<T> {
    /// Per symbol, its innermost binding in `bindings`.
    innermost: Vec<Option<u32>>,
    /// Live bindings, each with the one it shadows.
    bindings: Vec<(Sym, T, Option<u32>)>,
    /// Where each open scope's bindings start.
    starts: Vec<usize>,
}

impl<T> Scopes<T> {
    /// No scope open, for a program of `names` symbols.
    pub fn new(names: usize) -> Self {
        Scopes {
            innermost: vec![None; names],
            bindings: Vec::new(),
            starts: Vec::new(),
        }
    }

    /// Opens a scope.
    pub fn push(&mut self) {
        self.starts.push(self.bindings.len());
    }

    /// Closes the innermost scope, dropping its bindings.
    pub fn pop(&mut self) {
        let start = self.starts.pop().expect("a scope is open");
        for (sym, _, shadowed) in self.bindings.drain(start..).rev() {
            self.innermost[sym.index()] = shadowed;
        }
    }

    /// What `sym` is bound to in the innermost scope binding it.
    pub fn get(&self, sym: Sym) -> Option<&T> {
        let b = self.innermost[sym.index()]?;
        Some(&self.bindings[b as usize].1)
    }

    /// Binds `sym` in the innermost scope, shadowing any earlier
    /// binding; returns false if that scope already bound it.
    pub fn bind(&mut self, sym: Sym, value: T) -> bool {
        let start = *self.starts.last().expect("a scope is open");
        let shadowed = self.innermost[sym.index()];
        self.innermost[sym.index()] = Some(self.bindings.len() as u32);
        self.bindings.push((sym, value, shadowed));
        shadowed.is_none_or(|b| (b as usize) < start)
    }
}

/// Builtin math intrinsics available to programs.
///
/// All are pure (no memory access, no I/O); the IR lowers them to
/// `Intrinsic` instructions rather than calls.
pub const BUILTINS: &[(&str, &[Ty], Ty)] = &[
    ("sqrt", &[Ty::Float], Ty::Float),
    ("sin", &[Ty::Float], Ty::Float),
    ("cos", &[Ty::Float], Ty::Float),
    ("exp", &[Ty::Float], Ty::Float),
    ("log", &[Ty::Float], Ty::Float),
    ("fabs", &[Ty::Float], Ty::Float),
    ("pow", &[Ty::Float, Ty::Float], Ty::Float),
    ("fmin", &[Ty::Float, Ty::Float], Ty::Float),
    ("fmax", &[Ty::Float, Ty::Float], Ty::Float),
    ("iabs", &[Ty::Int], Ty::Int),
    ("imin", &[Ty::Int, Ty::Int], Ty::Int),
    ("imax", &[Ty::Int, Ty::Int], Ty::Int),
];

/// Type-checks a parsed program.
///
/// # Errors
///
/// Returns an [`Error`] with [`ErrorKind::Type`] on the first semantic
/// error (unknown name, type mismatch, misplaced `break`, duplicate
/// definition, ...).
pub fn check(ast: Program) -> Result<CheckedProgram, Error> {
    let mut checker = Checker::new(&ast)?;
    for f in &ast.functions {
        checker.check_fn(f)?;
    }
    Ok(CheckedProgram {
        types: checker.types,
        structs: checker.structs,
        fn_sigs: checker.fn_sigs,
        items: checker.items,
        ast,
    })
}

struct Checker<'p> {
    ast: &'p Program,
    types: TypeMap,
    structs: Vec<StructInfo>,
    fn_sigs: Vec<FnSig>,
    items: Items,
    /// Types of the globals, in `ast.globals` order.
    global_tys: Vec<Ty>,
    /// Locals of the function being checked.
    scopes: Scopes<Ty>,
    /// Return type of the function being checked.
    current_ret: Ty,
    loop_depth: u32,
    seen_tags: Vec<Sym>,
}

fn err(msg: impl Into<String>, pos: Pos) -> Error {
    Error::new(ErrorKind::Type, msg, pos)
}

impl<'p> Checker<'p> {
    fn name(&self, s: Sym) -> &'p str {
        self.ast.names.get(s)
    }

    fn new(ast: &'p Program) -> Result<Self, Error> {
        let n = ast.names.len();
        let mut checker = Checker {
            ast,
            types: TypeMap::new(ast.exprs.len()),
            structs: Vec::new(),
            fn_sigs: Vec::new(),
            items: Items {
                structs: vec![None; n],
                globals: vec![None; n],
                funcs: vec![None; n],
            },
            global_tys: Vec::new(),
            scopes: Scopes::new(n),
            current_ret: Ty::Unit,
            loop_depth: 0,
            seen_tags: Vec::new(),
        };
        // Pass 1: struct names.
        for (i, s) in ast.structs.iter().enumerate() {
            if checker.items.structs[s.name.index()].replace(i).is_some() {
                return Err(err(
                    format!("duplicate struct `{}`", checker.name(s.name)),
                    s.pos,
                ));
            }
        }
        // Pass 2: struct fields (may reference any struct by pointer).
        for s in &ast.structs {
            let mut fields = Vec::new();
            for (i, &(fname, ref fty)) in s.fields.iter().enumerate() {
                let ty = checker.resolve_ty(fty, s.pos)?;
                let (sname, fname_text) = (checker.name(s.name), checker.name(fname));
                if !ty.is_scalar() {
                    return Err(err(
                        format!(
                            "field `{sname}.{fname_text}` must be scalar or pointer, found `{ty}`"
                        ),
                        s.pos,
                    ));
                }
                if s.fields[..i].iter().any(|&(n, _)| n == fname) {
                    return Err(err(
                        format!("duplicate field `{fname_text}` in struct `{sname}`"),
                        s.pos,
                    ));
                }
                fields.push((fname_text.to_owned(), ty));
            }
            checker.structs.push(StructInfo {
                name: checker.name(s.name).to_owned(),
                fields,
            });
        }
        // Pass 3: globals.
        for (i, g) in ast.globals.iter().enumerate() {
            let ty = checker.resolve_ty(&g.ty, g.pos)?;
            let name = checker.name(g.name);
            match &ty {
                Ty::Int | Ty::Float | Ty::Bool | Ty::Ptr(_) => {}
                Ty::Array(elem, _) if elem.is_scalar() => {}
                other => {
                    return Err(err(
                        format!("global `{name}` has unsupported type `{other}`"),
                        g.pos,
                    ))
                }
            }
            if checker.items.globals[g.name.index()].replace(i).is_some() {
                return Err(err(format!("duplicate global `{name}`"), g.pos));
            }
            checker.global_tys.push(ty);
        }
        // Pass 4: function signatures.
        for (i, f) in ast.functions.iter().enumerate() {
            let name = checker.name(f.name);
            if f.name.index() < BUILTINS.len() {
                return Err(err(format!("function `{name}` shadows a builtin"), f.pos));
            }
            let mut params = Vec::new();
            for &(pname, ref pty) in &f.params {
                let ty = checker.resolve_ty(pty, f.pos)?;
                if !ty.is_scalar() {
                    return Err(err(
                        format!(
                            "parameter `{}` of `{name}` must be scalar or pointer",
                            checker.name(pname)
                        ),
                        f.pos,
                    ));
                }
                params.push(ty);
            }
            let ret = match &f.ret {
                None => Ty::Unit,
                Some(t) => {
                    let ty = checker.resolve_ty(t, f.pos)?;
                    if !ty.is_scalar() {
                        return Err(err(
                            format!("return type of `{name}` must be scalar or pointer"),
                            f.pos,
                        ));
                    }
                    ty
                }
            };
            if checker.items.funcs[f.name.index()].replace(i).is_some() {
                return Err(err(format!("duplicate function `{name}`"), f.pos));
            }
            checker.fn_sigs.push(FnSig { params, ret });
        }
        Ok(checker)
    }

    fn resolve_ty(&self, t: &TyAst, pos: Pos) -> Result<Ty, Error> {
        self.items.resolve(t, pos, &self.ast.names)
    }

    fn lookup(&self, name: Sym) -> Option<&Ty> {
        self.scopes
            .get(name)
            .or_else(|| Some(&self.global_tys[self.items.globals[name.index()]?]))
    }

    fn declare(&mut self, name: Sym, ty: Ty, pos: Pos) -> Result<(), Error> {
        if !self.scopes.bind(name, ty) {
            return Err(err(
                format!("duplicate variable `{}` in scope", self.name(name)),
                pos,
            ));
        }
        Ok(())
    }

    fn check_fn(&mut self, f: &FnDef) -> Result<(), Error> {
        self.scopes.push();
        self.seen_tags.clear();
        self.loop_depth = 0;
        for &(pname, ref pty) in &f.params {
            let ty = self.resolve_ty(pty, f.pos)?;
            self.declare(pname, ty, f.pos)?;
        }
        self.current_ret = match &f.ret {
            None => Ty::Unit,
            Some(t) => self.resolve_ty(t, f.pos)?,
        };
        self.check_block(&f.body)?;
        self.scopes.pop();
        Ok(())
    }

    fn check_block(&mut self, body: &[Stmt]) -> Result<(), Error> {
        self.scopes.push();
        for s in body {
            self.check_stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn check_stmt(&mut self, s: &Stmt) -> Result<(), Error> {
        match &s.kind {
            StmtKind::Let {
                name: sym,
                ty,
                init,
            } => {
                let name = self.name(*sym);
                let ty = self.resolve_ty(ty, s.pos)?;
                match &ty {
                    Ty::Int | Ty::Float | Ty::Bool | Ty::Ptr(_) => {}
                    Ty::Array(elem, _) if elem.is_scalar() => {
                        if init.is_some() {
                            return Err(err("array locals cannot have initializers", s.pos));
                        }
                    }
                    other => {
                        return Err(err(
                            format!("local `{name}` has unsupported type `{other}`"),
                            s.pos,
                        ))
                    }
                }
                if let Some(e) = *init {
                    let et = self.check_expr(e, Some(&ty))?;
                    if !et.coerces_to(&ty) {
                        return Err(err(
                            format!("initializer of `{name}` has type `{et}`, expected `{ty}`"),
                            s.pos,
                        ));
                    }
                }
                self.declare(*sym, ty, s.pos)
            }
            StmtKind::Assign { target, value } => {
                let tt = self.check_lvalue(*target)?;
                let vt = self.check_expr(*value, Some(&tt))?;
                if !vt.coerces_to(&tt) {
                    return Err(err(
                        format!("cannot assign `{vt}` to lvalue of type `{tt}`"),
                        s.pos,
                    ));
                }
                Ok(())
            }
            &StmtKind::Expr(e) => {
                if !matches!(self.ast.expr(e).kind, ExprKind::Call(..)) {
                    return Err(err("expression statement must be a call", s.pos));
                }
                self.check_expr(e, None)?;
                Ok(())
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                self.check_cond(*cond)?;
                self.check_block(then_body)?;
                self.check_block(else_body)
            }
            StmtKind::While { tag, cond, body } => {
                self.note_tag(tag, s.pos)?;
                self.check_cond(*cond)?;
                self.loop_depth += 1;
                let r = self.check_block(body);
                self.loop_depth -= 1;
                r
            }
            StmtKind::For {
                tag,
                init,
                cond,
                step,
                body,
            } => {
                self.note_tag(tag, s.pos)?;
                // The induction variable's scope covers cond/step/body.
                self.scopes.push();
                self.check_stmt(init)?;
                self.check_cond(*cond)?;
                self.loop_depth += 1;
                let r = self.check_stmt(step).and_then(|()| self.check_block(body));
                self.loop_depth -= 1;
                self.scopes.pop();
                r
            }
            StmtKind::Break | StmtKind::Continue => {
                if self.loop_depth == 0 {
                    return Err(err("`break`/`continue` outside of a loop", s.pos));
                }
                Ok(())
            }
            StmtKind::Return(value) => match (value, &self.current_ret) {
                (None, Ty::Unit) => Ok(()),
                (None, other) => Err(err(
                    format!("missing return value of type `{other}`"),
                    s.pos,
                )),
                (Some(_), Ty::Unit) => Err(err("returning a value from a unit function", s.pos)),
                (&Some(e), ret) => {
                    let ret = ret.clone();
                    let t = self.check_expr(e, Some(&ret))?;
                    if !t.coerces_to(&ret) {
                        return Err(err(
                            format!("return type `{t}` does not match `{ret}`"),
                            s.pos,
                        ));
                    }
                    Ok(())
                }
            },
            StmtKind::Print(args) => {
                for a in args {
                    if let &PrintArg::Value(e) = a {
                        let t = self.check_expr(e, None)?;
                        if !matches!(t, Ty::Int | Ty::Float | Ty::Bool) {
                            return Err(err(format!("cannot print value of type `{t}`"), s.pos));
                        }
                    }
                }
                Ok(())
            }
            StmtKind::Block(body) => self.check_block(body),
        }
    }

    fn note_tag(&mut self, tag: &Option<Sym>, pos: Pos) -> Result<(), Error> {
        if let Some(t) = *tag {
            if self.seen_tags.contains(&t) {
                return Err(err(format!("duplicate loop tag `@{}`", self.name(t)), pos));
            }
            self.seen_tags.push(t);
        }
        Ok(())
    }

    fn check_cond(&mut self, e: ExprId) -> Result<(), Error> {
        let t = self.check_expr(e, Some(&Ty::Bool))?;
        if t != Ty::Bool {
            let pos = self.ast.expr(e).pos;
            return Err(err(format!("condition must be `bool`, found `{t}`"), pos));
        }
        Ok(())
    }

    fn check_lvalue(&mut self, id: ExprId) -> Result<Ty, Error> {
        let e = self.ast.expr(id);
        match &e.kind {
            ExprKind::Var(_) | ExprKind::Index(..) | ExprKind::Field(..) => {
                let t = self.check_expr(id, None)?;
                if let Ty::Array(..) = t {
                    return Err(err("cannot assign to a whole array", e.pos));
                }
                Ok(t)
            }
            _ => Err(err("invalid assignment target", e.pos)),
        }
    }

    fn check_expr(&mut self, e: ExprId, expected: Option<&Ty>) -> Result<Ty, Error> {
        let ty = self.expr_ty(self.ast.expr(e), expected)?;
        self.types.set(e, ty.clone());
        Ok(ty)
    }

    fn expr_ty(&mut self, e: &'p Expr, expected: Option<&Ty>) -> Result<Ty, Error> {
        match &e.kind {
            ExprKind::IntLit(_) => Ok(Ty::Int),
            ExprKind::FloatLit(_) => Ok(Ty::Float),
            ExprKind::BoolLit(_) => Ok(Ty::Bool),
            ExprKind::NullLit => match expected {
                Some(t @ Ty::Ptr(_)) => Ok(t.clone()),
                _ => Ok(Ty::NullPtr),
            },
            ExprKind::Var(name) => match self.lookup(*name) {
                Some(t) => Ok(t.clone()),
                None => Err(err(
                    format!("unknown variable `{}`", self.name(*name)),
                    e.pos,
                )),
            },
            ExprKind::Unary(op, a) => {
                let t = self.check_expr(*a, None)?;
                match (op, &t) {
                    (UnOp::Neg, Ty::Int) | (UnOp::Neg, Ty::Float) => Ok(t),
                    (UnOp::Not, Ty::Bool) => Ok(Ty::Bool),
                    _ => Err(err(format!("cannot apply `{op}` to `{t}`"), e.pos)),
                }
            }
            ExprKind::Binary(op, a, b) => self.binary_ty(*op, *a, *b, e.pos),
            ExprKind::Index(base, idx) => {
                let bt = self.check_expr(*base, None)?;
                let it = self.check_expr(*idx, None)?;
                if it != Ty::Int {
                    return Err(err(format!("index must be `int`, found `{it}`"), e.pos));
                }
                match bt {
                    Ty::Array(elem, _) => Ok(*elem),
                    Ty::Ptr(elem) if elem.is_scalar() => Ok(*elem),
                    other => Err(err(format!("cannot index into `{other}`"), e.pos)),
                }
            }
            ExprKind::Field(base, fname) => {
                let bt = self.check_expr(*base, None)?;
                let sid = match bt {
                    Ty::Ptr(inner) => match *inner {
                        Ty::Struct(i) => i,
                        other => {
                            return Err(err(
                                format!("field access on non-struct pointer `*{other}`"),
                                e.pos,
                            ))
                        }
                    },
                    other => {
                        return Err(err(
                            format!("field access requires a struct pointer, found `{other}`"),
                            e.pos,
                        ))
                    }
                };
                let fields = &self.ast.structs[sid].fields;
                match fields.iter().position(|(n, _)| n == fname) {
                    Some(i) => Ok(self.structs[sid].fields[i].1.clone()),
                    None => Err(err(
                        format!(
                            "struct `{}` has no field `{}`",
                            self.structs[sid].name,
                            self.name(*fname)
                        ),
                        e.pos,
                    )),
                }
            }
            ExprKind::Call(sym, args) => {
                let name = self.name(*sym);
                if let Some((_, ptys, ret)) = BUILTINS.get(sym.index()) {
                    if args.len() != ptys.len() {
                        return Err(err(
                            format!("builtin `{name}` expects {} arguments", ptys.len()),
                            e.pos,
                        ));
                    }
                    for (a, pt) in args.iter().zip(ptys.iter()) {
                        let at = self.check_expr(*a, Some(pt))?;
                        if !at.coerces_to(pt) {
                            return Err(err(
                                format!("argument of `{name}` has type `{at}`, expected `{pt}`"),
                                self.ast.expr(*a).pos,
                            ));
                        }
                    }
                    return Ok(ret.clone());
                }
                let Some(f) = self.items.funcs[sym.index()] else {
                    return Err(err(format!("unknown function `{name}`"), e.pos));
                };
                let params = self.fn_sigs[f].params.len();
                if args.len() != params {
                    return Err(err(
                        format!("`{name}` expects {params} arguments, found {}", args.len()),
                        e.pos,
                    ));
                }
                for (i, a) in args.iter().enumerate() {
                    let pt = self.fn_sigs[f].params[i].clone();
                    let at = self.check_expr(*a, Some(&pt))?;
                    if !at.coerces_to(&pt) {
                        return Err(err(
                            format!("argument of `{name}` has type `{at}`, expected `{pt}`"),
                            self.ast.expr(*a).pos,
                        ));
                    }
                }
                Ok(self.fn_sigs[f].ret.clone())
            }
            ExprKind::NewStruct(name) => match self.items.structs[name.index()] {
                Some(i) => Ok(Ty::Ptr(Box::new(Ty::Struct(i)))),
                None => Err(err(format!("unknown struct `{}`", self.name(*name)), e.pos)),
            },
            ExprKind::NewArray(elem, len) => {
                let et = self.resolve_ty(elem, e.pos)?;
                if !et.is_scalar() {
                    return Err(err("heap array elements must be scalar or pointer", e.pos));
                }
                let lt = self.check_expr(*len, None)?;
                if lt != Ty::Int {
                    return Err(err(
                        format!("array length must be `int`, found `{lt}`"),
                        e.pos,
                    ));
                }
                Ok(Ty::Ptr(Box::new(et)))
            }
            ExprKind::Cast(inner, to) => {
                let to = self.resolve_ty(to, e.pos)?;
                let from = self.check_expr(*inner, None)?;
                match (&from, &to) {
                    (Ty::Int, Ty::Float)
                    | (Ty::Float, Ty::Int)
                    | (Ty::Int, Ty::Int)
                    | (Ty::Float, Ty::Float) => Ok(to),
                    _ => Err(err(format!("cannot cast `{from}` to `{to}`"), e.pos)),
                }
            }
        }
    }

    fn binary_ty(&mut self, op: BinOp, a: ExprId, b: ExprId, pos: Pos) -> Result<Ty, Error> {
        use BinOp::*;
        let at = self.check_expr(a, None)?;
        // Let `p == null` see the pointer type from the left side.
        let bt = self.check_expr(b, Some(&at))?;
        match op {
            Add | Sub | Mul | Div => match (&at, &bt) {
                (Ty::Int, Ty::Int) => Ok(Ty::Int),
                (Ty::Float, Ty::Float) => Ok(Ty::Float),
                _ => Err(err(
                    format!("cannot apply `{op}` to `{at}` and `{bt}`"),
                    pos,
                )),
            },
            Rem | BitAnd | BitOr | BitXor | Shl | Shr => {
                if at == Ty::Int && bt == Ty::Int {
                    Ok(Ty::Int)
                } else {
                    Err(err(
                        format!("`{op}` requires `int` operands, found `{at}` and `{bt}`"),
                        pos,
                    ))
                }
            }
            Lt | Le | Gt | Ge => match (&at, &bt) {
                (Ty::Int, Ty::Int) | (Ty::Float, Ty::Float) => Ok(Ty::Bool),
                _ => Err(err(
                    format!("cannot compare `{at}` and `{bt}` with `{op}`"),
                    pos,
                )),
            },
            Eq | Ne => {
                let ok = matches!(
                    (&at, &bt),
                    (Ty::Int, Ty::Int)
                        | (Ty::Float, Ty::Float)
                        | (Ty::Bool, Ty::Bool)
                        | (Ty::Ptr(_), Ty::Ptr(_))
                        | (Ty::Ptr(_), Ty::NullPtr)
                        | (Ty::NullPtr, Ty::Ptr(_))
                        | (Ty::NullPtr, Ty::NullPtr)
                ) && (!matches!((&at, &bt), (Ty::Ptr(x), Ty::Ptr(y)) if x != y));
                if ok {
                    Ok(Ty::Bool)
                } else {
                    Err(err(
                        format!("cannot compare `{at}` and `{bt}` for equality"),
                        pos,
                    ))
                }
            }
            And | Or => {
                if at == Ty::Bool && bt == Ty::Bool {
                    Ok(Ty::Bool)
                } else {
                    Err(err(
                        format!("`{op}` requires `bool` operands, found `{at}` and `{bt}`"),
                        pos,
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lex, parse};

    fn check_src(src: &str) -> Result<CheckedProgram, Error> {
        check(parse(&lex(src).expect("lex")).expect("parse"))
    }

    fn ok(src: &str) -> CheckedProgram {
        check_src(src).expect("should type-check")
    }

    fn fails(src: &str) -> Error {
        let e = check_src(src).expect_err("should fail to type-check");
        assert_eq!(e.kind(), ErrorKind::Type);
        e
    }

    #[test]
    fn simple_function_checks() {
        ok("fn main() -> int { let x: int = 1; return x + 2; }");
    }

    #[test]
    fn no_implicit_numeric_conversion() {
        let e = fails("fn main() -> float { return 1; }");
        assert!(e.message().contains("return type"));
        fails("fn main() -> int { let x: float = 0.0; return 1 + x; }");
        ok("fn main() -> float { let x: int = 3; return x as float * 2.0; }");
    }

    #[test]
    fn struct_and_field_access() {
        ok("struct Node { val: int, next: *Node }\n\
             fn main() -> int { let p: *Node = new Node; p.val = 3; \
             p.next = null; return p.val; }");
        let e = fails(
            "struct Node { val: int }\n\
             fn main() -> int { let p: *Node = new Node; return p.bad; }",
        );
        assert!(e.message().contains("no field"));
    }

    #[test]
    fn null_coerces_to_pointer_contexts() {
        ok("struct N { next: *N }\n\
             fn take(p: *N) { }\n\
             fn main() { let p: *N = null; take(null); \
             if (p == null) { } while (p != null) { p = p.next; } }");
    }

    #[test]
    fn index_rules() {
        ok("fn main() -> int { let a: [int; 4]; a[0] = 1; return a[0]; }");
        ok("fn main() -> int { let a: *int = new [int; 10]; a[5] = 2; return a[5]; }");
        fails("fn main() -> int { let a: [int; 4]; return a[1.0 as int + a[0.5]]; }");
        let e = fails("fn main() -> int { let x: int = 3; return x[0]; }");
        assert!(e.message().contains("cannot index"));
    }

    #[test]
    fn whole_array_assignment_rejected() {
        let e = fails("fn main() { let a: [int; 2]; let b: [int; 2]; a = b; }");
        assert!(e.message().contains("whole array"));
    }

    #[test]
    fn break_outside_loop_rejected() {
        fails("fn main() { break; }");
        ok("fn main() { while (true) { break; } }");
    }

    #[test]
    fn duplicate_loop_tags_rejected() {
        fails("fn main() { @a: while (false) { } @a: while (false) { } }");
    }

    #[test]
    fn condition_must_be_bool() {
        let e = fails("fn main() { while (1) { } }");
        assert!(e.message().contains("bool"));
    }

    #[test]
    fn builtins_check() {
        ok("fn main() -> float { return sqrt(2.0) + pow(2.0, 10.0); }");
        fails("fn main() -> float { return sqrt(2); }");
        fails("fn sqrt(x: float) -> float { return x; }");
    }

    #[test]
    fn call_arity_and_types() {
        let e = fails("fn f(x: int) -> int { return x; } fn main() { f(1, 2); }");
        assert!(e.message().contains("expects 1 arguments"));
        fails("fn f(x: int) -> int { return x; } fn main() { f(1.5); }");
    }

    #[test]
    fn expression_types_recorded() {
        let p = ok("fn main() -> int { return 1 + 2; }");
        // Every expression in this tiny program got a type.
        let mut found_int = 0;
        for id in 0..p.ast.exprs.len() as u32 {
            if *p.types.ty(ExprId(id)) == Ty::Int {
                found_int += 1;
            }
        }
        assert_eq!(found_int, 3); // 1, 2, and 1+2
    }

    #[test]
    fn shadowing_in_nested_scope_allowed() {
        ok("fn main() { let x: int = 1; { let x: float = 2.0; x = x + 1.0; } x = x + 1; }");
        fails("fn main() { let x: int = 1; let x: int = 2; }");
    }

    #[test]
    fn for_scope_covers_header_and_body() {
        ok("fn main() -> int { let s: int = 0; \
            for (let i: int = 0; i < 3; i = i + 1) { s = s + i; } return s; }");
        // `i` does not leak out of the for.
        fails("fn main() -> int { for (let i: int = 0; i < 3; i = i + 1) { } return i; }");
    }

    #[test]
    fn unit_calls_only_as_statements() {
        ok("fn go() { } fn main() { go(); }");
        fails("fn go() { } fn main() { let x: int = go(); }");
    }

    #[test]
    fn print_rules() {
        ok(r#"fn main() { print("x", 1, 2.0, true); }"#);
        fails(r#"struct N { v: int } fn main() { let p: *N = new N; print(p); }"#);
    }

    #[test]
    fn pointer_equality_requires_same_pointee() {
        fails(
            "struct A { v: int } struct B { v: int } \
             fn main() { let a: *A = new A; let b: *B = new B; if (a == b) { } }",
        );
    }

    #[test]
    fn heap_array_of_pointers() {
        ok("struct N { v: int }\n\
             fn main() { let a: **N = new [*N; 8]; a[0] = new N; a[0].v = 1; }");
    }
}
