//! Lowering from the checked AST to IR.
//!
//! Each function is lowered to a CFG of basic blocks. Short-circuit `&&` and
//! `||` become control flow; `for`/`while` loops become the canonical
//! header/body/latch shape whose back edge targets the condition block, so
//! natural-loop detection recovers exactly the source loops. Source loop
//! tags (`@name:`) are recorded against the header block. Names resolve
//! through tables indexed by the AST's symbols.

use crate::module::*;
use dca_lang::ast::{self, ExprId, ExprKind, PrintArg, Program, Stmt, StmtKind, Sym};
use dca_lang::sema::{CheckedProgram, Scopes, Ty};
use dca_lang::{Error, ErrorKind};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Lowers a checked program to an IR [`Module`].
///
/// # Errors
///
/// Returns an error for constructs the IR cannot represent (currently only
/// non-constant global initializers).
pub fn lower(prog: &CheckedProgram) -> Result<Module, Error> {
    let mut globals = Vec::new();
    for g in &prog.ast.globals {
        let init = match g.init {
            None => None,
            Some(e) => Some(const_operand(&prog.ast, e)?),
        };
        globals.push(GlobalInfo {
            name: prog.ast.name(g.name).to_owned(),
            ty: resolve(prog, &g.ty),
            init,
        });
    }
    let mut funcs = Vec::new();
    for (f, sig) in prog.ast.functions.iter().zip(&prog.fn_sigs) {
        funcs.push(FnLower::new(prog, f).run(sig)?);
    }
    Ok(Module::new(prog.structs.clone(), globals, funcs))
}

fn const_operand(ast: &Program, id: ExprId) -> Result<Operand, Error> {
    let e = ast.expr(id);
    match &e.kind {
        ExprKind::IntLit(v) => Ok(Operand::ConstInt(*v)),
        ExprKind::FloatLit(v) => Ok(Operand::ConstFloat(*v)),
        ExprKind::BoolLit(v) => Ok(Operand::ConstBool(*v)),
        ExprKind::NullLit => Ok(Operand::Null),
        ExprKind::Unary(ast::UnOp::Neg, inner) => match const_operand(ast, *inner)? {
            Operand::ConstInt(v) => Ok(Operand::ConstInt(-v)),
            Operand::ConstFloat(v) => Ok(Operand::ConstFloat(-v)),
            _ => Err(Error::new(
                ErrorKind::Type,
                "global initializer must be a numeric constant",
                e.pos,
            )),
        },
        _ => Err(Error::new(
            ErrorKind::Type,
            "global initializer must be a constant literal",
            e.pos,
        )),
    }
}

fn resolve(prog: &CheckedProgram, t: &ast::TyAst) -> Ty {
    let names = &prog.ast.names;
    let ty = prog.items.resolve(t, Default::default(), names);
    ty.expect("checker resolved every type")
}

/// Where `break` and `continue` jump inside the innermost loop.
struct LoopCtx {
    continue_to: BlockId,
    break_to: BlockId,
}

struct FnLower<'a> {
    prog: &'a CheckedProgram,
    src: &'a ast::FnDef,
    vars: Vec<VarInfo>,
    scopes: Scopes<VarId>,
    blocks: Vec<(Vec<Inst>, Option<Terminator>)>,
    cur: BlockId,
    loops: Vec<LoopCtx>,
    loop_tags: HashMap<BlockId, String>,
    temp_count: u32,
}

impl<'a> FnLower<'a> {
    fn new(prog: &'a CheckedProgram, src: &'a ast::FnDef) -> Self {
        let mut scopes = Scopes::new(prog.ast.names.len());
        scopes.push();
        FnLower {
            prog,
            src,
            vars: Vec::new(),
            scopes,
            blocks: vec![(Vec::new(), None)],
            cur: BlockId(0),
            loops: Vec::new(),
            loop_tags: HashMap::new(),
            temp_count: 0,
        }
    }

    fn run(mut self, sig: &dca_lang::sema::FnSig) -> Result<Function, Error> {
        let mut params = Vec::new();
        for (&(pname, _), ty) in self.src.params.iter().zip(&sig.params) {
            params.push(self.named_var(pname, ty.clone()));
        }
        for s in &self.src.body {
            self.stmt(s)?;
        }
        let ret = sig.ret.clone();
        // Implicit return with a zero value if control falls off the end.
        if self.blocks[self.cur.index()].1.is_none() {
            let value = match &ret {
                Ty::Unit => None,
                Ty::Int => Some(Operand::ConstInt(0)),
                Ty::Float => Some(Operand::ConstFloat(0.0)),
                Ty::Bool => Some(Operand::ConstBool(false)),
                _ => Some(Operand::Null),
            };
            self.term(Terminator::Return(value));
        }
        let mut f = Function {
            name: self.prog.ast.name(self.src.name).to_owned(),
            params,
            ret,
            vars: self.vars,
            blocks: self
                .blocks
                .into_iter()
                .map(|(insts, term)| Block {
                    insts,
                    term: term.unwrap_or(Terminator::Return(None)),
                })
                .collect(),
            loop_tags: self.loop_tags,
        };
        prune_unreachable(&mut f);
        Ok(f)
    }

    // ---- building helpers --------------------------------------------------

    fn new_var(&mut self, name: String, ty: Ty, is_temp: bool) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo { name, ty, is_temp });
        id
    }

    /// A source variable, bound in the innermost scope.
    fn named_var(&mut self, name: Sym, ty: Ty) -> VarId {
        let id = self.new_var(self.prog.ast.name(name).to_owned(), ty, false);
        self.scopes.bind(name, id);
        id
    }

    /// A temporary of `e`'s type.
    fn temp_of(&mut self, e: ExprId) -> VarId {
        self.temp(self.expr_ty(e).clone())
    }

    fn temp(&mut self, ty: Ty) -> VarId {
        // Sized for any `u32`, so that writing the number does not grow it.
        let mut name = String::with_capacity(11);
        let _ = write!(name, "t{}", self.temp_count);
        self.temp_count += 1;
        self.new_var(name, ty, true)
    }

    fn emit(&mut self, inst: Inst) {
        let b = &mut self.blocks[self.cur.index()];
        debug_assert!(b.1.is_none(), "emitting into a terminated block");
        b.0.push(inst);
    }

    fn term(&mut self, t: Terminator) {
        let b = &mut self.blocks[self.cur.index()];
        if b.1.is_none() {
            b.1 = Some(t);
        }
    }

    fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push((Vec::new(), None));
        id
    }

    fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
    }

    fn tag(&mut self, header: BlockId, tag: &Option<Sym>) {
        if let Some(t) = *tag {
            self.loop_tags
                .insert(header, self.prog.ast.name(t).to_owned());
        }
    }

    fn lookup(&self, name: Sym) -> Option<VarId> {
        self.scopes.get(name).copied()
    }

    fn global(&self, name: Sym) -> GlobalId {
        let g = self.prog.items.globals[name.index()];
        GlobalId(g.expect("checker resolved global names") as u32)
    }

    fn func(&self, name: Sym) -> FuncId {
        let f = self.prog.items.funcs[name.index()];
        FuncId(f.expect("checker resolved function names") as u32)
    }

    /// The intrinsic a called name stands for, if it is a builtin.
    fn intrinsic(&self, name: Sym) -> Option<Intrinsic> {
        let builtin = name.index() < dca_lang::sema::BUILTINS.len();
        builtin.then(|| {
            Intrinsic::from_name(self.prog.ast.name(name)).expect("builtins are intrinsics")
        })
    }

    fn expr_ty(&self, e: ExprId) -> &Ty {
        self.prog.types.ty(e)
    }

    // ---- statements ---------------------------------------------------------

    fn block_stmts(&mut self, body: &[Stmt]) -> Result<(), Error> {
        self.scopes.push();
        for s in body {
            self.stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), Error> {
        match &s.kind {
            StmtKind::Let { name, ty, init } => {
                let ty = resolve(self.prog, ty);
                let init_op = match init {
                    Some(e) => Some(self.expr(*e)?),
                    None => None,
                };
                let v = self.named_var(*name, ty.clone());
                let op = init_op.unwrap_or(match &ty {
                    Ty::Int => Operand::ConstInt(0),
                    Ty::Float => Operand::ConstFloat(0.0),
                    Ty::Bool => Operand::ConstBool(false),
                    _ => Operand::Null,
                });
                if !matches!(ty, Ty::Array(..)) {
                    self.emit(Inst::Copy { dst: v, src: op });
                }
                Ok(())
            }
            StmtKind::Assign { target, value } => {
                let v = self.expr(*value)?;
                self.assign(*target, v)
            }
            StmtKind::Expr(e) => {
                self.expr(*e)?;
                Ok(())
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.expr(*cond)?;
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                let join = self.new_block();
                self.term(Terminator::Branch {
                    cond: c,
                    then_bb,
                    else_bb,
                });
                self.switch_to(then_bb);
                self.block_stmts(then_body)?;
                self.term(Terminator::Jump(join));
                self.switch_to(else_bb);
                self.block_stmts(else_body)?;
                self.term(Terminator::Jump(join));
                self.switch_to(join);
                Ok(())
            }
            StmtKind::While { tag, cond, body } => self.loop_stmt(tag, *cond, None, body),
            StmtKind::For {
                tag,
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push();
                self.stmt(init)?;
                self.loop_stmt(tag, *cond, Some(step), body)?;
                self.scopes.pop();
                Ok(())
            }
            StmtKind::Break | StmtKind::Continue => {
                let ctx = self
                    .loops
                    .last()
                    .expect("checker verified break/continue is inside a loop");
                let target = match s.kind {
                    StmtKind::Break => ctx.break_to,
                    _ => ctx.continue_to,
                };
                self.end_block(Terminator::Jump(target));
                Ok(())
            }
            StmtKind::Return(value) => {
                let op = match value {
                    Some(e) => Some(self.expr(*e)?),
                    None => None,
                };
                self.end_block(Terminator::Return(op));
                Ok(())
            }
            StmtKind::Print(args) => {
                let mut ops = Vec::new();
                for a in args {
                    match a {
                        PrintArg::Label(s) => ops.push(PrintOp::Label(s.clone())),
                        PrintArg::Value(e) => {
                            let v = self.expr(*e)?;
                            ops.push(PrintOp::Value(v));
                        }
                    }
                }
                self.emit(Inst::Print { args: ops });
                Ok(())
            }
            StmtKind::Block(body) => self.block_stmts(body),
        }
    }

    /// Ends the current block with `t`; code after it lands in a fresh
    /// block that nothing reaches.
    fn end_block(&mut self, t: Terminator) {
        self.term(t);
        let dead = self.new_block();
        self.switch_to(dead);
    }

    /// A loop: the header evaluates `cond`, the body runs, then `step`
    /// (if any) in a block of its own, which `continue` targets, and the
    /// back edge returns to the header.
    fn loop_stmt(
        &mut self,
        tag: &Option<Sym>,
        cond: ExprId,
        step: Option<&Stmt>,
        body: &[Stmt],
    ) -> Result<(), Error> {
        let header = self.new_block();
        let exit = self.new_block();
        self.tag(header, tag);
        self.term(Terminator::Jump(header));
        self.switch_to(header);
        let c = self.expr(cond)?;
        let body_bb = self.new_block();
        let continue_to = match step {
            Some(_) => self.new_block(),
            None => header,
        };
        self.term(Terminator::Branch {
            cond: c,
            then_bb: body_bb,
            else_bb: exit,
        });
        self.switch_to(body_bb);
        self.loops.push(LoopCtx {
            continue_to,
            break_to: exit,
        });
        self.block_stmts(body)?;
        self.loops.pop();
        self.term(Terminator::Jump(continue_to));
        if let Some(step) = step {
            self.switch_to(continue_to);
            self.stmt(step)?;
            self.term(Terminator::Jump(header));
        }
        self.switch_to(exit);
        Ok(())
    }

    fn assign(&mut self, target: ExprId, value: Operand) -> Result<(), Error> {
        match &self.prog.ast.expr(target).kind {
            ExprKind::Var(name) => {
                if let Some(v) = self.lookup(*name) {
                    self.emit(Inst::Copy { dst: v, src: value });
                } else {
                    let g = self.global(*name);
                    self.emit(Inst::StoreGlobal { global: g, value });
                }
                Ok(())
            }
            ExprKind::Index(base, idx) => {
                let b = self.index_base(*base)?;
                let i = self.expr(*idx)?;
                self.emit(Inst::StoreIndex {
                    base: b,
                    index: i,
                    value,
                });
                Ok(())
            }
            ExprKind::Field(base, fname) => {
                let (obj, field) = self.field_ref(*base, *fname)?;
                self.emit(Inst::StoreField { obj, field, value });
                Ok(())
            }
            _ => unreachable!("checker verified lvalue shape"),
        }
    }

    fn field_ref(&mut self, base: ExprId, fname: Sym) -> Result<(Operand, u32), Error> {
        let sid = match self.expr_ty(base) {
            Ty::Ptr(inner) => match inner.as_ref() {
                Ty::Struct(i) => *i,
                _ => unreachable!("checker verified struct pointer"),
            },
            _ => unreachable!("checker verified struct pointer"),
        };
        let field = self.prog.ast.structs[sid]
            .fields
            .iter()
            .position(|&(n, _)| n == fname)
            .expect("checker resolved field") as u32;
        let obj = self.expr(base)?;
        Ok((obj, field))
    }

    fn index_base(&mut self, base: ExprId) -> Result<MemBase, Error> {
        if let ExprKind::Var(name) = self.prog.ast.expr(base).kind {
            if let Some(v) = self.lookup(name) {
                return Ok(MemBase::Var(v));
            }
            let g = self.global(name);
            match self.expr_ty(base) {
                Ty::Array(..) => return Ok(MemBase::Global(g)),
                _ => {
                    // A scalar pointer global: load it first.
                    let t = self.temp_of(base);
                    self.emit(Inst::LoadGlobal { dst: t, global: g });
                    return Ok(MemBase::Var(t));
                }
            }
        }
        // Arbitrary pointer-valued expression.
        let op = self.expr(base)?;
        match op {
            Operand::Var(v) => Ok(MemBase::Var(v)),
            other => {
                let t = self.temp_of(base);
                self.emit(Inst::Copy { dst: t, src: other });
                Ok(MemBase::Var(t))
            }
        }
    }

    // ---- expressions ---------------------------------------------------------

    fn expr(&mut self, e: ExprId) -> Result<Operand, Error> {
        match &self.prog.ast.expr(e).kind {
            ExprKind::IntLit(v) => Ok(Operand::ConstInt(*v)),
            ExprKind::FloatLit(v) => Ok(Operand::ConstFloat(*v)),
            ExprKind::BoolLit(v) => Ok(Operand::ConstBool(*v)),
            ExprKind::NullLit => Ok(Operand::Null),
            ExprKind::Var(name) => {
                if let Some(v) = self.lookup(*name) {
                    Ok(Operand::Var(v))
                } else {
                    let g = self.global(*name);
                    let t = self.temp_of(e);
                    self.emit(Inst::LoadGlobal { dst: t, global: g });
                    Ok(Operand::Var(t))
                }
            }
            ExprKind::Unary(op, a) => {
                let av = self.expr(*a)?;
                let t = self.temp_of(e);
                let op = match op {
                    ast::UnOp::Neg => UnOp::Neg,
                    ast::UnOp::Not => UnOp::Not,
                };
                self.emit(Inst::Un { dst: t, op, a: av });
                Ok(Operand::Var(t))
            }
            ExprKind::Binary(op, a, b) if op.is_logical() => self.short_circuit(*op, *a, *b),
            ExprKind::Binary(op, a, b) => {
                let av = self.expr(*a)?;
                let bv = self.expr(*b)?;
                let t = self.temp_of(e);
                let op = lower_binop(*op);
                self.emit(Inst::Bin {
                    dst: t,
                    op,
                    a: av,
                    b: bv,
                });
                Ok(Operand::Var(t))
            }
            ExprKind::Index(base, idx) => {
                let b = self.index_base(*base)?;
                let i = self.expr(*idx)?;
                let t = self.temp_of(e);
                self.emit(Inst::LoadIndex {
                    dst: t,
                    base: b,
                    index: i,
                });
                Ok(Operand::Var(t))
            }
            ExprKind::Field(base, fname) => {
                let (obj, field) = self.field_ref(*base, *fname)?;
                let t = self.temp_of(e);
                self.emit(Inst::LoadField { dst: t, obj, field });
                Ok(Operand::Var(t))
            }
            ExprKind::Call(name, args) => {
                let mut ops = Vec::new();
                for a in args {
                    ops.push(self.expr(*a)?);
                }
                if let Some(intr) = self.intrinsic(*name) {
                    let t = self.temp_of(e);
                    self.emit(Inst::Intrin {
                        dst: t,
                        op: intr,
                        args: ops,
                    });
                    return Ok(Operand::Var(t));
                }
                let func = self.func(*name);
                let dst = match self.expr_ty(e) {
                    Ty::Unit => None,
                    _ => Some(self.temp_of(e)),
                };
                self.emit(Inst::Call {
                    dst,
                    func,
                    args: ops,
                });
                Ok(dst.map(Operand::Var).unwrap_or(Operand::ConstInt(0)))
            }
            ExprKind::NewStruct(name) => {
                let sid = self.prog.items.structs[name.index()].expect("checker resolved struct");
                let t = self.temp_of(e);
                self.emit(Inst::AllocStruct {
                    dst: t,
                    sid: StructId(sid as u32),
                });
                Ok(Operand::Var(t))
            }
            ExprKind::NewArray(_, len) => {
                let l = self.expr(*len)?;
                let t = self.temp_of(e);
                self.emit(Inst::AllocArray { dst: t, len: l });
                Ok(Operand::Var(t))
            }
            ExprKind::Cast(inner, _) => {
                let iv = self.expr(*inner)?;
                let op = match (self.expr_ty(*inner), self.expr_ty(e)) {
                    (from, to) if from == to => return Ok(iv),
                    (Ty::Int, Ty::Float) => Intrinsic::IntToFloat,
                    (Ty::Float, Ty::Int) => Intrinsic::FloatToInt,
                    _ => unreachable!("checker verified cast"),
                };
                let t = self.temp_of(e);
                self.emit(Inst::Intrin {
                    dst: t,
                    op,
                    args: vec![iv],
                });
                Ok(Operand::Var(t))
            }
        }
    }

    fn short_circuit(&mut self, op: ast::BinOp, a: ExprId, b: ExprId) -> Result<Operand, Error> {
        let t = self.temp(Ty::Bool);
        let av = self.expr(a)?;
        let rhs_bb = self.new_block();
        let short_bb = self.new_block();
        let join = self.new_block();
        match op {
            ast::BinOp::And => self.term(Terminator::Branch {
                cond: av,
                then_bb: rhs_bb,
                else_bb: short_bb,
            }),
            ast::BinOp::Or => self.term(Terminator::Branch {
                cond: av,
                then_bb: short_bb,
                else_bb: rhs_bb,
            }),
            _ => unreachable!("only logical ops are short-circuit"),
        }
        self.switch_to(rhs_bb);
        let bv = self.expr(b)?;
        self.emit(Inst::Copy { dst: t, src: bv });
        self.term(Terminator::Jump(join));
        self.switch_to(short_bb);
        let short_value = Operand::ConstBool(matches!(op, ast::BinOp::Or));
        self.emit(Inst::Copy {
            dst: t,
            src: short_value,
        });
        self.term(Terminator::Jump(join));
        self.switch_to(join);
        Ok(Operand::Var(t))
    }
}

fn lower_binop(op: ast::BinOp) -> BinOp {
    match op {
        ast::BinOp::Add => BinOp::Add,
        ast::BinOp::Sub => BinOp::Sub,
        ast::BinOp::Mul => BinOp::Mul,
        ast::BinOp::Div => BinOp::Div,
        ast::BinOp::Rem => BinOp::Rem,
        ast::BinOp::Eq => BinOp::Eq,
        ast::BinOp::Ne => BinOp::Ne,
        ast::BinOp::Lt => BinOp::Lt,
        ast::BinOp::Le => BinOp::Le,
        ast::BinOp::Gt => BinOp::Gt,
        ast::BinOp::Ge => BinOp::Ge,
        ast::BinOp::BitAnd => BinOp::BitAnd,
        ast::BinOp::BitOr => BinOp::BitOr,
        ast::BinOp::BitXor => BinOp::BitXor,
        ast::BinOp::Shl => BinOp::Shl,
        ast::BinOp::Shr => BinOp::Shr,
        ast::BinOp::And | ast::BinOp::Or => {
            unreachable!("logical operators lower to control flow")
        }
    }
}

/// Removes blocks unreachable from the entry and compacts block ids.
fn prune_unreachable(f: &mut Function) {
    let n = f.blocks.len();
    let mut reachable = vec![false; n];
    let mut stack = vec![BlockId(0)];
    while let Some(b) = stack.pop() {
        if reachable[b.index()] {
            continue;
        }
        reachable[b.index()] = true;
        for s in f.blocks[b.index()].term.successors() {
            stack.push(s);
        }
    }
    if reachable.iter().all(|&r| r) {
        return;
    }
    let mut remap = vec![None; n];
    let mut next = 0u32;
    for i in 0..n {
        if reachable[i] {
            remap[i] = Some(BlockId(next));
            next += 1;
        }
    }
    let map = |b: BlockId| remap[b.index()].expect("successor of reachable block is reachable");
    let mut blocks = Vec::with_capacity(next as usize);
    for (i, mut b) in std::mem::take(&mut f.blocks).into_iter().enumerate() {
        if !reachable[i] {
            continue;
        }
        b.term = match b.term {
            Terminator::Jump(t) => Terminator::Jump(map(t)),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => Terminator::Branch {
                cond,
                then_bb: map(then_bb),
                else_bb: map(else_bb),
            },
            r @ Terminator::Return(_) => r,
        };
        blocks.push(b);
    }
    f.blocks = blocks;
    f.loop_tags = std::mem::take(&mut f.loop_tags)
        .into_iter()
        .filter_map(|(b, t)| remap[b.index()].map(|nb| (nb, t)))
        .collect();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    #[test]
    fn lowers_simple_function() {
        let m = compile("fn main() -> int { let x: int = 2; return x * 21; }").expect("compile");
        let f = &m.funcs[0];
        assert_eq!(f.name, "main");
        assert!(matches!(
            f.blocks[0].term,
            Terminator::Return(Some(Operand::Var(_)))
        ));
    }

    #[test]
    fn while_loop_has_back_edge_to_header() {
        let m = compile("fn main() { let i: int = 0; while (i < 10) { i = i + 1; } }")
            .expect("compile");
        let f = &m.funcs[0];
        // Find a block whose terminator jumps backwards.
        let mut found_back_edge = false;
        for (i, b) in f.blocks.iter().enumerate() {
            for s in b.term.successors() {
                if s.index() <= i && i != s.index() {
                    found_back_edge = true;
                }
            }
        }
        assert!(found_back_edge, "expected a back edge in: {f:?}");
    }

    #[test]
    fn loop_tags_attached_to_headers() {
        let m = compile("fn main() { @outer: for (let i: int = 0; i < 4; i = i + 1) { } }")
            .expect("compile");
        let f = &m.funcs[0];
        assert_eq!(f.loop_tags.len(), 1);
        let (&header, tag) = f.loop_tags.iter().next().expect("one tag");
        assert_eq!(tag, "outer");
        // The tagged block is a branch target of some other block (the back
        // edge) and contains/leads to the loop condition.
        let preds: Vec<_> = f
            .block_ids()
            .filter(|&b| f.block(b).term.successors().any(|s| s == header))
            .collect();
        assert!(preds.len() >= 2, "header should have entry + latch preds");
    }

    #[test]
    fn short_circuit_creates_control_flow() {
        let m = compile("fn f(a: bool, b: bool) -> bool { return a && b; }").expect("compile");
        assert!(m.funcs[0].blocks.len() >= 3);
    }

    #[test]
    fn break_prunes_unreachable_blocks() {
        let m = compile("fn main() { while (true) { break; } }").expect("compile");
        // No block is unreachable from the entry.
        let f = &m.funcs[0];
        let mut reach = vec![false; f.blocks.len()];
        let mut stack = vec![BlockId(0)];
        while let Some(b) = stack.pop() {
            if reach[b.index()] {
                continue;
            }
            reach[b.index()] = true;
            stack.extend(f.block(b).term.successors());
        }
        assert!(
            reach.iter().all(|&r| r),
            "unreachable block survived pruning"
        );
    }

    #[test]
    fn globals_lowered_with_initializers() {
        let m = compile(
            "let n: int = 5; let arr: [float; 8];\n\
             fn main() -> int { arr[0] = 1.5; return n; }",
        )
        .expect("compile");
        assert_eq!(m.globals.len(), 2);
        assert_eq!(m.globals[0].init, Some(Operand::ConstInt(5)));
        assert_eq!(m.globals[1].init, None);
        let insts = &m.funcs[0].blocks[0].insts;
        assert!(insts.iter().any(|i| matches!(
            i,
            Inst::StoreIndex {
                base: MemBase::Global(_),
                ..
            }
        )));
        assert!(insts.iter().any(|i| matches!(i, Inst::LoadGlobal { .. })));
    }

    #[test]
    fn non_constant_global_init_rejected() {
        let err = compile("let n: int = 2 + 3; fn main() { }").expect_err("should fail");
        assert!(err.to_string().contains("constant"));
    }

    #[test]
    fn field_access_through_pointer() {
        let m = compile(
            "struct Node { val: int, next: *Node }\n\
             fn main() -> int { let p: *Node = new Node; p.val = 7; return p.val; }",
        )
        .expect("compile");
        let insts = &m.funcs[0].blocks[0].insts;
        assert!(insts.iter().any(|i| matches!(i, Inst::AllocStruct { .. })));
        assert!(insts
            .iter()
            .any(|i| matches!(i, Inst::StoreField { field: 0, .. })));
        assert!(insts
            .iter()
            .any(|i| matches!(i, Inst::LoadField { field: 0, .. })));
    }

    #[test]
    fn intrinsics_lowered_not_called() {
        let m = compile("fn main() -> float { return sqrt(2.0); }").expect("compile");
        let insts = &m.funcs[0].blocks[0].insts;
        assert!(insts.iter().any(|i| matches!(
            i,
            Inst::Intrin {
                op: Intrinsic::Sqrt,
                ..
            }
        )));
        assert!(!insts.iter().any(|i| matches!(i, Inst::Call { .. })));
    }

    #[test]
    fn casts_lower_to_conversions() {
        let m =
            compile("fn main() -> float { let i: int = 3; return i as float; }").expect("compile");
        let insts = &m.funcs[0].blocks[0].insts;
        assert!(insts.iter().any(|i| matches!(
            i,
            Inst::Intrin {
                op: Intrinsic::IntToFloat,
                ..
            }
        )));
    }

    #[test]
    fn calls_lower_with_func_ids() {
        let m = compile(
            "fn helper(x: int) -> int { return x + 1; }\n\
             fn main() -> int { return helper(41); }",
        )
        .expect("compile");
        let main = m.func_by_name("main").expect("main exists");
        let insts = &m.func(main).blocks[0].insts;
        assert!(insts.iter().any(|i| matches!(
            i,
            Inst::Call {
                func: FuncId(0),
                ..
            }
        )));
    }
}
