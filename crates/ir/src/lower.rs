//! Lowering from the checked AST to IR.
//!
//! Each function is lowered to a CFG of basic blocks. Short-circuit `&&` and
//! `||` become control flow; `for`/`while` loops become the canonical
//! header/body/latch shape whose back edge targets the condition block, so
//! natural-loop detection recovers exactly the source loops. Source loop
//! tags (`@name:`) are recorded against the header block.

use crate::module::*;
use dca_lang::ast::{self, Expr, ExprKind, PrintArg, Stmt, StmtKind};
use dca_lang::sema::{CheckedProgram, Ty};
use dca_lang::{Error, ErrorKind};
use std::collections::HashMap;

/// Lowers a checked program to an IR [`Module`].
///
/// # Errors
///
/// Returns an error for constructs the IR cannot represent (currently only
/// non-constant global initializers).
pub fn lower(prog: &CheckedProgram) -> Result<Module, Error> {
    let mut globals = Vec::new();
    let mut global_ids = HashMap::new();
    for (i, g) in prog.ast.globals.iter().enumerate() {
        let init = match &g.init {
            None => None,
            Some(e) => Some(const_operand(e)?),
        };
        let ty = resolve(prog, &g.ty);
        global_ids.insert(g.name.clone(), GlobalId(i as u32));
        globals.push(GlobalInfo {
            name: g.name.clone(),
            ty,
            init,
        });
    }
    let mut func_ids = HashMap::new();
    for (i, f) in prog.ast.functions.iter().enumerate() {
        func_ids.insert(f.name.clone(), FuncId(i as u32));
    }
    let mut funcs = Vec::new();
    for f in &prog.ast.functions {
        funcs.push(FnLower::new(prog, &global_ids, &func_ids, f).run()?);
    }
    Ok(Module::new(prog.structs.clone(), globals, funcs))
}

fn const_operand(e: &Expr) -> Result<Operand, Error> {
    match &e.kind {
        ExprKind::IntLit(v) => Ok(Operand::ConstInt(*v)),
        ExprKind::FloatLit(v) => Ok(Operand::ConstFloat(*v)),
        ExprKind::BoolLit(v) => Ok(Operand::ConstBool(*v)),
        ExprKind::NullLit => Ok(Operand::Null),
        ExprKind::Unary(ast::UnOp::Neg, inner) => match const_operand(inner)? {
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
    // Mirrors the checker's resolution; all names were validated there.
    match t {
        ast::TyAst::Int => Ty::Int,
        ast::TyAst::Float => Ty::Float,
        ast::TyAst::Bool => Ty::Bool,
        ast::TyAst::Ptr(inner) => Ty::Ptr(Box::new(resolve(prog, inner))),
        ast::TyAst::Array(elem, n) => Ty::Array(Box::new(resolve(prog, elem)), *n),
        ast::TyAst::Named(name) => {
            let i = prog
                .structs
                .iter()
                .position(|s| s.name == *name)
                .expect("checker resolved struct names");
            Ty::Struct(i)
        }
    }
}

/// Where `break` and `continue` jump inside the innermost loop.
struct LoopCtx {
    continue_to: BlockId,
    break_to: BlockId,
}

struct FnLower<'a> {
    prog: &'a CheckedProgram,
    global_ids: &'a HashMap<String, GlobalId>,
    func_ids: &'a HashMap<String, FuncId>,
    src: &'a ast::FnDef,
    vars: Vec<VarInfo>,
    scopes: Vec<HashMap<String, VarId>>,
    blocks: Vec<(Vec<Inst>, Option<Terminator>)>,
    cur: BlockId,
    loops: Vec<LoopCtx>,
    loop_tags: HashMap<BlockId, String>,
    temp_count: u32,
}

impl<'a> FnLower<'a> {
    fn new(
        prog: &'a CheckedProgram,
        global_ids: &'a HashMap<String, GlobalId>,
        func_ids: &'a HashMap<String, FuncId>,
        src: &'a ast::FnDef,
    ) -> Self {
        FnLower {
            prog,
            global_ids,
            func_ids,
            src,
            vars: Vec::new(),
            scopes: vec![HashMap::new()],
            blocks: vec![(Vec::new(), None)],
            cur: BlockId(0),
            loops: Vec::new(),
            loop_tags: HashMap::new(),
            temp_count: 0,
        }
    }

    fn run(mut self) -> Result<Function, Error> {
        let mut params = Vec::new();
        for (pname, pty) in &self.src.params {
            let ty = resolve(self.prog, pty);
            let v = self.new_var(pname.clone(), ty, false);
            params.push(v);
        }
        for s in &self.src.body {
            self.stmt(s)?;
        }
        let ret = match &self.src.ret {
            None => Ty::Unit,
            Some(t) => resolve(self.prog, t),
        };
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
            name: self.src.name.clone(),
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
        if !is_temp {
            self.scopes
                .last_mut()
                .expect("scope stack never empty")
                .insert(self.vars[id.index()].name.clone(), id);
        }
        id
    }

    fn temp(&mut self, ty: Ty) -> VarId {
        let n = self.temp_count;
        self.temp_count += 1;
        self.new_var(format!("t{n}"), ty, true)
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

    fn lookup(&self, name: &str) -> Option<VarId> {
        for scope in self.scopes.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Some(*v);
            }
        }
        None
    }

    fn expr_ty(&self, e: &Expr) -> &Ty {
        self.prog.types.ty(e.id)
    }

    // ---- statements ---------------------------------------------------------

    fn block_stmts(&mut self, body: &[Stmt]) -> Result<(), Error> {
        self.scopes.push(HashMap::new());
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
                    Some(e) => Some(self.expr(e)?),
                    None => None,
                };
                let v = self.new_var(name.clone(), ty.clone(), false);
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
                let v = self.expr(value)?;
                self.assign(target, v)
            }
            StmtKind::Expr(e) => {
                self.expr_discard(e)?;
                Ok(())
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.expr(cond)?;
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
            StmtKind::While { tag, cond, body } => {
                let header = self.new_block();
                let exit = self.new_block();
                if let Some(t) = tag {
                    self.loop_tags.insert(header, t.clone());
                }
                self.term(Terminator::Jump(header));
                self.switch_to(header);
                let c = self.expr(cond)?;
                let body_bb = self.new_block();
                self.term(Terminator::Branch {
                    cond: c,
                    then_bb: body_bb,
                    else_bb: exit,
                });
                self.switch_to(body_bb);
                self.loops.push(LoopCtx {
                    continue_to: header,
                    break_to: exit,
                });
                self.block_stmts(body)?;
                self.loops.pop();
                self.term(Terminator::Jump(header));
                self.switch_to(exit);
                Ok(())
            }
            StmtKind::For {
                tag,
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                self.stmt(init)?;
                let header = self.new_block();
                let exit = self.new_block();
                if let Some(t) = tag {
                    self.loop_tags.insert(header, t.clone());
                }
                self.term(Terminator::Jump(header));
                self.switch_to(header);
                let c = self.expr(cond)?;
                let body_bb = self.new_block();
                let step_bb = self.new_block();
                self.term(Terminator::Branch {
                    cond: c,
                    then_bb: body_bb,
                    else_bb: exit,
                });
                self.switch_to(body_bb);
                self.loops.push(LoopCtx {
                    continue_to: step_bb,
                    break_to: exit,
                });
                self.block_stmts(body)?;
                self.loops.pop();
                self.term(Terminator::Jump(step_bb));
                self.switch_to(step_bb);
                self.stmt(step)?;
                self.term(Terminator::Jump(header));
                self.scopes.pop();
                self.switch_to(exit);
                Ok(())
            }
            StmtKind::Break => {
                let target = self
                    .loops
                    .last()
                    .expect("checker verified break is inside a loop")
                    .break_to;
                self.term(Terminator::Jump(target));
                let dead = self.new_block();
                self.switch_to(dead);
                Ok(())
            }
            StmtKind::Continue => {
                let target = self
                    .loops
                    .last()
                    .expect("checker verified continue is inside a loop")
                    .continue_to;
                self.term(Terminator::Jump(target));
                let dead = self.new_block();
                self.switch_to(dead);
                Ok(())
            }
            StmtKind::Return(value) => {
                let op = match value {
                    Some(e) => Some(self.expr(e)?),
                    None => None,
                };
                self.term(Terminator::Return(op));
                let dead = self.new_block();
                self.switch_to(dead);
                Ok(())
            }
            StmtKind::Print(args) => {
                let mut ops = Vec::new();
                for a in args {
                    match a {
                        PrintArg::Label(s) => ops.push(PrintOp::Label(s.clone())),
                        PrintArg::Value(e) => {
                            let v = self.expr(e)?;
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

    fn assign(&mut self, target: &Expr, value: Operand) -> Result<(), Error> {
        match &target.kind {
            ExprKind::Var(name) => {
                if let Some(v) = self.lookup(name) {
                    self.emit(Inst::Copy { dst: v, src: value });
                } else {
                    let g = self.global_ids[name.as_str()];
                    self.emit(Inst::StoreGlobal { global: g, value });
                }
                Ok(())
            }
            ExprKind::Index(base, idx) => {
                let b = self.index_base(base)?;
                let i = self.expr(idx)?;
                self.emit(Inst::StoreIndex {
                    base: b,
                    index: i,
                    value,
                });
                Ok(())
            }
            ExprKind::Field(base, fname) => {
                let (obj, field) = self.field_ref(base, fname)?;
                self.emit(Inst::StoreField { obj, field, value });
                Ok(())
            }
            _ => unreachable!("checker verified lvalue shape"),
        }
    }

    fn field_ref(&mut self, base: &Expr, fname: &str) -> Result<(Operand, u32), Error> {
        let sid = match self.expr_ty(base) {
            Ty::Ptr(inner) => match inner.as_ref() {
                Ty::Struct(i) => *i,
                _ => unreachable!("checker verified struct pointer"),
            },
            _ => unreachable!("checker verified struct pointer"),
        };
        let field = self.prog.structs[sid]
            .field_index(fname)
            .expect("checker resolved field") as u32;
        let obj = self.expr(base)?;
        Ok((obj, field))
    }

    fn index_base(&mut self, base: &Expr) -> Result<MemBase, Error> {
        if let ExprKind::Var(name) = &base.kind {
            if let Some(v) = self.lookup(name) {
                return Ok(MemBase::Var(v));
            }
            let g = self.global_ids[name.as_str()];
            match &self.prog.types.ty(base.id) {
                Ty::Array(..) => return Ok(MemBase::Global(g)),
                _ => {
                    // A scalar pointer global: load it first.
                    let ty = self.expr_ty(base).clone();
                    let t = self.temp(ty);
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
                let ty = self.expr_ty(base).clone();
                let t = self.temp(ty);
                self.emit(Inst::Copy { dst: t, src: other });
                Ok(MemBase::Var(t))
            }
        }
    }

    // ---- expressions ---------------------------------------------------------

    /// Lowers an expression used only for effect (a unit call).
    fn expr_discard(&mut self, e: &Expr) -> Result<(), Error> {
        if let ExprKind::Call(name, args) = &e.kind {
            if Intrinsic::from_name(name).is_none() && !self.is_builtin(name) {
                let mut ops = Vec::new();
                for a in args {
                    ops.push(self.expr(a)?);
                }
                let func = self.func_ids[name.as_str()];
                let dst = match self.expr_ty(e) {
                    Ty::Unit => None,
                    ty => Some(self.temp(ty.clone())),
                };
                self.emit(Inst::Call {
                    dst,
                    func,
                    args: ops,
                });
                return Ok(());
            }
        }
        self.expr(e)?;
        Ok(())
    }

    fn is_builtin(&self, name: &str) -> bool {
        dca_lang::sema::BUILTINS.iter().any(|(n, _, _)| *n == name)
    }

    fn expr(&mut self, e: &Expr) -> Result<Operand, Error> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok(Operand::ConstInt(*v)),
            ExprKind::FloatLit(v) => Ok(Operand::ConstFloat(*v)),
            ExprKind::BoolLit(v) => Ok(Operand::ConstBool(*v)),
            ExprKind::NullLit => Ok(Operand::Null),
            ExprKind::Var(name) => {
                if let Some(v) = self.lookup(name) {
                    Ok(Operand::Var(v))
                } else {
                    let g = self.global_ids[name.as_str()];
                    let ty = self.expr_ty(e).clone();
                    let t = self.temp(ty);
                    self.emit(Inst::LoadGlobal { dst: t, global: g });
                    Ok(Operand::Var(t))
                }
            }
            ExprKind::Unary(op, a) => {
                let av = self.expr(a)?;
                let ty = self.expr_ty(e).clone();
                let t = self.temp(ty);
                let op = match op {
                    ast::UnOp::Neg => UnOp::Neg,
                    ast::UnOp::Not => UnOp::Not,
                };
                self.emit(Inst::Un { dst: t, op, a: av });
                Ok(Operand::Var(t))
            }
            ExprKind::Binary(op, a, b) if op.is_logical() => self.short_circuit(*op, a, b),
            ExprKind::Binary(op, a, b) => {
                let av = self.expr(a)?;
                let bv = self.expr(b)?;
                let ty = self.expr_ty(e).clone();
                let t = self.temp(ty);
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
                let b = self.index_base(base)?;
                let i = self.expr(idx)?;
                let ty = self.expr_ty(e).clone();
                let t = self.temp(ty);
                self.emit(Inst::LoadIndex {
                    dst: t,
                    base: b,
                    index: i,
                });
                Ok(Operand::Var(t))
            }
            ExprKind::Field(base, fname) => {
                let (obj, field) = self.field_ref(base, fname)?;
                let ty = self.expr_ty(e).clone();
                let t = self.temp(ty);
                self.emit(Inst::LoadField { dst: t, obj, field });
                Ok(Operand::Var(t))
            }
            ExprKind::Call(name, args) => {
                let mut ops = Vec::new();
                for a in args {
                    ops.push(self.expr(a)?);
                }
                let ty = self.expr_ty(e).clone();
                if let Some(intr) = Intrinsic::from_name(name) {
                    let t = self.temp(ty);
                    self.emit(Inst::Intrin {
                        dst: t,
                        op: intr,
                        args: ops,
                    });
                    return Ok(Operand::Var(t));
                }
                let func = self.func_ids[name.as_str()];
                let dst = match &ty {
                    Ty::Unit => None,
                    _ => Some(self.temp(ty.clone())),
                };
                self.emit(Inst::Call {
                    dst,
                    func,
                    args: ops,
                });
                Ok(dst.map(Operand::Var).unwrap_or(Operand::ConstInt(0)))
            }
            ExprKind::NewStruct(name) => {
                let sid = self
                    .prog
                    .structs
                    .iter()
                    .position(|s| s.name == *name)
                    .expect("checker resolved struct");
                let ty = self.expr_ty(e).clone();
                let t = self.temp(ty);
                self.emit(Inst::AllocStruct {
                    dst: t,
                    sid: StructId(sid as u32),
                });
                Ok(Operand::Var(t))
            }
            ExprKind::NewArray(_, len) => {
                let l = self.expr(len)?;
                let ty = self.expr_ty(e).clone();
                let t = self.temp(ty);
                self.emit(Inst::AllocArray { dst: t, len: l });
                Ok(Operand::Var(t))
            }
            ExprKind::Cast(inner, _) => {
                let iv = self.expr(inner)?;
                let from = self.expr_ty(inner).clone();
                let to = self.expr_ty(e).clone();
                if from == to {
                    return Ok(iv);
                }
                let t = self.temp(to.clone());
                let op = match (&from, &to) {
                    (Ty::Int, Ty::Float) => Intrinsic::IntToFloat,
                    (Ty::Float, Ty::Int) => Intrinsic::FloatToInt,
                    _ => unreachable!("checker verified cast"),
                };
                self.emit(Inst::Intrin {
                    dst: t,
                    op,
                    args: vec![iv],
                });
                Ok(Operand::Var(t))
            }
        }
    }

    fn short_circuit(&mut self, op: ast::BinOp, a: &Expr, b: &Expr) -> Result<Operand, Error> {
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
            .filter(|&b| f.block(b).term.successors().contains(&header))
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
