//! The interpreter's compiled form of a module.
//!
//! Each function is lowered once per [`Module`] to dense per-block arrays
//! of [`Op`]s whose operands are `u32` register slots, resolved ahead of
//! time: a frame's registers are the function's variables, in [`VarId`]
//! order, followed by a tail holding each distinct constant the function
//! uses. An operand is then one indexed read, whatever it names. A
//! function's frame template holds the zeros of its variables and its
//! constants; a call copies it into a fresh register window, binds the
//! arguments and allocates the frame arrays listed beside it.
//!
//! The code is built on the first [`crate::Machine`] created for a module
//! and kept beside it ([`Module::derived`]), with the module's entry
//! cursors ([`crate::cursor`]); lowering never builds it.
//!
//! [`VarId`]: dca_ir::VarId

use crate::cursor::Cursors;
use crate::value::Value;
use dca_ir::{
    BinOp, BlockId, FuncId, Inst, Intrinsic, MemBase, Module, Operand, PrintOp, Terminator, Ty,
    UnOp,
};
use std::collections::HashMap;

/// A register slot within a frame's window.
pub(crate) type Slot = u32;

/// "No slot": a call without a result, a unary intrinsic's missing
/// second operand, a `return` without a value.
pub(crate) const NO_SLOT: Slot = u32::MAX;

/// One instruction with pre-resolved operands. The hot binary operators
/// have their own ops, so a step dispatches once.
#[rustfmt::skip]
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    Copy { dst: Slot, src: Slot },
    Neg { dst: Slot, a: Slot },
    Not { dst: Slot, a: Slot },
    Add { dst: Slot, a: Slot, b: Slot },
    Sub { dst: Slot, a: Slot, b: Slot },
    Mul { dst: Slot, a: Slot, b: Slot },
    Lt { dst: Slot, a: Slot, b: Slot },
    Le { dst: Slot, a: Slot, b: Slot },
    Gt { dst: Slot, a: Slot, b: Slot },
    Ge { dst: Slot, a: Slot, b: Slot },
    /// Every other binary operator.
    Bin { dst: Slot, op: BinOp, a: Slot, b: Slot },
    /// `b` is [`NO_SLOT`] for a one-argument intrinsic.
    Intrin { dst: Slot, op: Intrinsic, a: Slot, b: Slot },
    /// `base[index]` through a pointer (or frame array) variable.
    LoadIndex { dst: Slot, base: Slot, index: Slot },
    /// `g[index]` for a global array, heap object `obj`.
    LoadGlobalIndex { dst: Slot, obj: u32, index: Slot },
    StoreIndex { base: Slot, index: Slot, value: Slot },
    StoreGlobalIndex { obj: u32, index: Slot, value: Slot },
    LoadField { dst: Slot, obj: Slot, field: u32 },
    StoreField { obj: Slot, field: u32, value: Slot },
    LoadGlobal { dst: Slot, obj: u32 },
    StoreGlobal { obj: u32, value: Slot },
    AllocStruct { dst: Slot, sid: u32 },
    AllocArray { dst: Slot, len: Slot },
    /// `args` indexes [`FuncCode::args`]: the argument count, then the
    /// argument slots. `dst` is [`NO_SLOT`] for a call without a result.
    Call { dst: Slot, func: u32, args: u32 },
    /// `items` indexes [`FuncCode::prints`].
    Print { items: u32 },
}

/// A block's terminator with pre-resolved operands.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Term {
    Jump(BlockId),
    Branch {
        cond: Slot,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// `value` is [`NO_SLOT`] for a unit return.
    Return {
        value: Slot,
    },
}

/// One block: its ops are `FuncCode::ops[start..end]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockCode {
    pub start: u32,
    pub end: u32,
    pub term: Term,
}

/// An item of a print instruction.
#[derive(Debug)]
pub(crate) enum PrintItem {
    Label(String),
    Value(Slot),
}

/// One function's compiled code and frame layout.
#[derive(Debug)]
pub(crate) struct FuncCode {
    pub blocks: Vec<BlockCode>,
    pub ops: Vec<Op>,
    /// The calls' argument lists, each a count followed by its slots.
    pub args: Vec<u32>,
    /// The print instructions' items.
    pub prints: Vec<Vec<PrintItem>>,
    /// Variables (the hook-visible head of the window).
    pub nvars: u32,
    pub nparams: u32,
    /// The register window a call starts from: each variable's zero, then
    /// the constants.
    pub template: Vec<Value>,
    /// Frame-local arrays, in variable order: the slot, the element zero
    /// and the length.
    pub arrays: Vec<(Slot, Value, usize)>,
}

impl FuncCode {
    /// The argument slots of the call whose list is at `at`.
    #[inline]
    pub fn args(&self, at: u32) -> &[Slot] {
        let at = at as usize;
        let n = self.args[at] as usize;
        &self.args[at + 1..at + 1 + n]
    }
}

/// A module's compiled code.
#[derive(Debug)]
pub(crate) struct Code {
    pub funcs: Vec<FuncCode>,
    /// The zeroed cells of each struct type, in [`dca_ir::StructId`] order.
    pub structs: Vec<Vec<Value>>,
}

/// What the interpreter keeps beside a module ([`Module::derived`]).
pub(crate) struct Kept {
    pub code: Code,
    pub cursors: Cursors,
}

impl Kept {
    /// The values kept beside `module`, built on first use.
    pub fn of(module: &Module) -> &Kept {
        module.derived(|m| Kept {
            code: Code::compile(m),
            cursors: Cursors::default(),
        })
    }
}

impl Code {
    /// The compiled code of `module`, built on first use.
    pub fn of(module: &Module) -> &Code {
        &Kept::of(module).code
    }

    fn compile(module: &Module) -> Code {
        Code {
            funcs: (0..module.funcs.len())
                .map(|i| FuncLower::new(module, FuncId(i as u32)).finish())
                .collect(),
            structs: module
                .structs
                .iter()
                .map(|s| s.fields.iter().map(|(_, t)| zero_of(t)).collect())
                .collect(),
        }
    }

    #[inline]
    pub fn func(&self, f: FuncId) -> &FuncCode {
        &self.funcs[f.index()]
    }
}

/// The value a variable or cell of type `ty` starts with.
pub(crate) fn zero_of(ty: &Ty) -> Value {
    match ty {
        Ty::Int => Value::Int(0),
        Ty::Float => Value::Float(0.0),
        Ty::Bool => Value::Bool(false),
        _ => Value::Null,
    }
}

/// The value of a constant operand.
pub(crate) fn const_value(op: &Operand) -> Value {
    match op {
        Operand::ConstInt(v) => Value::Int(*v),
        Operand::ConstFloat(v) => Value::Float(*v),
        Operand::ConstBool(v) => Value::Bool(*v),
        Operand::Null => Value::Null,
        // invariant: callers pass constants only (global initializers,
        // operands already known not to be variables).
        Operand::Var(_) => unreachable!("a constant operand"),
    }
}

/// Lowers one function, collecting its constants as it goes.
struct FuncLower<'m> {
    module: &'m Module,
    func: FuncId,
    template: Vec<Value>,
    /// Constant slot by the constant's kind and bits.
    consts: HashMap<(u8, u64), Slot>,
    args: Vec<u32>,
    prints: Vec<Vec<PrintItem>>,
}

impl<'m> FuncLower<'m> {
    fn new(module: &'m Module, func: FuncId) -> Self {
        let f = module.func(func);
        FuncLower {
            module,
            func,
            template: f.vars.iter().map(|v| zero_of(&v.ty)).collect(),
            consts: HashMap::new(),
            args: Vec::new(),
            prints: Vec::new(),
        }
    }

    /// The slot an operand reads: its variable's, or its constant's in the
    /// window's tail.
    fn slot(&mut self, op: &Operand) -> Slot {
        let key = match *op {
            Operand::Var(v) => return v.0,
            Operand::ConstInt(v) => (0, v as u64),
            Operand::ConstFloat(v) => (1, v.to_bits()),
            Operand::ConstBool(v) => (2, u64::from(v)),
            Operand::Null => (3, 0),
        };
        let template = &mut self.template;
        *self.consts.entry(key).or_insert_with(|| {
            template.push(const_value(op));
            (template.len() - 1) as Slot
        })
    }

    fn op(&mut self, inst: &Inst) -> Op {
        match inst {
            Inst::Copy { dst, src } => Op::Copy {
                dst: dst.0,
                src: self.slot(src),
            },
            Inst::Un { dst, op, a } => {
                let (dst, a) = (dst.0, self.slot(a));
                match op {
                    UnOp::Neg => Op::Neg { dst, a },
                    UnOp::Not => Op::Not { dst, a },
                }
            }
            Inst::Bin { dst, op, a, b } => {
                let (dst, a, b) = (dst.0, self.slot(a), self.slot(b));
                match op {
                    BinOp::Add => Op::Add { dst, a, b },
                    BinOp::Sub => Op::Sub { dst, a, b },
                    BinOp::Mul => Op::Mul { dst, a, b },
                    BinOp::Lt => Op::Lt { dst, a, b },
                    BinOp::Le => Op::Le { dst, a, b },
                    BinOp::Gt => Op::Gt { dst, a, b },
                    BinOp::Ge => Op::Ge { dst, a, b },
                    &op => Op::Bin { dst, op, a, b },
                }
            }
            Inst::Intrin { dst, op, args } => Op::Intrin {
                dst: dst.0,
                op: *op,
                a: self.slot(&args[0]),
                b: args.get(1).map_or(NO_SLOT, |b| self.slot(b)),
            },
            Inst::LoadIndex { dst, base, index } => {
                let (dst, index) = (dst.0, self.slot(index));
                match base {
                    MemBase::Var(v) => Op::LoadIndex {
                        dst,
                        base: v.0,
                        index,
                    },
                    MemBase::Global(g) => Op::LoadGlobalIndex {
                        dst,
                        obj: g.0,
                        index,
                    },
                }
            }
            Inst::StoreIndex { base, index, value } => {
                let (index, value) = (self.slot(index), self.slot(value));
                match base {
                    MemBase::Var(v) => Op::StoreIndex {
                        base: v.0,
                        index,
                        value,
                    },
                    MemBase::Global(g) => Op::StoreGlobalIndex {
                        obj: g.0,
                        index,
                        value,
                    },
                }
            }
            Inst::LoadField { dst, obj, field } => Op::LoadField {
                dst: dst.0,
                obj: self.slot(obj),
                field: *field,
            },
            Inst::StoreField { obj, field, value } => Op::StoreField {
                obj: self.slot(obj),
                field: *field,
                value: self.slot(value),
            },
            Inst::LoadGlobal { dst, global } => Op::LoadGlobal {
                dst: dst.0,
                obj: global.0,
            },
            Inst::StoreGlobal { global, value } => Op::StoreGlobal {
                obj: global.0,
                value: self.slot(value),
            },
            Inst::AllocStruct { dst, sid } => Op::AllocStruct {
                dst: dst.0,
                sid: sid.0,
            },
            Inst::AllocArray { dst, len } => Op::AllocArray {
                dst: dst.0,
                len: self.slot(len),
            },
            Inst::Call { dst, func, args } => {
                let at = self.args.len() as u32;
                self.args.push(args.len() as u32);
                for a in args {
                    let s = self.slot(a);
                    self.args.push(s);
                }
                Op::Call {
                    dst: dst.map_or(NO_SLOT, |d| d.0),
                    func: func.0,
                    args: at,
                }
            }
            Inst::Print { args } => {
                let items = args
                    .iter()
                    .map(|a| match a {
                        PrintOp::Label(s) => PrintItem::Label(s.clone()),
                        PrintOp::Value(op) => PrintItem::Value(self.slot(op)),
                    })
                    .collect();
                self.prints.push(items);
                Op::Print {
                    items: (self.prints.len() - 1) as u32,
                }
            }
        }
    }

    fn term(&mut self, term: &Terminator) -> Term {
        match term {
            Terminator::Jump(t) => Term::Jump(*t),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => Term::Branch {
                cond: self.slot(cond),
                then_bb: *then_bb,
                else_bb: *else_bb,
            },
            Terminator::Return(v) => Term::Return {
                value: v.as_ref().map_or(NO_SLOT, |v| self.slot(v)),
            },
        }
    }

    fn finish(mut self) -> FuncCode {
        let f = self.module.func(self.func);
        let mut ops = Vec::new();
        let mut blocks = Vec::with_capacity(f.blocks.len());
        for b in &f.blocks {
            let start = ops.len() as u32;
            for inst in &b.insts {
                ops.push(self.op(inst));
            }
            blocks.push(BlockCode {
                start,
                end: ops.len() as u32,
                term: self.term(&b.term),
            });
        }
        let nparams = f.params.len();
        let arrays = f
            .vars
            .iter()
            .enumerate()
            .skip(nparams)
            .filter_map(|(i, v)| match &v.ty {
                Ty::Array(elem, n) => Some((i as Slot, zero_of(elem), *n)),
                _ => None,
            })
            .collect();
        FuncCode {
            blocks,
            ops,
            args: self.args,
            prints: self.prints,
            nvars: f.vars.len() as u32,
            nparams: nparams as u32,
            template: self.template,
            arrays,
        }
    }
}
