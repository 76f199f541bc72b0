//! The intermediate representation: modules, functions, blocks and
//! instructions.
//!
//! The IR is a conventional register machine over a control-flow graph:
//! every function has a flat pool of typed variables (parameters, named
//! locals and compiler temporaries are all [`VarId`]s), basic blocks of
//! side-effect-ordered instructions, and a single terminator per block.
//! Memory is accessed only through explicit load/store instructions, which
//! is what makes dependence profiling and commutativity instrumentation
//! straightforward.

use dca_lang::sema::{StructInfo, Ty};
use std::any::Any;
use std::fmt;
use std::sync::OnceLock;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// A variable within one function: parameter, local or temporary.
    VarId,
    "v"
);
id_type!(
    /// A basic block within one function.
    BlockId,
    "bb"
);
id_type!(
    /// A function within a module.
    FuncId,
    "fn"
);
id_type!(
    /// A global variable within a module.
    GlobalId,
    "g"
);
id_type!(
    /// A struct type within a module.
    StructId,
    "s"
);

/// An instruction operand: a variable or an immediate constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// Read a variable.
    Var(VarId),
    /// Integer immediate.
    ConstInt(i64),
    /// Float immediate.
    ConstFloat(f64),
    /// Boolean immediate.
    ConstBool(bool),
    /// The null pointer.
    Null,
}

impl Operand {
    /// The variable this operand reads, if any.
    pub fn as_var(self) -> Option<VarId> {
        match self {
            Operand::Var(v) => Some(v),
            _ => None,
        }
    }
}

/// Binary operators. Arithmetic operators are polymorphic over `int` and
/// `float` (the checker guarantees both operands agree); the rest are
/// integer- or pointer-typed as in the source language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer division truncates; division by zero traps).
    Div,
    /// Integer remainder.
    Rem,
    /// Equality (ints, floats, bools, pointers).
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Bitwise and.
    BitAnd,
    /// Bitwise or.
    BitOr,
    /// Bitwise xor.
    BitXor,
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
}

impl BinOp {
    /// True if the operator is commutative *as an operation on values*
    /// (used by reduction recognition).
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Mul
                | BinOp::Eq
                | BinOp::Ne
                | BinOp::BitAnd
                | BinOp::BitOr
                | BinOp::BitXor
        )
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::Eq => "eq",
            BinOp::Ne => "ne",
            BinOp::Lt => "lt",
            BinOp::Le => "le",
            BinOp::Gt => "gt",
            BinOp::Ge => "ge",
            BinOp::BitAnd => "and",
            BinOp::BitOr => "or",
            BinOp::BitXor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation (int or float).
    Neg,
    /// Boolean not.
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => write!(f, "neg"),
            UnOp::Not => write!(f, "not"),
        }
    }
}

/// Pure math intrinsics (lowered from the builtins in
/// [`dca_lang::sema::BUILTINS`]) plus the numeric casts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// `sqrt(f)`.
    Sqrt,
    /// `sin(f)`.
    Sin,
    /// `cos(f)`.
    Cos,
    /// `exp(f)`.
    Exp,
    /// `log(f)`.
    Log,
    /// `fabs(f)`.
    Fabs,
    /// `pow(f, f)`.
    Pow,
    /// `fmin(f, f)`.
    Fmin,
    /// `fmax(f, f)`.
    Fmax,
    /// `iabs(i)`.
    Iabs,
    /// `imin(i, i)`.
    Imin,
    /// `imax(i, i)`.
    Imax,
    /// `i as float`.
    IntToFloat,
    /// `f as int` (truncating).
    FloatToInt,
}

impl Intrinsic {
    /// Every intrinsic with the name it prints as; a builtin's is its
    /// source name.
    const NAMES: [(Intrinsic, &'static str); 14] = [
        (Intrinsic::Sqrt, "sqrt"),
        (Intrinsic::Sin, "sin"),
        (Intrinsic::Cos, "cos"),
        (Intrinsic::Exp, "exp"),
        (Intrinsic::Log, "log"),
        (Intrinsic::Fabs, "fabs"),
        (Intrinsic::Pow, "pow"),
        (Intrinsic::Fmin, "fmin"),
        (Intrinsic::Fmax, "fmax"),
        (Intrinsic::Iabs, "iabs"),
        (Intrinsic::Imin, "imin"),
        (Intrinsic::Imax, "imax"),
        (Intrinsic::IntToFloat, "itof"),
        (Intrinsic::FloatToInt, "ftoi"),
    ];

    /// Resolves a builtin function name to its intrinsic, if it is one.
    pub fn from_name(name: &str) -> Option<Intrinsic> {
        let builtins = &Self::NAMES[..12];
        builtins.iter().find(|b| b.1 == name).map(|b| b.0)
    }
}

impl fmt::Display for Intrinsic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = Self::NAMES.iter().find(|n| n.0 == *self).map(|n| n.1);
        f.write_str(name.expect("every intrinsic is named"))
    }
}

/// The base of an indexed memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemBase {
    /// A global fixed array.
    Global(GlobalId),
    /// A variable: either a fixed local array (frame storage) or a pointer
    /// to a heap array.
    Var(VarId),
}

/// One argument of a `print` instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum PrintOp {
    /// A literal label, emitted verbatim.
    Label(String),
    /// A value operand, evaluated and emitted.
    Value(Operand),
}

/// A non-terminator instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `dst = src`.
    Copy {
        /// Destination variable.
        dst: VarId,
        /// Source operand.
        src: Operand,
    },
    /// `dst = op a`.
    Un {
        /// Destination variable.
        dst: VarId,
        /// Operator.
        op: UnOp,
        /// Operand.
        a: Operand,
    },
    /// `dst = a op b`.
    Bin {
        /// Destination variable.
        dst: VarId,
        /// Operator.
        op: BinOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = intrinsic(args...)` — pure, no memory access.
    Intrin {
        /// Destination variable.
        dst: VarId,
        /// Which intrinsic.
        op: Intrinsic,
        /// Arguments.
        args: Vec<Operand>,
    },
    /// `dst = base[index]`.
    LoadIndex {
        /// Destination variable.
        dst: VarId,
        /// Array base.
        base: MemBase,
        /// Element index.
        index: Operand,
    },
    /// `base[index] = value`.
    StoreIndex {
        /// Array base.
        base: MemBase,
        /// Element index.
        index: Operand,
        /// Stored value.
        value: Operand,
    },
    /// `dst = obj.field` through a struct pointer.
    LoadField {
        /// Destination variable.
        dst: VarId,
        /// Struct pointer operand.
        obj: Operand,
        /// Field index.
        field: u32,
    },
    /// `obj.field = value` through a struct pointer.
    StoreField {
        /// Struct pointer operand.
        obj: Operand,
        /// Field index.
        field: u32,
        /// Stored value.
        value: Operand,
    },
    /// `dst = g` for a scalar global.
    LoadGlobal {
        /// Destination variable.
        dst: VarId,
        /// The global.
        global: GlobalId,
    },
    /// `g = value` for a scalar global.
    StoreGlobal {
        /// The global.
        global: GlobalId,
        /// Stored value.
        value: Operand,
    },
    /// `dst = new Struct` — heap-allocate a zeroed struct.
    AllocStruct {
        /// Destination variable (pointer).
        dst: VarId,
        /// Which struct.
        sid: StructId,
    },
    /// `dst = new [T; len]` — heap-allocate a zeroed array.
    AllocArray {
        /// Destination variable (pointer).
        dst: VarId,
        /// Number of elements.
        len: Operand,
    },
    /// `dst? = func(args...)`.
    Call {
        /// Destination variable, absent for unit functions.
        dst: Option<VarId>,
        /// Callee.
        func: FuncId,
        /// Arguments.
        args: Vec<Operand>,
    },
    /// Observable output (the I/O marker used to exclude loops from DCA).
    Print {
        /// Arguments in order.
        args: Vec<PrintOp>,
    },
}

impl Inst {
    /// The variable this instruction defines, if any.
    pub fn def(&self) -> Option<VarId> {
        match self {
            Inst::Copy { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Intrin { dst, .. }
            | Inst::LoadIndex { dst, .. }
            | Inst::LoadField { dst, .. }
            | Inst::LoadGlobal { dst, .. }
            | Inst::AllocStruct { dst, .. }
            | Inst::AllocArray { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            Inst::StoreIndex { .. }
            | Inst::StoreField { .. }
            | Inst::StoreGlobal { .. }
            | Inst::Print { .. } => None,
        }
    }

    /// Appends every variable this instruction reads to `out`.
    pub fn uses_into(&self, out: &mut Vec<VarId>) {
        fn op(out: &mut Vec<VarId>, o: &Operand) {
            if let Operand::Var(v) = o {
                out.push(*v);
            }
        }
        match self {
            Inst::Copy { src, .. } => op(out, src),
            Inst::Un { a, .. } => op(out, a),
            Inst::Bin { a, b, .. } => {
                op(out, a);
                op(out, b);
            }
            Inst::Intrin { args, .. } => args.iter().for_each(|a| op(out, a)),
            Inst::LoadIndex { base, index, .. } => {
                if let MemBase::Var(v) = base {
                    out.push(*v);
                }
                op(out, index);
            }
            Inst::StoreIndex { base, index, value } => {
                if let MemBase::Var(v) = base {
                    out.push(*v);
                }
                op(out, index);
                op(out, value);
            }
            Inst::LoadField { obj, .. } => op(out, obj),
            Inst::StoreField { obj, value, .. } => {
                op(out, obj);
                op(out, value);
            }
            Inst::LoadGlobal { .. } => {}
            Inst::StoreGlobal { value, .. } => op(out, value),
            Inst::AllocStruct { .. } => {}
            Inst::AllocArray { len, .. } => op(out, len),
            Inst::Call { args, .. } => args.iter().for_each(|a| op(out, a)),
            Inst::Print { args } => {
                for a in args {
                    if let PrintOp::Value(o) = a {
                        op(out, o);
                    }
                }
            }
        }
    }

    /// The variables this instruction reads.
    pub fn uses(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.uses_into(&mut out);
        out
    }

    /// True if the instruction reads or writes memory (arrays, fields,
    /// globals), allocates, calls, or prints — i.e. anything beyond pure
    /// register dataflow.
    pub fn has_side_effects(&self) -> bool {
        matches!(
            self,
            Inst::StoreIndex { .. }
                | Inst::StoreField { .. }
                | Inst::StoreGlobal { .. }
                | Inst::AllocStruct { .. }
                | Inst::AllocArray { .. }
                | Inst::Call { .. }
                | Inst::Print { .. }
        )
    }
}

/// A block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Conditional branch on a boolean operand.
    Branch {
        /// Condition.
        cond: Operand,
        /// Target when true.
        then_bb: BlockId,
        /// Target when false.
        else_bb: BlockId,
    },
    /// Function return.
    Return(Option<Operand>),
}

impl Terminator {
    /// Successor blocks, in order.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> {
        let (first, second) = match *self {
            Terminator::Jump(b) => (Some(b), None),
            Terminator::Branch {
                then_bb, else_bb, ..
            } => (Some(then_bb), Some(else_bb)),
            Terminator::Return(_) => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// The variables the terminator reads.
    pub fn uses(&self) -> Vec<VarId> {
        match self {
            Terminator::Branch {
                cond: Operand::Var(v),
                ..
            } => vec![*v],
            Terminator::Return(Some(Operand::Var(v))) => vec![*v],
            _ => vec![],
        }
    }
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Instructions in execution order.
    pub insts: Vec<Inst>,
    /// The terminator.
    pub term: Terminator,
}

/// Metadata about one function variable.
#[derive(Debug, Clone, PartialEq)]
pub struct VarInfo {
    /// Source name, or a generated name for temporaries.
    pub name: String,
    /// Resolved type.
    pub ty: Ty,
    /// True for compiler-generated temporaries.
    pub is_temp: bool,
}

/// A function in IR form.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Parameters (always the first `params.len()` entries of `vars`).
    pub params: Vec<VarId>,
    /// Return type (`Ty::Unit` for none).
    pub ret: Ty,
    /// All variables: parameters, named locals, temporaries.
    pub vars: Vec<VarInfo>,
    /// Basic blocks; entry is block 0.
    pub blocks: Vec<Block>,
    /// Source loop tags: header block of a tagged source loop → tag.
    pub loop_tags: std::collections::HashMap<BlockId, String>,
}

impl Function {
    /// The entry block (always `bb0`).
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Iterator over block ids.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Access a block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Variable metadata.
    pub fn var(&self, id: VarId) -> &VarInfo {
        &self.vars[id.index()]
    }
}

/// A global variable.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalInfo {
    /// Global name.
    pub name: String,
    /// Resolved type (scalar or fixed array).
    pub ty: Ty,
    /// Constant scalar initializer (zero if absent).
    pub init: Option<Operand>,
}

/// A whole program in IR form.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Struct layouts, indexed by [`StructId`].
    pub structs: Vec<StructInfo>,
    /// Globals, indexed by [`GlobalId`].
    pub globals: Vec<GlobalInfo>,
    /// Functions, indexed by [`FuncId`].
    pub funcs: Vec<Function>,
    derived: Derived,
}

/// One value derived from a module on first use and kept beside it for
/// the module's lifetime: the interpreter's compiled code and the runs it
/// shares between callers. It is not part of the module's meaning, so a
/// clone starts empty and equality ignores it. A module must not be
/// mutated once the value has been derived.
#[derive(Default)]
struct Derived(OnceLock<Box<dyn Any + Send + Sync>>);

impl Clone for Derived {
    fn clone(&self) -> Self {
        Derived::default()
    }
}

impl PartialEq for Derived {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for Derived {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = if self.0.get().is_some() {
            "derived"
        } else {
            "empty"
        };
        f.write_str(state)
    }
}

impl Module {
    /// Assembles a module; nothing is derived from it yet.
    pub fn new(structs: Vec<StructInfo>, globals: Vec<GlobalInfo>, funcs: Vec<Function>) -> Self {
        Module {
            structs,
            globals,
            funcs,
            derived: Derived::default(),
        }
    }

    /// The value derived from this module by `init`, built on the first
    /// call and shared by every later one. One module holds one derived
    /// value, of one type.
    ///
    /// # Panics
    ///
    /// Panics if a value of another type was derived first.
    pub fn derived<T: Any + Send + Sync>(&self, init: impl FnOnce(&Module) -> T) -> &T {
        self.derived
            .0
            .get_or_init(|| Box::new(init(self)))
            .downcast_ref()
            .expect("a module derives one value type")
    }

    /// Finds a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// The `main` function, if present.
    pub fn main(&self) -> Option<FuncId> {
        self.func_by_name("main")
    }

    /// Access a function.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefixes() {
        assert_eq!(VarId(3).to_string(), "v3");
        assert_eq!(BlockId(0).to_string(), "bb0");
        assert_eq!(GlobalId(1).to_string(), "g1");
    }

    #[test]
    fn inst_def_and_uses() {
        let i = Inst::Bin {
            dst: VarId(0),
            op: BinOp::Add,
            a: Operand::Var(VarId(1)),
            b: Operand::ConstInt(2),
        };
        assert_eq!(i.def(), Some(VarId(0)));
        assert_eq!(i.uses(), vec![VarId(1)]);
    }

    #[test]
    fn store_has_no_def_but_uses_base() {
        let i = Inst::StoreIndex {
            base: MemBase::Var(VarId(5)),
            index: Operand::Var(VarId(6)),
            value: Operand::ConstFloat(1.0),
        };
        assert_eq!(i.def(), None);
        assert_eq!(i.uses(), vec![VarId(5), VarId(6)]);
        assert!(i.has_side_effects());
    }

    #[test]
    fn terminator_successors() {
        let succs = |t: Terminator| t.successors().collect::<Vec<_>>();
        assert_eq!(succs(Terminator::Jump(BlockId(2))), vec![BlockId(2)]);
        assert_eq!(
            succs(Terminator::Branch {
                cond: Operand::ConstBool(true),
                then_bb: BlockId(1),
                else_bb: BlockId(2),
            }),
            vec![BlockId(1), BlockId(2)]
        );
        assert!(succs(Terminator::Return(None)).is_empty());
    }

    #[test]
    fn commutative_ops() {
        assert!(BinOp::Add.is_commutative());
        assert!(BinOp::Mul.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
        assert!(!BinOp::Div.is_commutative());
    }

    #[test]
    fn intrinsic_from_name() {
        assert_eq!(Intrinsic::from_name("sqrt"), Some(Intrinsic::Sqrt));
        assert_eq!(Intrinsic::from_name("nope"), None);
    }
}
