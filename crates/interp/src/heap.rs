//! The heap: every object's cells in one arena.
//!
//! Objects are only ever appended during execution and only ever dropped
//! from the end (a journal rollback discards the objects allocated since
//! it was armed), so the heap keeps all cells back to back in one buffer
//! and, per object, where its cells sit. A snapshot, a restore and a
//! rollback are then copies or truncations of two buffers, whatever the
//! number of objects, and an allocation extends the arena in place.

use crate::value::{Addr, ObjId, Value};

/// Where one object's cells sit in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    start: u32,
    len: u32,
}

/// Heap objects in allocation order (a machine's globals first): their
/// cells back to back in one arena, and each object's place in it.
///
/// Equality compares the objects and their cells (floats by IEEE
/// equality).
#[derive(Debug, Default, PartialEq)]
pub struct Heap {
    cells: Vec<Value>,
    objs: Vec<Span>,
}

impl Clone for Heap {
    fn clone(&self) -> Self {
        Heap {
            cells: self.cells.clone(),
            objs: self.objs.clone(),
        }
    }

    /// Copies into the buffers `self` already has.
    fn clone_from(&mut self, src: &Self) {
        self.cells.clone_from(&src.cells);
        self.objs.clone_from(&src.objs);
    }
}

impl Heap {
    /// The most cells a heap holds: cell offsets are 32-bit.
    pub(crate) const MAX_CELLS: u64 = u32::MAX as u64;

    /// Number of objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.objs.len()
    }

    /// True when the heap holds no object.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.objs.is_empty()
    }

    /// Cells of all objects together.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// The cells of object `o`.
    ///
    /// # Panics
    ///
    /// Panics if `o` does not name an object of this heap.
    #[inline(always)]
    #[must_use]
    pub fn obj(&self, o: ObjId) -> &[Value] {
        let s = self.objs[o.index()];
        &self.cells[s.start as usize..(s.start + s.len) as usize]
    }

    /// Every object's cells, in allocation order.
    pub fn objs(&self) -> impl ExactSizeIterator<Item = &[Value]> + '_ {
        self.objs
            .iter()
            .map(|s| &self.cells[s.start as usize..(s.start + s.len) as usize])
    }

    /// The length of object `o` in cells.
    #[inline(always)]
    pub(crate) fn obj_len(&self, o: ObjId) -> usize {
        self.objs[o.index()].len as usize
    }

    /// The arena index of `addr`'s cell.
    #[inline(always)]
    fn at(&self, addr: Addr) -> usize {
        let s = self.objs[addr.obj.index()];
        debug_assert!(addr.cell < s.len, "cell {addr} within its object");
        s.start as usize + addr.cell as usize
    }

    /// Reads one cell.
    ///
    /// # Panics
    ///
    /// Panics if `addr` does not name a cell of this heap.
    #[inline(always)]
    #[must_use]
    pub fn get(&self, addr: Addr) -> Value {
        self.cells[self.at(addr)]
    }

    /// Overwrites one cell.
    #[inline(always)]
    pub(crate) fn set(&mut self, addr: Addr, v: Value) {
        let i = self.at(addr);
        self.cells[i] = v;
    }

    /// Appends an object of `n` cells holding `v`. The caller keeps the
    /// arena within [`Heap::MAX_CELLS`].
    pub(crate) fn push_filled(&mut self, v: Value, n: usize) -> ObjId {
        let start = self.cells.len();
        self.cells.resize(start + n, v);
        self.push_span(start, n)
    }

    /// Appends an object holding a copy of `cells`. The caller keeps the
    /// arena within [`Heap::MAX_CELLS`].
    pub(crate) fn push_copy(&mut self, cells: &[Value]) -> ObjId {
        let start = self.cells.len();
        self.cells.extend_from_slice(cells);
        self.push_span(start, cells.len())
    }

    fn push_span(&mut self, start: usize, n: usize) -> ObjId {
        let id = ObjId(self.objs.len() as u32);
        self.objs.push(Span {
            start: start as u32,
            len: n as u32,
        });
        id
    }

    /// Drops every object from the `n`th on.
    pub(crate) fn truncate(&mut self, n: usize) {
        if let Some(s) = self.objs.get(n) {
            self.cells.truncate(s.start as usize);
            self.objs.truncate(n);
        }
    }

    /// A copy of the objects from the `from`th on, renumbered from 0:
    /// two slice copies.
    #[must_use]
    pub fn tail(&self, from: usize) -> Heap {
        let Some(first) = self.objs.get(from) else {
            return Heap::default();
        };
        let base = first.start;
        Heap {
            cells: self.cells[base as usize..].to_vec(),
            objs: self.objs[from..]
                .iter()
                .map(|s| Span {
                    start: s.start - base,
                    len: s.len,
                })
                .collect(),
        }
    }
}
