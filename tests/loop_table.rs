//! The iterator slice's dense loop table against the loop it was built
//! from.
//!
//! Replay and golden recording ask the slice's table, not the loop's
//! block set, whether a block is in the loop and whether an instruction
//! is iterator work. This checks on every loop of every suite program
//! that the table answers exactly as the loop and the slice's own counts
//! say it must.

use dca::analysis::{EffectMap, IteratorSlice};
use dca::ir::{FuncId, FuncView};

#[test]
fn dense_table_agrees_with_the_loop_on_the_suite() {
    let programs = dca::suite::all_programs();
    assert_eq!(programs.len(), 24);
    let mut loops = 0;
    for p in programs {
        let m = p.module();
        let effects = EffectMap::new(&m);
        for f in 0..m.funcs.len() {
            let view = FuncView::new(&m, FuncId(f as u32));
            let func = view.func;
            for l in view.loops.iter() {
                let what = format!("{} {} loop {}", p.name, func.name, l.id.0);
                let slice = IteratorSlice::compute_with(&view, l, &effects);
                let mut payload = 0;
                for b in func.block_ids() {
                    let len = func.block(b).insts.len();
                    let inside = l.blocks.contains(&b);
                    assert_eq!(slice.in_loop(b), inside, "{what}: block {}", b.0);
                    for i in 0..len {
                        let in_slice = slice.contains((b, i));
                        assert!(inside || !in_slice, "{what}: ({}, {i}) outside", b.0);
                        payload += usize::from(inside && !in_slice);
                    }
                    assert!(!slice.contains((b, len)), "{what}: past block {}", b.0);
                }
                assert_eq!(payload, slice.payload_insts, "{what}: payload count");
                loops += 1;
            }
        }
    }
    assert!(loops > 200, "only {loops} loops checked");
}
