//! Pins the frontend's output, so that a change to how programs are
//! lexed, parsed, checked and lowered, or to how a function's CFG,
//! dominators and loops are built, shows up as a diff here rather than
//! as a drift in some verdict or cache key far downstream.
//!
//! Four tables, all in `tests/lower_pins.txt`, over the 24 suite
//! programs and the generated archetype programs (`tests/support`,
//! seeds 0–7):
//!
//! * `ir`: a digest of each module: structs and globals, then per
//!   function its printed IR, its variable table and its loop tags;
//! * `cfg`: per function, the reverse postorder, each block's immediate
//!   dominator and innermost loop, and a digest of the edge lists;
//! * `loop`: each natural loop: id, header, blocks, latches, exit
//!   edges, parent, children, depth and tag;
//! * `err`: each suite program cut at 16 byte offsets and with 16 single
//!   tokens deleted: the error's kind, position and message, or a digest
//!   of the module when the damaged source still compiles.

mod support;

use dca::ir::{FuncView, Module};
use dca_rng::Rng;
use std::fmt::Write as _;
use support::ARCHETYPES;

const PINS: &str = include_str!("lower_pins.txt");

/// Cut points and deleted tokens per suite program.
const DAMAGES: usize = 16;

/// The pinned lines of one table.
fn pinned(table: &str) -> Vec<&'static str> {
    PINS.lines()
        .filter(|l| l.split_whitespace().next() == Some(table))
        .collect()
}

/// Compares the computed lines of one table with the pinned ones and
/// names every line that differs.
fn check(table: &str, actual: &[String]) {
    let expected = pinned(table);
    let diffs: Vec<String> = (0..expected.len().max(actual.len()))
        .filter_map(|i| {
            let (e, a) = (expected.get(i).copied(), actual.get(i).map(String::as_str));
            (e != a).then(|| format!("  pinned: {e:?}\n  actual: {a:?}"))
        })
        .take(20)
        .collect();
    assert!(
        diffs.is_empty(),
        "`{table}` lines differ from the {} pinned (first 20 shown):\n{}\nactual table:\n{}",
        expected.len(),
        diffs.join("\n"),
        actual.join("\n")
    );
}

/// FNV-1a over a string.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Everything a module holds, as text: structs and globals, then per
/// function its printed IR, parameters, variable table and loop tags in
/// header order.
fn module_text(m: &Module) -> String {
    let mut out = format!("{:?}\n{:?}\n", m.structs, m.globals);
    for f in &m.funcs {
        let mut tags: Vec<_> = f.loop_tags.iter().collect();
        tags.sort();
        let _ = writeln!(out, "{f}\n{:?}\n{:?}\n{tags:?}", f.params, f.vars);
    }
    out
}

/// The sources under test: the suite programs, then the generated ones.
fn sources() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = dca::suite::all_programs()
        .into_iter()
        .map(|p| (p.name.to_string(), p.source.to_string()))
        .collect();
    for seed in 0..8 {
        let mut rng = Rng::seed_from_u64(seed);
        for a in ARCHETYPES {
            let n = rng.range_usize(2, 80);
            let k = rng.range_i64(-5, 30);
            out.push((format!("gen{seed}-{a:?}"), a.source(n, k)));
        }
    }
    out
}

fn list<T: std::fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    items
        .into_iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

#[test]
fn modules_are_pinned() {
    let actual: Vec<String> = sources()
        .iter()
        .map(|(name, src)| {
            let m = dca::ir::compile(src).expect("pinned source compiles");
            format!("ir {name} {:016x}", digest(&module_text(&m)))
        })
        .collect();
    check("ir", &actual);
}

#[test]
fn function_views_are_pinned() {
    let (mut cfgs, mut loops) = (Vec::new(), Vec::new());
    for (name, src) in sources() {
        let m = dca::ir::compile(&src).expect("pinned source compiles");
        for (i, f) in m.funcs.iter().enumerate() {
            let v = FuncView::new(&m, dca::ir::FuncId(i as u32));
            let opt = |b: Option<String>| b.unwrap_or_else(|| "-".into());
            let mut edges = String::new();
            for b in f.block_ids() {
                let _ = writeln!(edges, "{:?} {:?}", v.cfg.preds(b), v.cfg.succs(b));
            }
            cfgs.push(format!(
                "cfg {name} {} rpo={} idom={} inner={} edges={:016x}",
                f.name,
                list(v.cfg.reverse_postorder().iter().map(|b| b.0)),
                list(
                    f.block_ids()
                        .map(|b| opt(v.dom.idom(b).map(|d| d.0.to_string())))
                ),
                list(
                    f.block_ids()
                        .map(|b| opt(v.loops.innermost(b).map(|l| l.0.to_string())))
                ),
                digest(&edges)
            ));
            for l in v.loops.iter() {
                loops.push(format!(
                    "loop {name} {} {} header={} blocks={} latches={} exits={} parent={} \
                     children={} depth={} tag={}",
                    f.name,
                    l.id,
                    l.header,
                    list(l.blocks.iter().map(|b| b.0)),
                    list(l.latches.iter().map(|b| b.0)),
                    list(l.exit_edges.iter().map(|(a, b)| format!("{}>{}", a.0, b.0))),
                    opt(l.parent.map(|p| p.to_string())),
                    list(&l.children),
                    l.depth,
                    opt(l.tag.clone())
                ));
            }
        }
    }
    check("cfg", &cfgs);
    check("loop", &loops);
}

/// One damaged source's outcome: the error, or the module's digest.
fn outcome(src: &str) -> String {
    match dca::ir::compile(src) {
        Ok(m) => format!("ok {:016x}", digest(&module_text(&m))),
        Err(e) => format!("{:?} {} {}", e.kind(), e.pos(), e.message()),
    }
}

#[test]
fn frontend_errors_are_pinned() {
    let mut actual = Vec::new();
    for p in dca::suite::all_programs() {
        let src = p.source;
        for k in 1..=DAMAGES {
            let mut cut = src.len() * k / (DAMAGES + 1);
            while !src.is_char_boundary(cut) {
                cut -= 1;
            }
            actual.push(format!("err {} cut{cut} {}", p.name, outcome(&src[..cut])));
        }
        // Byte offset of each token's start (columns count bytes).
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(src.match_indices('\n').map(|(i, _)| i + 1))
            .collect();
        let starts: Vec<usize> = dca::lang::lex(src)
            .expect("suite program lexes")
            .iter()
            .map(|t| line_starts[t.pos.line as usize - 1] + t.pos.col as usize - 1)
            .collect();
        // The last start is the end-of-input token's.
        let tokens = starts.len() - 1;
        for k in 1..=DAMAGES {
            let t = tokens * k / (DAMAGES + 1);
            let damaged = format!("{}{}", &src[..starts[t]], &src[starts[t + 1]..]);
            actual.push(format!("err {} del{t} {}", p.name, outcome(&damaged)));
        }
    }
    check("err", &actual);
}
