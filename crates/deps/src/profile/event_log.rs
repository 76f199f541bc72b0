//! The footprint probe's former commit, kept as a test reference: each
//! iteration's accesses are logged as raw events, and the commit sorts
//! the log and scans it for net writes and upward-exposed reads. The
//! probe's per-cell fold must give the same [`LoopProfile`] for every
//! stream of calls. Shared by the probe's unit tests and the workspace's
//! recording tests.

// Each user takes a different part.
#![allow(dead_code)]

use super::{canonical_bits, CellWrite, FootprintProbe, IterFootprint, LoopProfile, Value};

/// A heap cell key: `(object id, cell index)`.
type Cell = (u32, u32);

/// One call a recorder makes on a footprint probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeCall {
    Begin(u64),
    Payload(bool),
    Read(u32, u32),
    Store(u32, u32, Value, Value),
    Commit(u64),
    DropPartial,
    Abort,
}

impl ProbeCall {
    /// Makes this call on `probe`.
    pub fn apply(self, probe: &mut FootprintProbe) {
        match self {
            ProbeCall::Begin(steps) => probe.begin_invocation(steps),
            ProbeCall::Payload(p) => probe.set_payload(p),
            ProbeCall::Read(obj, cell) => probe.read(obj, cell),
            ProbeCall::Store(obj, cell, old, new) => probe.store(obj, cell, old, new),
            ProbeCall::Commit(steps) => probe.commit_iter(steps),
            ProbeCall::DropPartial => probe.drop_partial(),
            ProbeCall::Abort => probe.abort_invocation(),
        }
    }
}

/// The profiles a probe and an event log of access cap `cap` give for
/// `calls`, in that order.
pub fn both(cap: usize, calls: &[ProbeCall]) -> (LoopProfile, LoopProfile) {
    let (mut probe, mut log) = (FootprintProbe::with_cap(cap), EventLog::with_cap(cap));
    for &c in calls {
        c.apply(&mut probe);
        log.call(c);
    }
    (probe.finish(), log.finish())
}

/// The probe's profile for `calls` at access cap `cap`, checked against
/// the event log's.
pub fn probed(cap: usize, calls: &[ProbeCall]) -> LoopProfile {
    let (fold, log) = both(cap, calls);
    assert!(same_profile(&fold, &log), "fold {fold:?}\nlog {log:?}");
    fold
}

/// One committed iteration's sets, owned.
#[derive(Default)]
struct Iter {
    reads: Vec<Cell>,
    writes: Vec<CellWrite>,
    slice_reads: Vec<Cell>,
    slice_writes: Vec<CellWrite>,
    steps: u64,
}

/// The event-log probe.
pub struct EventLog {
    active: bool,
    payload: bool,
    cap: usize,
    events_left: usize,
    iter_start_steps: u64,
    seq: u32,
    /// `(cell, seq, payload?)` per heap read.
    reads: Vec<(Cell, u32, bool)>,
    /// `(cell, seq, payload?, old, new)` per heap store.
    stores: Vec<(Cell, u32, bool, Value, Value)>,
    iters: Vec<Iter>,
    truncated: bool,
}

impl EventLog {
    pub fn with_cap(cap: usize) -> Self {
        EventLog {
            active: false,
            payload: false,
            cap,
            events_left: 0,
            iter_start_steps: 0,
            seq: 0,
            reads: Vec::new(),
            stores: Vec::new(),
            iters: Vec::new(),
            truncated: false,
        }
    }

    /// Makes one call.
    pub fn call(&mut self, call: ProbeCall) {
        match call {
            ProbeCall::Begin(steps) => {
                self.active = true;
                self.payload = false;
                self.events_left = self.cap;
                self.iter_start_steps = steps;
                self.clear();
            }
            ProbeCall::Payload(p) => self.payload = p,
            ProbeCall::Read(obj, cell) => {
                if let Some(seq) = self.event() {
                    self.reads.push(((obj, cell), seq, self.payload));
                }
            }
            ProbeCall::Store(obj, cell, old, new) => {
                if let Some(seq) = self.event() {
                    self.stores.push(((obj, cell), seq, self.payload, old, new));
                }
            }
            ProbeCall::Commit(steps) => self.commit(steps),
            ProbeCall::DropPartial => {
                self.active = false;
                self.events_left = 0;
                self.clear();
            }
            ProbeCall::Abort => {
                self.active = false;
                self.events_left = 0;
                self.clear();
                self.iters.clear();
                self.truncated = false;
            }
        }
    }

    fn clear(&mut self) {
        self.seq = 0;
        self.reads.clear();
        self.stores.clear();
    }

    /// The next event's sequence number, or `None` when it is dropped.
    fn event(&mut self) -> Option<u32> {
        if self.events_left == 0 {
            self.truncated |= self.active;
            return None;
        }
        self.events_left -= 1;
        self.seq += 1;
        Some(self.seq - 1)
    }

    fn commit(&mut self, steps: u64) {
        let mut it = Iter::default();
        // Collapse stores: per cell, per side, the first store's old
        // value and the last store's new value are the net effect, and
        // each cell's first-store sequence numbers (any side, slice side)
        // are the kill points of its reads.
        self.stores
            .sort_unstable_by_key(|&(cell, seq, ..)| (cell, seq));
        let mut kills: Vec<(Cell, u32, u32)> = Vec::new();
        let mut i = 0;
        while i < self.stores.len() {
            let cell = self.stores[i].0;
            let first_seq = self.stores[i].1;
            let mut first_slice_seq = u32::MAX;
            let mut pay: Option<(Value, Value)> = None;
            let mut sli: Option<(Value, Value)> = None;
            while i < self.stores.len() && self.stores[i].0 == cell {
                let (_, seq, payload, old, new) = self.stores[i];
                let side = if payload { &mut pay } else { &mut sli };
                match side {
                    Some((_, last)) => *last = new,
                    None => *side = Some((old, new)),
                }
                if !payload {
                    first_slice_seq = first_slice_seq.min(seq);
                }
                i += 1;
            }
            kills.push((cell, first_seq, first_slice_seq));
            for (net, out) in [(pay, &mut it.writes), (sli, &mut it.slice_writes)] {
                if let Some((first_old, last_new)) = net {
                    out.push(CellWrite {
                        obj: cell.0,
                        cell: cell.1,
                        first_old: canonical_bits(first_old),
                        last_new: canonical_bits(last_new),
                    });
                }
            }
        }
        // Upward exposure: a payload read survives only before the first
        // store (either side) to its cell, a slice read only before the
        // first slice store; each side is deduplicated.
        self.reads
            .sort_unstable_by_key(|&(cell, seq, _)| (cell, seq));
        for &(cell, seq, payload) in &self.reads {
            let kill = kills
                .binary_search_by_key(&cell, |&(c, ..)| c)
                .ok()
                .map(|k| if payload { kills[k].1 } else { kills[k].2 });
            if kill.is_some_and(|k| seq > k) {
                continue;
            }
            let out = if payload {
                &mut it.reads
            } else {
                &mut it.slice_reads
            };
            if out.last() != Some(&cell) {
                out.push(cell);
            }
        }
        it.steps = steps.saturating_sub(self.iter_start_steps);
        self.iters.push(it);
        self.clear();
        self.iter_start_steps = steps;
    }

    /// The committed iterations as a profile.
    pub fn finish(self) -> LoopProfile {
        let mut p = LoopProfile::from_iters(self.iters.iter().map(|it| IterFootprint {
            reads: &it.reads,
            writes: &it.writes,
            slice_reads: &it.slice_reads,
            slice_writes: &it.slice_writes,
            steps: it.steps,
        }));
        p.truncated = self.truncated;
        p
    }
}

/// Whether two profiles are equal: every iteration's sets and steps, in
/// order, and the truncation mark.
pub fn same_profile(a: &LoopProfile, b: &LoopProfile) -> bool {
    a.truncated == b.truncated && a.len() == b.len() && a.iters().eq(b.iters())
}
