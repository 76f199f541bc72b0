//! Analyzes every suite program on its test workload and prints one
//! stable line per loop verdict, plus a trailing aggregate
//! `cache-stats:` line: the cache counters when a verdict cache is
//! configured, and always the program-end suffix elision counters
//! (`suffix_elided` replays, `suffix_steps_elided` golden steps not
//! re-interpreted).
//!
//! CI's `cache` job runs this twice against one `DCA_CACHE` file and
//! fails when the verdict lines differ between runs or the second run
//! serves zero hits — the executable end-to-end proof that warm
//! verdicts are indistinguishable from fresh ones — or when the cold run
//! elided no suffix, so the optimisation cannot switch off silently.
//!
//! The verdict lines deliberately include the full verdict payload
//! (violation details, trip counts, permutation counts, replay steps)
//! so a cached verdict that drifted in *any* field breaks the diff, not
//! just one whose headline class changed. Provenance fields that are
//! expected to differ between cold and warm runs (`cached`, wall time)
//! are deliberately absent.

use dca_core::{Dca, DcaConfig, ObsOptions};
use std::process::ExitCode;

fn main() -> ExitCode {
    // Metrics are verdict-neutral (not part of the cache key); they
    // only feed the elision counters below.
    let dca = Dca::new(DcaConfig {
        obs: ObsOptions::metrics(),
        ..DcaConfig::fast()
    });
    let mut totals = (0u64, 0u64, 0u64, 0u64); // hits, misses, stores, faults
    let mut bypassed = 0u64;
    let mut elided = (0u64, 0u64); // replays, steps
    let mut saw_stats = false;
    for p in dca_suite::all_programs() {
        let m = p.module();
        let report = match dca.analyze(&m, &p.targs()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {}: {e}", p.name);
                return ExitCode::FAILURE;
            }
        };
        for r in report.iter() {
            let tag = r
                .tag
                .as_deref()
                .map(|t| format!(" @{t}"))
                .unwrap_or_default();
            println!(
                "{} {}{tag}: {} trips={} perms={} steps={}",
                p.name, r.lref, r.verdict, r.trips, r.permutations_tested, r.replay_steps
            );
        }
        if let Some(o) = &report.obs {
            elided.0 += o.counter("verify.suffix_elided");
            elided.1 += o.counter("verify.suffix_steps_elided");
        }
        if let Some(s) = &report.cache {
            saw_stats = true;
            totals.0 += s.hits;
            totals.1 += s.misses;
            totals.2 += s.stores;
            totals.3 += s.faults;
            bypassed += u64::from(s.bypassed);
        }
    }
    let (elided, elided_steps) = elided;
    let suffix = format!("suffix_elided={elided} suffix_steps_elided={elided_steps}");
    if saw_stats {
        let (hits, misses, stores, faults) = totals;
        let consults = hits + misses;
        let rate = if consults > 0 {
            100.0 * hits as f64 / consults as f64
        } else {
            0.0
        };
        println!(
            "cache-stats: hits={hits} misses={misses} stores={stores} \
             faults={faults} bypassed={bypassed} hit_rate={rate:.1}% {suffix}"
        );
    } else {
        println!("cache-stats: disabled (set DCA_CACHE) {suffix}");
    }
    ExitCode::SUCCESS
}
