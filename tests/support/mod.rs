//! Loop archetypes with constructed ground truth, shared by the
//! generated-loop test suites: each archetype renders a complete program
//! whose tagged loop `@l` is commutative (or not) by construction.

// Each test binary uses a different subset of the helpers.
#![allow(dead_code)]

/// A loop archetype with known ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Archetype {
    /// `a[i] = f(b[i], i)` — always commutative, dependence-free.
    Map,
    /// `s = s op f(i)` — commutative; profiler accepts via reduction.
    Reduction,
    /// `h[f(i) % B] += g(i)` — commutative; RAW explained as histogram.
    Histogram,
    /// `a[i] = a[i - d] op c` — never commutative (exercised recurrence).
    Recurrence,
    /// `a[i] = b[(i + off) % n]` reading another array — commutative.
    Gather,
    /// `if (b[i] > t) { first = i (once) }` — first-match: not commutative.
    FirstMatch,
}

impl Archetype {
    pub fn commutative(self) -> bool {
        !matches!(self, Archetype::Recurrence | Archetype::FirstMatch)
    }

    /// Whether the dependence profiler's verdict is pinned by the
    /// archetype (FirstMatch is a scalar-control case it may or may not
    /// accept depending on recognition, so it is left unpinned).
    pub fn depprof(self) -> Option<bool> {
        match self {
            Archetype::Map | Archetype::Reduction | Archetype::Histogram | Archetype::Gather => {
                Some(true)
            }
            Archetype::Recurrence => Some(false),
            Archetype::FirstMatch => None,
        }
    }

    pub fn source(self, n: usize, k: i64) -> String {
        let prelude = format!(
            "fn main() -> int {{\n\
             let a: [int; 64]; let b: [int; 64]; let h: [int; 8];\n\
             let s: int = {k}; let first: int = 0 - 1;\n\
             for (let i: int = 0; i < 64; i = i + 1) {{ \
               a[i] = (i * {k} + 3) % 23; b[i] = (i * 7 + {k}) % 19; }}\n"
        );
        let body = match self {
            Archetype::Map => format!(
                "@l: for (let i: int = 0; i < {n}; i = i + 1) {{ \
                 a[i] = b[i] * {k} + i; }}"
            ),
            Archetype::Reduction => format!(
                "@l: for (let i: int = 0; i < {n}; i = i + 1) {{ \
                 s = s + (i * i + {k}); }}"
            ),
            Archetype::Histogram => format!(
                "@l: for (let i: int = 0; i < {n}; i = i + 1) {{ \
                 h[(i * {k} + 1) % 8] = h[(i * {k} + 1) % 8] + 1; }}"
            ),
            Archetype::Recurrence => format!(
                "@l: for (let i: int = 2; i < {n}; i = i + 1) {{ \
                 a[i] = a[i - 1] * 2 + a[i - 2] + {k}; }}"
            ),
            Archetype::Gather => format!(
                "@l: for (let i: int = 0; i < {n}; i = i + 1) {{ \
                 a[i] = b[(i + {k}) % 64]; }}"
            ),
            // Every other iteration matches, so at least two candidates
            // exist for n >= 4 and any reordering moves the first match.
            Archetype::FirstMatch => format!(
                "@l: for (let i: int = 0; i < {n}; i = i + 1) {{ \
                 if (i % 2 == 0 && first < 0) {{ first = i + {k}; }} }}"
            ),
        };
        let epilogue = "\nlet t: int = 0;\n\
             for (let i: int = 0; i < 64; i = i + 1) { t = t + a[i] * (i + 1) + h[i % 8]; }\n\
             print(t); print(s); print(first);\n\
             return t + s + first; }";
        format!("{prelude}{body}{epilogue}")
    }
}

pub const ARCHETYPES: [Archetype; 6] = [
    Archetype::Map,
    Archetype::Reduction,
    Archetype::Histogram,
    Archetype::Recurrence,
    Archetype::Gather,
    Archetype::FirstMatch,
];
