//! The exact workloads of the paper's evaluation (Table 2).
//!
//! All three workloads are 30 windows of 500 queries (15,000 queries)
//! over a four-column table, in three phases of 10 windows:
//!
//! * **W1** — phases 1/3 alternate mixes `A,A,B,B,…` (minor shifts every
//!   1,000 queries); phase 2 alternates `C,C,D,D,…`.
//! * **W2** — same phases, but minor shifts every 500 queries
//!   (`A,B,A,B,…` / `C,D,C,D,…`).
//! * **W3** — same minor-shift period as W1 but out of phase: `B,B,A,A,…`
//!   / `D,D,C,C,…`.
//!
//! The two *major shifts* (phase boundaries at queries 5,000 and
//! 10,000) are what a `k = 2` constrained design is expected to track.

use crate::mix::QueryMix;
use crate::spec::WorkloadSpec;

/// Scale parameters for the paper workloads.
#[derive(Clone, Debug)]
pub struct PaperParams {
    /// Target table name.
    pub table: String,
    /// Predicate value domain `[0, domain)`; the paper used 500,000.
    pub domain: i64,
    /// Queries per window; the paper's Table 2 rows are 500 queries.
    pub window_len: usize,
}

impl Default for PaperParams {
    fn default() -> Self {
        PaperParams {
            table: "t".into(),
            domain: 500_000,
            window_len: 500,
        }
    }
}

/// Expand a per-window mix-name pattern into a spec. Range templates
/// (mixes `E`/`F`) use a span of 1% of the domain so range selectivity
/// stays constant across scale parameters.
fn from_pattern(params: &PaperParams, pattern: &[char]) -> WorkloadSpec {
    let span = (params.domain / 100).max(1);
    let windows = pattern
        .iter()
        .map(|c| match c {
            'A' => QueryMix::paper_a(),
            'B' => QueryMix::paper_b(),
            'C' => QueryMix::paper_c(),
            'D' => QueryMix::paper_d(),
            'E' => QueryMix::paper_e(span),
            'F' => QueryMix::paper_f(span),
            'G' => QueryMix::paper_g(),
            'H' => QueryMix::paper_h(),
            other => unreachable!("unknown mix {other}"),
        })
        .collect();
    WorkloadSpec::new(
        params.table.clone(),
        params.domain,
        params.window_len,
        windows,
    )
    .expect("paper patterns are valid")
}

/// The 30-window mix pattern of W1 (Table 2, column `W1`).
pub const W1_PATTERN: [char; 30] = [
    'A', 'A', 'B', 'B', 'A', 'A', 'B', 'B', 'A', 'A', // phase 1
    'C', 'C', 'D', 'D', 'C', 'C', 'D', 'D', 'C', 'C', // phase 2
    'A', 'A', 'B', 'B', 'A', 'A', 'B', 'B', 'A', 'A', // phase 3
];

/// The 30-window mix pattern of W2 (minor shifts every window).
pub const W2_PATTERN: [char; 30] = [
    'A', 'B', 'A', 'B', 'A', 'B', 'A', 'B', 'A', 'B', 'C', 'D', 'C', 'D', 'C', 'D', 'C', 'D', 'C',
    'D', 'A', 'B', 'A', 'B', 'A', 'B', 'A', 'B', 'A', 'B',
];

/// The 30-window mix pattern of W3 (W1 with minor shifts out of phase).
pub const W3_PATTERN: [char; 30] = [
    'B', 'B', 'A', 'A', 'B', 'B', 'A', 'A', 'B', 'B', 'D', 'D', 'C', 'C', 'D', 'D', 'C', 'C', 'D',
    'D', 'B', 'B', 'A', 'A', 'B', 'B', 'A', 'A', 'B', 'B',
];

/// Workload W1 at paper scale.
pub fn w1() -> WorkloadSpec {
    w1_with(&PaperParams::default())
}

/// Workload W1 with custom scale.
pub fn w1_with(params: &PaperParams) -> WorkloadSpec {
    from_pattern(params, &W1_PATTERN)
}

/// Workload W2 at paper scale.
pub fn w2() -> WorkloadSpec {
    w2_with(&PaperParams::default())
}

/// Workload W2 with custom scale.
pub fn w2_with(params: &PaperParams) -> WorkloadSpec {
    from_pattern(params, &W2_PATTERN)
}

/// Workload W3 at paper scale.
pub fn w3() -> WorkloadSpec {
    w3_with(&PaperParams::default())
}

/// Workload W3 with custom scale.
pub fn w3_with(params: &PaperParams) -> WorkloadSpec {
    from_pattern(params, &W3_PATTERN)
}

/// The 30-window pattern of W4: range/IN-heavy phases (`E`/`F`)
/// bracketing a disjunction-heavy middle phase (`G`/`H`). Same phase
/// boundaries as W1–W3 (queries 5,000 and 10,000 at paper scale).
pub const W4_PATTERN: [char; 30] = [
    'E', 'E', 'F', 'F', 'E', 'E', 'F', 'F', 'E', 'E', // phase 1
    'G', 'G', 'H', 'H', 'G', 'G', 'H', 'H', 'G', 'G', // phase 2
    'E', 'E', 'F', 'F', 'E', 'E', 'F', 'F', 'E', 'E', // phase 3
];

/// The 30-window pattern of W5: W4 with the phases inverted —
/// disjunction-heavy outer phases, range/IN-heavy middle.
pub const W5_PATTERN: [char; 30] = [
    'G', 'G', 'H', 'H', 'G', 'G', 'H', 'H', 'G', 'G', // phase 1
    'E', 'E', 'F', 'F', 'E', 'E', 'F', 'F', 'E', 'E', // phase 2
    'G', 'G', 'H', 'H', 'G', 'G', 'H', 'H', 'G', 'G', // phase 3
];

/// Workload W4 (range/IN-heavy) at paper scale.
pub fn w4() -> WorkloadSpec {
    w4_with(&PaperParams::default())
}

/// Workload W4 with custom scale.
pub fn w4_with(params: &PaperParams) -> WorkloadSpec {
    from_pattern(params, &W4_PATTERN)
}

/// Workload W5 (disjunction-heavy) at paper scale.
pub fn w5() -> WorkloadSpec {
    w5_with(&PaperParams::default())
}

/// Workload W5 with custom scale.
pub fn w5_with(params: &PaperParams) -> WorkloadSpec {
    from_pattern(params, &W5_PATTERN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn w1_matches_table2() {
        let spec = w1();
        assert_eq!(spec.total_queries(), 15_000);
        assert_eq!(spec.window_count(), 30);
        let labels = spec.window_labels().join("");
        assert_eq!(labels, "AABBAABBAACCDDCCDDCCAABBAABBAA");
    }

    #[test]
    fn w2_has_minor_shift_every_window() {
        let labels = w2().window_labels().join("");
        assert_eq!(labels, "ABABABABABCDCDCDCDCDABABABABAB");
    }

    #[test]
    fn w3_is_w1_out_of_phase() {
        let w1l = w1().window_labels().join("");
        let w3l = w3().window_labels().join("");
        // Every window label differs (A↔B, C↔D swapped).
        for (a, b) in w1l.chars().zip(w3l.chars()) {
            assert_ne!(a, b);
        }
        assert_eq!(w3l, "BBAABBAABBDDCCDDCCDDBBAABBAABB");
    }

    /// Fig. 3's W2/W3 order, as a count: W1's unconstrained schedule
    /// follows W1's mix window by window, so W2 and W3 pay for every
    /// window whose mix differs from W1's. W2 runs the other mix in half
    /// the windows and W3 in all of them, so W3's penalty is about twice
    /// W2's whatever a mismatched window costs.
    #[test]
    fn fig3_mismatched_windows_per_pattern() {
        let mismatched = |pattern: &[char; 30]| {
            pattern
                .iter()
                .zip(&W1_PATTERN)
                .filter(|(p, w)| p != w)
                .count()
        };
        assert_eq!(mismatched(&W1_PATTERN), 0);
        assert_eq!(mismatched(&W2_PATTERN), 15);
        assert_eq!(mismatched(&W3_PATTERN), 30);
    }

    #[test]
    fn major_shifts_align_across_workloads() {
        // Phases: windows 0..10 use {A,B}, 10..20 use {C,D}, 20..30 {A,B}.
        for spec in [w1(), w2(), w3()] {
            for (i, label) in spec.window_labels().iter().enumerate() {
                let phase2 = (10..20).contains(&i);
                let in_cd = matches!(*label, "C" | "D");
                assert_eq!(phase2, in_cd, "window {i} of some workload");
            }
        }
    }

    #[test]
    fn w4_and_w5_exercise_the_predicate_vocabulary() {
        let params = PaperParams {
            domain: 1000,
            window_len: 100,
            ..Default::default()
        };
        for (spec, outer, inner) in [
            (w4_with(&params), "EF", "GH"),
            (w5_with(&params), "GH", "EF"),
        ] {
            assert_eq!(spec.window_count(), 30);
            for (i, label) in spec.window_labels().iter().enumerate() {
                let expect = if (10..20).contains(&i) { inner } else { outer };
                assert!(
                    expect.contains(*label),
                    "window {i} labelled {label}, expected one of {expect}"
                );
            }
        }
        // Generated statements actually include ranges, IN-lists, and
        // disjunctions (the point of the new vocabulary).
        let trace = crate::generate(&w4_with(&params), 11);
        let (mut ranges, mut ins, mut ors) = (0, 0, 0);
        for stmt in trace.statements() {
            for c in stmt.conditions() {
                match c {
                    cdpd_sql::Condition::Range { .. } => ranges += 1,
                    cdpd_sql::Condition::In { .. } => ins += 1,
                    cdpd_sql::Condition::Or(_) => ors += 1,
                    cdpd_sql::Condition::Eq { .. } => {}
                }
            }
        }
        assert!(ranges > 100, "only {ranges} range predicates");
        assert!(ins > 100, "only {ins} IN predicates");
        assert!(ors > 100, "only {ors} OR predicates");
    }

    #[test]
    fn custom_scale() {
        let p = PaperParams {
            table: "orders".into(),
            domain: 1000,
            window_len: 50,
        };
        let spec = w1_with(&p);
        assert_eq!(spec.table, "orders");
        assert_eq!(spec.total_queries(), 1500);
    }
}
