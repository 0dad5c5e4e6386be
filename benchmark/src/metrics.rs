//! The metric vocabulary: every name and unit the benchmark prints.
//! `BENCHMARK.json` lists the same names; a unit test keeps them equal.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric. All five workloads report
/// all of them with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("pages_per_op", "pages"),
    ("peak_rss_mb", "MiB"),
];

/// Which direction of an end-to-end metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// `(name, direction, bound)` for [`END_TO_END`], in the same order:
/// the share of the parent's median by which a metric may get worse
/// before a change counts as a regression. Every timing, and peak
/// memory, sits at the largest bound a benchmark may declare: on this
/// class of host a pure CPU loop runs 180 ms or 237 ms for tens of
/// seconds at a stretch, and ten runs of single-threaded `advise` spread
/// by 22% of their median. The page count repeats exactly on
/// `serve-scan` and to a few percent elsewhere, but single `adapt` runs
/// have landed 10% apart.
pub const BOUNDS: &[(&str, Better, f64)] = &[
    ("setup_s", Better::Lower, 0.25),
    ("ops_per_s", Better::Higher, 0.25),
    ("lat_p50_us", Better::Lower, 0.25),
    ("lat_p99_us", Better::Lower, 0.25),
    ("pages_per_op", Better::Lower, 0.15),
    ("peak_rss_mb", Better::Lower, 0.25),
];

/// `(name, unit)` of every per-layer metric, layer = module name. All
/// five workloads print all of them with `--trace 1`; a metric whose
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The run itself.
    ("run.failed_share", "ratio"),
    // cdpd-server.
    ("server.ping_rtt_us", "us"),
    ("server.frame_codec_ns", "ns"),
    ("server.result_codec_ns", "ns"),
    ("server.bytes_per_op", "bytes"),
    ("server.wire_share", "ratio"),
    ("server.read_lat_p99_us", "us"),
    // cdpd-sql.
    ("sql.parse_ns", "ns"),
    // cdpd-engine.
    ("engine.plan_ns", "ns"),
    ("engine.exec_ns", "ns"),
    ("engine.stmt_ns", "ns"),
    ("engine.pages_per_row", "pages"),
    ("engine.update_ns", "ns"),
    ("engine.commit_ns", "ns"),
    ("engine.create_index_ms", "ms"),
    ("engine.create_index_pages", "pages"),
    ("engine.refresh_stats_us", "us"),
    ("engine.whatif_ns", "ns"),
    ("engine.par_speedup", "ratio"),
    // cdpd-storage.
    ("storage.pager_read_ns", "ns"),
    ("storage.pager_read_miss_ns", "ns"),
    ("storage.heap_scan_ns_per_row", "ns"),
    ("storage.btree_seek_ns", "ns"),
    ("storage.btree_pages_per_seek", "pages"),
    ("storage.btree_insert_ns", "ns"),
    ("storage.bulk_load_ns_per_entry", "ns"),
    ("storage.commit_ns", "ns"),
    ("storage.wal_bytes_per_commit", "bytes"),
    ("storage.fsyncs_per_commit", "count"),
    ("storage.writeback_pages_per_commit", "pages"),
    ("storage.checkpoints", "count"),
    ("storage.checkpoint_ms", "ms"),
    ("storage.cache_hit_rate", "ratio"),
    ("storage.space_amp", "ratio"),
    ("storage.recovery_ms", "ms"),
    // cdpd-core.
    ("core.solve_ms", "ms"),
    ("core.whatif_calls", "count"),
    ("core.oracle_hit_rate", "ratio"),
    ("core.decompose_active", "count"),
    // cdpd (advisor, online).
    ("advisor.recommend_ms", "ms"),
    ("advisor.schedule_cost_pages", "pages"),
    ("advisor.candidates_ms", "ms"),
    ("advisor.oracle_build_ms", "ms"),
    ("online.ingest_ns", "ns"),
    ("online.seal_ms", "ms"),
    ("online.solve_share", "ratio"),
    ("online.design_changes", "count"),
    ("online.apply_ms", "ms"),
    ("online.advisor_errors", "count"),
    // cdpd-workload.
    ("workload.generate_stmts_per_s", "1/s"),
    ("workload.summarize_ms", "ms"),
    // The measurement itself.
    ("obs.trace_overhead", "ratio"),
    ("layers.unaccounted_share", "ratio"),
];

/// Measured values of one metric family, keyed by name.
pub struct Values {
    defs: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    /// Empty set over `defs`; per-layer sets start at 0 everywhere.
    pub fn new(defs: &'static [(&'static str, &'static str)]) -> Values {
        Values {
            defs,
            values: BTreeMap::new(),
        }
    }

    /// Record `name = value`.
    ///
    /// # Panics
    /// `name` must be in this family's vocabulary and `value` finite.
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = self
            .defs
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the vocabulary"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(key, value);
    }

    /// `(name, value, unit)` in vocabulary order; unset metrics read 0.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.defs
            .iter()
            .map(|(n, u)| (*n, self.values.get(n).copied().unwrap_or(0.0), *u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The objects of the array that follows `"key": [` in
    /// `BENCHMARK.json`, as raw text.
    fn objects<'j>(json: &'j str, key: &str) -> Vec<&'j str> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split('{').skip(1).collect()
    }

    /// The value of field `f` in a flat JSON object, quotes stripped.
    fn field(obj: &str, f: &str) -> String {
        let at = obj.find(&format!("\"{f}\"")).expect("field present");
        let rest = obj[at + f.len() + 2..].trim_start_matches([':', ' ']);
        let end = rest.find([',', '}']).expect("value ends");
        rest[..end].trim().trim_matches('"').to_owned()
    }

    #[test]
    fn benchmark_json_names_the_same_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = |key: &str| -> Vec<(String, String)> {
            objects(json, key)
                .iter()
                .map(|o| (field(o, "name"), field(o, "unit")))
                .collect()
        };
        let own = |defs: &[(&str, &str)]| -> Vec<(String, String)> {
            defs.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(END_TO_END));
        assert_eq!(declared("per_layer"), own(PER_LAYER));
        let bounds: Vec<(String, String, f64)> = objects(json, "end_to_end")
            .iter()
            .map(|o| {
                (
                    field(o, "name"),
                    field(o, "better"),
                    field(o, "bound").parse().expect("numeric bound"),
                )
            })
            .collect();
        let own: Vec<(String, String, f64)> = BOUNDS
            .iter()
            .map(|(n, b, bound)| {
                let better = if *b == Better::Lower {
                    "lower"
                } else {
                    "higher"
                };
                ((*n).to_owned(), better.to_owned(), *bound)
            })
            .collect();
        assert_eq!(bounds, own);
        let workloads: Vec<String> = objects(json, "workloads")
            .iter()
            .map(|o| field(o, "name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} is used twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    #[should_panic(expected = "not in the vocabulary")]
    fn unknown_names_are_refused() {
        Values::new(END_TO_END).set("latency", 1.0);
    }
}
