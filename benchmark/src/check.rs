//! Correctness: a fixed projection of each job's simulated statistics,
//! its digest, and the pinned digests in `benchmark/expected/`.
//!
//! The projection names the statistics that exist today field by field,
//! so telemetry fields added later change neither the digest nor the
//! pins. A lab job and its traced rebuild, which yield different report
//! types, are compared through it.

use crate::stats::fnv1a64;
use hirise_lab::JobResult;
use hirise_manycore::SystemReport;
use hirise_sim::mesh_sim::MeshReport;
use hirise_sim::{LatencyHistogram, SimReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The canonical text of the projected statistics of one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Projection(String);

impl Projection {
    fn network(
        injected: u64,
        completed: u64,
        percentiles: [Option<f64>; 3],
        histogram: &LatencyHistogram,
        per_input: Option<&[u64]>,
        hops: Option<f64>,
        violations: u64,
    ) -> Self {
        let mut s = format!("injected={injected} completed={completed}");
        for (name, p) in ["p50", "p95", "p99"].iter().zip(percentiles) {
            let _ = write!(s, " {name}={}", bits(p));
        }
        s.push_str(" hist=");
        for (bucket, count) in histogram.sparse() {
            let _ = write!(s, "{bucket}:{count},");
        }
        if let Some(per_input) = per_input {
            let _ = write!(s, " per_input={per_input:?}");
        }
        if let Some(hops) = hops {
            let _ = write!(s, " hops={}", bits(Some(hops)));
        }
        let _ = write!(s, " violations={violations}");
        Self(s)
    }

    /// From a campaign record (either topology).
    pub fn from_job(r: &JobResult) -> Self {
        let m = &r.metrics;
        Self::network(
            m.injected,
            m.completed,
            [m.p50, m.p95, m.p99],
            &r.histogram,
            r.per_input_accepted.as_deref(),
            m.avg_hops,
            r.violations,
        )
    }

    /// From a single-switch report and its checker's violation count.
    pub fn from_sim(r: &SimReport, violations: u64) -> Self {
        Self::network(
            r.injected_measured(),
            r.completed_measured(),
            [50.0, 95.0, 99.0].map(|p| r.latency_percentile_cycles(p)),
            r.latency_histogram(),
            Some(r.per_input_accepted()),
            None,
            violations,
        )
    }

    /// From a routed-network report. Campaign records of routed jobs
    /// carry no violation count, so the rebuilt path's count must be 0
    /// for the two to agree.
    pub fn from_mesh(r: &MeshReport, violations: u64) -> Self {
        Self::network(
            r.injected_measured(),
            r.completed_measured(),
            [50.0, 95.0, 99.0].map(|p| r.latency_percentile_cycles(p)),
            r.latency_histogram(),
            None,
            Some(r.avg_hops()),
            violations,
        )
    }

    /// From a CMP run: the per-core IPCs stand in for the per-input
    /// counters, the delivered messages for the completed packets.
    pub fn from_system(r: &SystemReport) -> Self {
        let mut s = format!(
            "elapsed={} delivered={} net_latency={} mem_fills={} bank_peak={} finished={} ipc=",
            r.elapsed_cycles(),
            r.net_delivered(),
            bits(Some(r.net_avg_latency_cycles())),
            r.mem_fills(),
            r.bank_peak_queue(),
            r.finished(),
        );
        for &ipc in r.per_core_ipc() {
            let _ = write!(s, "{},", bits(Some(ipc)));
        }
        Self(s)
    }

    /// The FNV-1a digest of the projection.
    pub fn digest(&self) -> u64 {
        fnv1a64(self.0.as_bytes())
    }
}

/// Exact text for a float: its bit pattern, so no rounding can hide a
/// change.
fn bits(v: Option<f64>) -> String {
    v.map_or_else(|| "none".to_string(), |v| format!("{:016x}", v.to_bits()))
}

/// The digests of one run, in the order computed, printed so that
/// re-pinning means copying the printed lines.
#[derive(Default)]
pub struct Digests(Vec<(String, u64)>);

impl Digests {
    pub fn push(&mut self, key: impl Into<String>, digest: u64) {
        self.0.push((key.into(), digest));
    }

    pub fn get(&self, key: &str) -> Option<u64> {
        self.0.iter().find(|(k, _)| k == key).map(|&(_, d)| d)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, u64)> {
        self.0.iter()
    }

    /// Compares every digest for which `benchmark/expected/<workload>.txt`
    /// has a pin and `pinned(key)` holds. Returns the mismatching keys;
    /// a selected pin with no computed digest counts as a mismatch too.
    pub fn check_pins(&self, workload: &str, pinned: impl Fn(&str) -> bool) -> Vec<String> {
        let pins = load_pins(workload);
        let mut bad = Vec::new();
        for (key, &want) in pins.iter().filter(|(k, _)| pinned(k)) {
            if self.get(key) != Some(want) {
                bad.push(key.clone());
            }
        }
        if pins.is_empty() {
            bad.push(format!("{} has no pins", pins_path(workload).display()));
        }
        bad
    }
}

fn pins_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{workload}.txt"))
}

/// Reads `key hex` lines; blank lines and `#` comments are skipped.
fn load_pins(workload: &str) -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(pins_path(workload)).unwrap_or_default();
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (key, hex) = l.split_once(' ')?;
            Some((key.to_string(), u64::from_str_radix(hex.trim(), 16).ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hirise_lab::{CampaignSpec, FabricSpec, PatternSpec, SimParams};
    use hirise_sim::NetworkSim;

    fn spec() -> CampaignSpec {
        CampaignSpec::new("check-test")
            .fabric(FabricSpec::Flat2d { radix: 8 })
            .pattern(PatternSpec::Uniform)
            .loads([0.2])
            .sim(SimParams::new().cycles(50, 400, 400))
    }

    #[test]
    fn record_and_rebuilt_report_project_identically() {
        let spec = spec();
        let job = &spec.jobs()[0];
        let record = spec.run_job(job);
        let cfg = spec.sim.to_sim_config(8, job.load, job.seed);
        let mut sim = NetworkSim::new(job.fabric.build(), job.pattern.build(8), cfg);
        let report = sim.run();
        let violations = sim.checker().map_or(0, |c| c.violation_count());
        assert_eq!(
            Projection::from_job(&record),
            Projection::from_sim(&report, violations)
        );
    }

    #[test]
    fn digest_follows_projected_fields_only() {
        let spec = spec();
        let record = spec.run_job(&spec.jobs()[0]);
        let base = Projection::from_job(&record).digest();

        // Fields outside the projection do not move the digest.
        let mut relabelled = record.clone();
        relabelled.fabric = "renamed".into();
        relabelled.metrics.avg_latency_cycles += 1.0;
        relabelled.fault_events += 1;
        assert_eq!(Projection::from_job(&relabelled).digest(), base);

        // Every projected field does.
        let mut changed: Vec<JobResult> = vec![record.clone(); 6];
        changed[0].metrics.injected += 1;
        changed[1].metrics.completed += 1;
        changed[2].metrics.p99 = changed[2].metrics.p99.map(|p| p + 1.0);
        changed[3].histogram.record(10_000);
        changed[4].per_input_accepted.as_mut().unwrap()[0] += 1;
        changed[5].violations += 1;
        for c in &changed {
            assert_ne!(Projection::from_job(c).digest(), base);
        }
    }

    #[test]
    fn every_workload_has_pins() {
        for workload in crate::WORKLOADS {
            assert!(!load_pins(workload).is_empty(), "{workload}");
        }
    }
}
