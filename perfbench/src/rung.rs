//! One open-loop rung: every arrival is scheduled up front in simulated
//! time, then the rack is stepped dry on this thread. Host time covers
//! only the submissions and the step loop.

use crate::spans::Spans;
use crate::workload::{Expect, Workload, SLO_P99_US};
use pulse::isa::MemBus;
use pulse::net::RequestId;
use pulse::sim::SimTime;
use pulse::workloads::ArrivalProcess;
use pulse::{AppRequest, ClusterReport, Completion, PulseCluster, Runtime};
use pulse_bench::{SweepPoint, SweepReport};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Steps between two `core.step_batch` spans in a traced run.
const STEP_BATCH: u64 = 8192;

/// What one simulated rung produced.
#[derive(Debug)]
pub struct RungRun {
    /// The rack after the drain (memory and counters).
    pub cluster: PulseCluster,
    /// Completions in the order the rack produced them.
    pub completions: Vec<Completion>,
    /// Arrival times, in submission order.
    pub arrivals: Vec<SimTime>,
    /// The identity each request was submitted under, in submission order.
    pub ids: Vec<RequestId>,
    /// The rack's aggregate report after the drain.
    pub report: ClusterReport,
    /// Events the rack processed (`PulseCluster::step` calls that did
    /// work).
    pub steps: u64,
    /// Host seconds spent in `PulseCluster::submit_at`.
    pub submit_s: f64,
    /// Host seconds spent in the step loop.
    pub step_s: f64,
    /// Most requests that had arrived but not yet completed at once.
    pub inflight_peak: u64,
}

impl RungRun {
    /// Host seconds of the timed simulation phase.
    pub fn host_s(&self) -> f64 {
        self.submit_s + self.step_s
    }

    /// Requests that left the rack, completed or faulted.
    pub fn retired(&self) -> u64 {
        self.completions.len() as u64
    }
}

/// Submits `requests` at Poisson arrivals of `rate_kops` and steps the rack
/// until it is idle.
///
/// # Errors
///
/// A malformed request, rejected before anything is simulated.
pub fn simulate(
    runtime: Runtime,
    requests: Vec<AppRequest>,
    rate_kops: f64,
    seed: u64,
    mut spans: Option<&mut Spans>,
) -> Result<RungRun, pulse::Error> {
    for r in &requests {
        r.validate()?;
    }
    let n = requests.len();
    let mut cluster = runtime.into_cluster();
    let mut process = ArrivalProcess::poisson(rate_kops * 1e3, seed);
    let mut t = cluster.now();
    let arrivals: Vec<SimTime> = (0..n)
        .map(|_| {
            t += process.next_gap();
            t
        })
        .collect();

    let mut ids = Vec::with_capacity(n);
    let submit_start = Instant::now();
    for (req, &at) in requests.into_iter().zip(&arrivals) {
        ids.push(cluster.submit_at(at, req));
    }
    let submit_end = Instant::now();

    let mut completions = Vec::with_capacity(n);
    let mut steps = 0u64;
    let (mut arrived, mut inflight_peak) = (0usize, 0u64);
    let mut batch_start = submit_end;
    while cluster.step() {
        steps += 1;
        completions.extend(cluster.take_completions());
        let now = cluster.now();
        while arrived < n && arrivals[arrived] <= now {
            arrived += 1;
        }
        inflight_peak = inflight_peak.max((arrived - completions.len()) as u64);
        if steps.is_multiple_of(STEP_BATCH) {
            if let Some(s) = spans.as_deref_mut() {
                let end = Instant::now();
                s.record("core.step_batch", batch_start, end);
                batch_start = end;
            }
        }
    }
    let step_end = Instant::now();
    if let Some(s) = spans {
        s.record("core.submit", submit_start, submit_end);
        s.record("core.step_batch", batch_start, step_end);
    }
    let report = cluster.report();
    Ok(RungRun {
        cluster,
        completions,
        arrivals,
        ids,
        report,
        steps,
        submit_s: (submit_end - submit_start).as_secs_f64(),
        step_s: (step_end - submit_end).as_secs_f64(),
        inflight_peak,
    })
}

/// The simulated-rack statistics of one rung — deterministic for a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RackPoint {
    /// Offered rate, kops.
    pub offered_kops: f64,
    /// Realized arrival rate, kops.
    pub arrived_kops: f64,
    /// Successful completions.
    pub completed: u64,
    /// Faulted completions.
    pub faulted: u64,
    /// Median latency from arrival, µs.
    pub p50_us: f64,
    /// 95th-percentile latency from arrival, µs.
    pub p95_us: f64,
    /// 99th-percentile latency from arrival, µs.
    pub p99_us: f64,
    /// Successful completions per simulated ms.
    pub goodput_kops: f64,
    /// Latency samples behind the percentiles.
    pub samples: u64,
    /// Fingerprint of the completion stream (ids, outcomes, timestamps,
    /// final scratchpads).
    pub stream: u64,
}

impl RackPoint {
    /// Reads the rung's rack statistics off its run.
    pub fn of(run: &RungRun, offered_kops: f64) -> RackPoint {
        let first = run.arrivals.first().copied().unwrap_or(SimTime::ZERO);
        let last = run.arrivals.last().copied().unwrap_or(SimTime::ZERO);
        let last_completion = run
            .completions
            .iter()
            .map(|c| c.finished_at)
            .max()
            .unwrap_or(first);
        let n = run.arrivals.len() as f64;
        let arrival_span = last.saturating_sub(first).as_secs_f64();
        let span = last_completion.saturating_sub(first).as_secs_f64();
        let lat = &run.report.latency;
        RackPoint {
            offered_kops,
            arrived_kops: if n > 1.0 && arrival_span > 0.0 {
                (n - 1.0) / arrival_span / 1e3
            } else {
                offered_kops
            },
            completed: run.report.completed,
            faulted: run.report.faulted,
            p50_us: lat.p50.as_micros_f64(),
            p95_us: lat.p95.as_micros_f64(),
            p99_us: lat.p99.as_micros_f64(),
            goodput_kops: run.report.completed as f64 / span.max(1e-12) / 1e3,
            samples: lat.count,
            stream: fingerprint(&run.completions),
        }
    }
}

/// The `SweepReport::max_load_under_p99` rule over a ladder: the highest
/// goodput among rungs with p99 within the SLO that kept up with their
/// arrivals.
pub fn sustained_kops(points: &[RackPoint]) -> Option<f64> {
    let report = SweepReport {
        label: "perfbench".into(),
        points: points
            .iter()
            .map(|p| SweepPoint {
                offered_kops: p.offered_kops,
                arrived_kops: p.arrived_kops,
                completed: p.completed,
                faulted: p.faulted,
                p50_us: p.p50_us,
                p95_us: p.p95_us,
                p99_us: p.p99_us,
                goodput_kops: p.goodput_kops,
                update_goodput_kops: 0.0,
                retries: 0,
                cache_hit_rate: 0.0,
                link_utilization: 0.0,
                queue_depth: 0,
                failovers: 0,
                unavailable_completions: 0,
                rereplication_bytes: 0,
                degraded_p99_us: 0.0,
                phase: None,
                mis_speculations: 0,
                batched_hops: 0,
                coalesced_prefix_hops: 0,
            })
            .collect(),
    };
    report.max_load_under_p99(SLO_P99_US)
}

/// FNV-1a over everything a completion reports.
fn fingerprint(completions: &[Completion]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for c in completions {
        mix(&(c.id.cpu as u64).to_le_bytes());
        mix(&c.id.seq.to_le_bytes());
        mix(&[c.ok as u8, c.unavailable as u8]);
        mix(&c.issued_at.as_picos().to_le_bytes());
        mix(&c.finished_at.as_picos().to_le_bytes());
        if let Some(s) = &c.final_state {
            mix(&s.cur_ptr.to_le_bytes());
            mix(&s.scratch);
        }
    }
    h
}

/// Checks every completion of `run` against the oracle and returns the
/// number of requests whose output is wrong or missing.
pub fn check_outputs(run: &mut RungRun, expect: &[Expect]) -> u64 {
    let by_id: HashMap<RequestId, usize> =
        run.ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut failed = 0u64;
    let mut seen = vec![false; expect.len()];
    let mut updates: BTreeMap<u64, u64> = BTreeMap::new();
    for c in &run.completions {
        let Some(&i) = by_id.get(&c.id) else {
            failed += 1;
            continue;
        };
        if std::mem::replace(&mut seen[i], true) {
            failed += 1;
            continue;
        }
        let right = c.ok
            && match expect[i] {
                Expect::Word { off, value } => c
                    .final_state
                    .as_ref()
                    .is_some_and(|s| s.scratch_u64(off) == value),
                Expect::Update { bucket } => {
                    *updates.entry(bucket).or_default() += 1;
                    true
                }
                Expect::Matched { matched } => c.final_state.as_ref().is_some_and(|s| {
                    s.scratch_u64(pulse::ds::wt_layout::SP_MATCHED as usize) == matched
                }),
                Expect::Insert => true,
            };
        if !right {
            failed += 1;
        }
    }
    failed += seen.iter().filter(|&&s| !s).count() as u64;
    // The seqlock invariant after the drain: every bucket any request
    // touched is unlocked (even) at exactly two bumps per completed update.
    let mem = run.cluster.memory_mut();
    let mut touched: Vec<u64> = expect
        .iter()
        .filter_map(|e| match e {
            Expect::Update { bucket } => Some(*bucket),
            _ => None,
        })
        .collect();
    touched.sort_unstable();
    touched.dedup();
    for bucket in touched {
        let mut word = [0u8; 8];
        let version = match mem.read(
            bucket + pulse::dispatch::samples::hash_layout::VALUE as u64,
            &mut word,
        ) {
            Ok(()) => u64::from_le_bytes(word),
            Err(_) => u64::MAX,
        };
        let done = updates.get(&bucket).copied().unwrap_or(0);
        if version % 2 != 0 || version != 2 * done {
            // Charge the bucket's mismatch to one of its updates.
            failed += 1;
        }
    }
    failed
}

/// Asserts that the rung exercised exactly the layers the workload's
/// reason for existing claims, returning what was violated. A bypassed
/// layer must stay idle on every rung; the layers a workload exists to
/// exercise must be busy on its `reference` rung.
pub fn bypass_violations(
    workload: Workload,
    report: &ClusterReport,
    reference: bool,
) -> Vec<String> {
    let mut bad = Vec::new();
    let mut need = |ok: bool, what: &str| {
        if !ok {
            bad.push(format!("{}: {what}", workload.name()));
        }
    };
    if !workload.topology().is_routed() {
        need(report.crossings == 0, "flat rung crossed memory nodes");
        need(
            report.link_utilization == 0.0,
            "flat rung used fabric links",
        );
        need(report.queue_depth == 0, "flat rung queued at fabric ports");
    } else if reference {
        need(
            report.crossings > 0,
            "routed rung never crossed memory nodes",
        );
        need(
            report.link_utilization > 0.0,
            "routed rung left the fabric idle",
        );
    }
    if !workload.cache().enabled() {
        need(report.cache_hit_rate == 0.0, "cache hits with no cache");
    } else if reference {
        need(report.cache_hit_rate > 0.0, "the cache never hit");
    }
    if !workload.mutates() {
        need(report.retries == 0, "seqlock retries on a read-only path");
    } else if reference {
        need(report.retries > 0, "no seqlock retry ever happened");
    }
    need(report.faulted == 0, "requests faulted");
    bad
}
