//! The traced run: the workload's reference rung simulated once with the
//! rack's tracing off and once with it on, plus each layer's public
//! functions timed from outside on that workload's inputs.

use crate::rung::{bypass_violations, check_outputs, simulate, RackPoint, RungRun};
use crate::spans::Spans;
use crate::workload::{arrival_seed, build, Expect, Workload, CPUS, REQUESTS_PER_RUNG};
use crate::{median, Metric};
use pulse::accel::{run_closed_loop, Accelerator};
use pulse::frontend::TraversalCache;
use pulse::isa::Interpreter;
use pulse::mem::{ClusterMemory, Perms, RangeTable};
use pulse::net::{
    CodeBlob, Endpoint, Fabric, FabricConfig, IterPacket, IterStatus, Packet, RequestId,
};
use pulse::sim::{EventQueue, SimTime};
use pulse::{AppRequest, ClusterConfig, Phase, PulseCluster};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Accelerator workspaces kept busy by the closed-loop harness.
const ACCEL_CONCURRENCY: usize = 16;
/// Push+pop pairs timed on the event queue.
const QUEUE_OPS: u64 = 400_000;
/// Messages timed through the routed fabric.
const FABRIC_SENDS: usize = 400_000;
/// Passes of cache probes over the workload's traversal windows.
const CACHE_PASSES: usize = 8;
/// The phases whose attribution the benchmark reports.
const PHASE_KEYS: [&str; 7] = [
    "queued",
    "dispatch",
    "wire",
    "accel",
    "mem",
    "cache_hit",
    "retry",
];

/// What the traced run hands back to `main`.
#[derive(Debug)]
pub struct Traced {
    /// Requests simulated (untraced plus traced, every round).
    pub attempted: u64,
    /// Requests whose output was wrong or missing.
    pub failed: u64,
    /// Broken bypass assertions.
    pub violations: Vec<String>,
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// The per-layer document written beside the span file.
    pub document: String,
    /// The span log.
    pub spans: Spans,
}

/// One round's host timings (seconds unless named otherwise).
#[derive(Debug, Default, Clone, Copy)]
struct Round {
    build_s: f64,
    mint_s: f64,
    submit_s: f64,
    step_s: f64,
    traced_s: f64,
    isa_ns_per_hop: f64,
    accel_ns_per_hop: f64,
    queue_ns_per_op: f64,
    send_ns: f64,
    cache_probe_ns: f64,
}

/// Runs whole rounds until `seconds` have passed (at least one).
///
/// # Errors
///
/// Set-up failures, a non-deterministic rack, or tracing that perturbed
/// the simulated timeline.
pub fn run(workload: Workload, seed: u64, seconds: u64, run_id: String) -> Result<Traced, String> {
    let rate = workload.reference_kops();
    let n = REQUESTS_PER_RUNG;
    let mut spans = Spans::new(run_id);
    let mut rounds: Vec<Round> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut violations = Vec::new();
    let mut first: Option<(RackPoint, u64)> = None;
    let mut counts = None;
    let began = Instant::now();
    loop {
        let round_start = Instant::now();
        let mut r = Round::default();

        let world = build(workload, seed, n, false).map_err(|e| e.to_string())?;
        spans.record("ds.build", world.build.0, world.build.1);
        spans.record("workloads.mint", world.mint.0, world.mint.1);
        r.build_s = (world.build.1 - world.build.0).as_secs_f64();
        r.mint_s = (world.mint.1 - world.mint.0).as_secs_f64();
        let requests = world.requests.clone();
        let expect = world.expect;

        let t = Instant::now();
        let mut plain = simulate(
            world.runtime,
            world.requests,
            rate,
            arrival_seed(seed),
            Some(&mut spans),
        )
        .map_err(|e| e.to_string())?;
        spans.record("core.sim", t, Instant::now());
        r.submit_s = plain.submit_s;
        r.step_s = plain.step_s;
        attempted += n as u64;
        failed += spans.time("check.outputs", || check_outputs(&mut plain, &expect));
        violations.extend(bypass_violations(workload, &plain.report, true));
        let point = RackPoint::of(&plain, rate);
        match &first {
            None => first = Some((point, plain.steps)),
            Some(f) if *f != (point, plain.steps) => {
                return Err("a repeated round simulated a different rack".into())
            }
            Some(_) => {}
        }

        let traced_world = build(workload, seed, n, true).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let traced = simulate(
            traced_world.runtime,
            traced_world.requests,
            rate,
            arrival_seed(seed),
            Some(&mut spans),
        )
        .map_err(|e| e.to_string())?;
        spans.record("core.sim_traced", t, Instant::now());
        r.traced_s = traced.host_s();
        attempted += n as u64;
        if RackPoint::of(&traced, rate) != point {
            return Err("tracing changed the simulated rack's results".into());
        }

        let (hops, secs) = spans.time("isa.functional_replay", || {
            replay(&requests, plain.cluster.memory_mut())
        })?;
        r.isa_ns_per_hop = secs * 1e9 / hops.max(1) as f64;
        let packets = first_stage_packets(&requests);
        r.accel_ns_per_hop = spans.time("accel.closed_loop", || {
            accel_ns_per_hop(&packets, &mut plain.cluster)
        })?;
        r.queue_ns_per_op = spans.time("sim.event_queue", || queue_ns_per_op(&packets, n));
        if workload.topology().is_routed() {
            r.send_ns = spans.time("net.fabric_send", || send_ns(workload, &packets));
        }
        if workload.cache().enabled() {
            r.cache_probe_ns = spans.time("frontend.cache_probe", || {
                cache_probe_ns(workload, &packets, plain.cluster.memory_mut())
            });
        }
        if counts.is_none() {
            counts = Some(Counts::of(&plain, &traced, &expect));
        }
        spans.record("round", round_start, Instant::now());
        rounds.push(r);
        if began.elapsed() >= Duration::from_secs(seconds) {
            break;
        }
    }

    let c = counts.expect("at least one round ran");
    let med = |f: fn(&Round) -> f64| median(rounds.iter().map(f).collect());
    let untraced_s = med(|r| r.submit_s + r.step_s);
    let traced_s = med(|r| r.traced_s);
    let ns_per_event = med(|r| r.step_s * 1e9) / c.steps as f64;
    let submit_ns = med(|r| r.submit_s * 1e9) / n as f64;
    let queue_ns = med(|r| r.queue_ns_per_op);
    let isa_ns = med(|r| r.isa_ns_per_hop);
    let send_ns = med(|r| r.send_ns);
    let probe_ns = med(|r| r.cache_probe_ns);
    // Host time the isolated layer timings account for, from disjoint
    // parts: submissions, one queue push+pop per event, one interpreted
    // hop per iteration, and one cache probe per front-end probe. The
    // accelerator harness's time per hop is left out because it includes
    // its own event queue, and fabric sends because the rack does not
    // report how many it made; both sit in the remainder.
    let accounted_s = (submit_ns * n as f64
        + queue_ns * c.steps as f64
        + isa_ns * c.iterations as f64
        + probe_ns * c.cache_probes as f64)
        / 1e9;
    let per = |x: f64| x / c.retired as f64;

    let mut metrics = vec![
        Metric::new("ds.build_s", med(|r| r.build_s), "s"),
        Metric::new("workloads.mint_s", med(|r| r.mint_s), "s"),
        Metric::new("core.events_per_req", per(c.steps as f64), "count"),
        Metric::new("core.ns_per_event", ns_per_event, "ns"),
        Metric::new("core.submit_ns_per_req", submit_ns, "ns"),
        Metric::new("core.inflight_peak", c.inflight_peak as f64, "count"),
        Metric::new("sim.queue_ns_per_op", queue_ns, "ns"),
        Metric::new("isa.hops_per_req", c.hops_per_req, "count"),
        Metric::new("isa.ns_per_hop", isa_ns, "ns"),
        Metric::new("accel.ns_per_hop", med(|r| r.accel_ns_per_hop), "ns"),
        Metric::new("accel.memory_util", c.memory_util, "ratio"),
        Metric::new("accel.logic_util", c.logic_util, "ratio"),
        Metric::new("accel.insns_per_hop", c.insns_per_hop, "count"),
        Metric::new("net.send_ns", send_ns, "ns"),
        Metric::new("net.crossings_per_req", per(c.crossings as f64), "count"),
        Metric::new("net.bytes_per_req", per(c.fabric_bytes as f64), "B"),
        Metric::new("net.link_utilization", c.link_utilization, "ratio"),
        Metric::new("net.queue_depth", c.queue_depth as f64, "count"),
        Metric::new("frontend.dispatch_util", c.dispatch_util, "ratio"),
        Metric::new("frontend.cache_hit_rate", c.cache_hit_rate, "ratio"),
        Metric::new("frontend.cache_probe_ns", probe_ns, "ns"),
        Metric::new("mutation.retries_per_req", per(c.retries as f64), "count"),
        Metric::new(
            "mutation.update_goodput_kops",
            c.update_goodput_kops,
            "kops",
        ),
        Metric::new("mem.bytes_per_req", per(c.mem_bytes as f64), "B"),
    ];
    for key in PHASE_KEYS {
        let (mean, p99) = c.phase[key];
        metrics.push(Metric::new(format!("phase.{key}.mean_us"), mean, "us"));
        metrics.push(Metric::new(format!("phase.{key}.p99_us"), p99, "us"));
    }
    metrics.push(Metric::new(
        "trace.overhead_ratio",
        traced_s / untraced_s,
        "ratio",
    ));
    metrics.push(Metric::new(
        "trace.accounted_ratio",
        accounted_s / untraced_s,
        "ratio",
    ));
    violations.extend(layer_bypass_violations(workload, &metrics));

    let (point, _) = first.expect("at least one round ran");
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\":{}", m.name, crate::json_number(m.value)))
        .collect();
    let document = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"rounds\":{},\"requests_per_round\":{n},\
         \"reference_kops\":{rate},\"rack_p50_us\":{},\"rack_p99_us\":{},\"latency_samples\":{},\
         \"untraced_host_s\":{},\"traced_host_s\":{},\"accounted_host_s\":{},\
         \"unaccounted_host_s\":{},\"metrics\":{{{}}}}}",
        workload.name(),
        rounds.len(),
        crate::json_number(point.p50_us),
        crate::json_number(point.p99_us),
        point.samples,
        crate::json_number(untraced_s),
        crate::json_number(traced_s),
        crate::json_number(accounted_s),
        crate::json_number(untraced_s - accounted_s),
        fields.join(","),
    );
    eprintln!(
        "traced run: {} rounds; untraced sim {untraced_s:.4} s, traced sim {traced_s:.4} s; \
         layer timings account for {accounted_s:.4} s, {:.4} s unaccounted",
        rounds.len(),
        untraced_s - accounted_s
    );
    Ok(Traced {
        attempted,
        failed,
        violations,
        metrics,
        document,
        spans,
    })
}

/// The simulated counts of a round — identical in every round.
#[derive(Debug)]
struct Counts {
    retired: u64,
    steps: u64,
    inflight_peak: u64,
    iterations: u64,
    hops_per_req: f64,
    memory_util: f64,
    logic_util: f64,
    insns_per_hop: f64,
    crossings: u64,
    fabric_bytes: u64,
    link_utilization: f64,
    queue_depth: u64,
    dispatch_util: f64,
    cache_hit_rate: f64,
    cache_probes: u64,
    retries: u64,
    update_goodput_kops: f64,
    mem_bytes: u64,
    phase: HashMap<&'static str, (f64, f64)>,
}

impl Counts {
    fn of(plain: &RungRun, traced: &RungRun, expect: &[Expect]) -> Counts {
        let rep = &plain.report;
        let accels = plain.cluster.accelerators();
        let insns: u64 = accels.iter().map(|a| a.stats().insns).sum();
        let index: HashMap<RequestId, usize> = plain
            .ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        let updates = plain
            .completions
            .iter()
            .filter(|c| c.ok && matches!(expect[index[&c.id]], Expect::Update { .. }))
            .count();
        let first_arrival = plain.arrivals.first().copied().unwrap_or(SimTime::ZERO);
        let span_s = rep.makespan.saturating_sub(first_arrival).as_secs_f64();
        let attribution = traced
            .report
            .phase
            .as_ref()
            .expect("a traced rack reports its phase attribution");
        let phase = Phase::ALL
            .into_iter()
            .filter(|p| PHASE_KEYS.contains(&p.key()))
            .map(|p| {
                (
                    p.key(),
                    (
                        attribution.mean_of(p).as_micros_f64(),
                        attribution.p99_of(p).as_micros_f64(),
                    ),
                )
            })
            .collect();
        Counts {
            retired: plain.retired(),
            steps: plain.steps,
            inflight_peak: plain.inflight_peak,
            iterations: rep.iterations,
            hops_per_req: rep.iterations as f64 / rep.completed.max(1) as f64,
            memory_util: rep.memory_util,
            logic_util: rep.logic_util,
            insns_per_hop: insns as f64 / rep.iterations.max(1) as f64,
            crossings: rep.crossings,
            fabric_bytes: plain
                .cluster
                .fabric()
                .map_or(0, |f| f.host_injected_bytes()),
            link_utilization: rep.link_utilization,
            queue_depth: rep.queue_depth,
            dispatch_util: rep.dispatch_util,
            cache_hit_rate: rep.cache_hit_rate,
            cache_probes: plain
                .cluster
                .frontends()
                .iter()
                .filter_map(|f| f.cache())
                .map(|c| c.stats().hits + c.stats().misses)
                .sum(),
            retries: rep.retries,
            update_goodput_kops: updates as f64 / span_s.max(1e-12) / 1e3,
            mem_bytes: rep.mem_bytes,
            phase,
        }
    }
}

/// Layer-bypass assertions on the per-layer metrics: each layer's metrics
/// are nonzero exactly on the workloads whose reason is to exercise it.
fn layer_bypass_violations(workload: Workload, metrics: &[Metric]) -> Vec<String> {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let mut bad = Vec::new();
    let mut need = |ok: bool, what: String| {
        if !ok {
            bad.push(format!("{}: {what}", workload.name()));
        }
    };
    let nets = [
        "net.send_ns",
        "net.crossings_per_req",
        "net.bytes_per_req",
        "net.link_utilization",
        "net.queue_depth",
    ];
    for m in nets {
        let zero = get(m) == 0.0;
        need(
            zero != workload.topology().is_routed(),
            format!("{m} = {} on this fabric", get(m)),
        );
    }
    for m in ["frontend.cache_hit_rate", "frontend.cache_probe_ns"] {
        need(
            (get(m) > 0.0) == workload.cache().enabled(),
            format!("{m} = {} with this cache", get(m)),
        );
    }
    for m in ["mutation.retries_per_req", "mutation.update_goodput_kops"] {
        need(
            (get(m) > 0.0) == workload.mutates(),
            format!("{m} = {} on this mix", get(m)),
        );
    }
    bad
}

/// Each request's first traversal stage as the packet the CPU node would
/// offload.
fn first_stage_packets(requests: &[AppRequest]) -> Vec<IterPacket> {
    requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let stage = &r.traversals[0];
            IterPacket {
                id: RequestId {
                    cpu: 0,
                    seq: i as u64,
                },
                code: CodeBlob::new(stage.program.clone()),
                state: stage.init_state(None).expect("first stages start fixed"),
                status: IterStatus::InFlight,
                piggyback_bytes: 0,
                touched: Vec::new(),
            }
        })
        .collect()
}

/// `Interpreter::run_traversal` over every stage of every request, against
/// the rack's memory. Returns (hops, host seconds).
fn replay(requests: &[AppRequest], mem: &mut ClusterMemory) -> Result<(u64, f64), String> {
    let mut interp = Interpreter::new();
    let mut hops = 0u64;
    let start = Instant::now();
    for req in requests {
        let mut prev = None;
        for stage in &req.traversals {
            let mut state = stage.init_state(prev.as_ref()).map_err(|e| e.to_string())?;
            let run = interp
                .run_traversal(&stage.program, &mut state, mem, 1 << 20)
                .map_err(|e| format!("functional replay faulted: {e}"))?;
            hops += run.iterations as u64;
            prev = Some(state);
        }
        black_box(&prev);
    }
    Ok((hops, start.elapsed().as_secs_f64()))
}

/// `run_closed_loop` on the accelerator of the memory node the first
/// request starts on, fed every first stage that starts on that node.
fn accel_ns_per_hop(packets: &[IterPacket], cluster: &mut PulseCluster) -> Result<f64, String> {
    let node = cluster
        .memory()
        .owner_of(packets[0].state.cur_ptr)
        .ok_or("the first request starts outside the rack")?;
    let cfg = *cluster.accelerators()[node].config();
    let mem = cluster.memory_mut();
    let ranges: Vec<(u64, u64, Perms)> = mem
        .node_ranges(node)
        .iter()
        .map(|&(s, e)| (s, e, Perms::RW))
        .collect();
    let table = RangeTable::build(ClusterConfig::default().tcam_capacity, &ranges)
        .map_err(|e| format!("{e:?}"))?;
    let local: Vec<&IterPacket> = packets
        .iter()
        .filter(|p| mem.owner_of(p.state.cur_ptr) == Some(node))
        .collect();
    let mut accel = Accelerator::new(cfg, node, table);
    let start = Instant::now();
    let report = run_closed_loop(
        &mut accel,
        mem,
        |i| local[i as usize].clone(),
        local.len() as u64,
        ACCEL_CONCURRENCY,
    );
    let secs = start.elapsed().as_secs_f64();
    black_box(report);
    Ok(secs * 1e9 / accel.stats().iterations.max(1) as f64)
}

/// A small deterministic generator for the micro-benchmarks' own draws.
fn next(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x >> 33
}

/// Push+pop pairs on an `EventQueue` of `Packet`s held at `depth` — the
/// open-loop driver schedules every arrival up front.
fn queue_ns_per_op(packets: &[IterPacket], depth: usize) -> f64 {
    let mut x = 0x5EED;
    let mut q: EventQueue<Packet> = EventQueue::with_capacity(depth);
    for i in 0..depth {
        let at = SimTime::from_nanos(next(&mut x) % 50_000);
        q.push(at, Packet::Iter(packets[i % packets.len()].clone()));
    }
    let start = Instant::now();
    for _ in 0..QUEUE_OPS {
        let (at, pkt) = q.pop().expect("the queue stays at depth");
        q.push(at + SimTime::from_nanos(next(&mut x) % 50_000), pkt);
    }
    let secs = start.elapsed().as_secs_f64();
    black_box(&q);
    secs * 1e9 / QUEUE_OPS as f64
}

/// `Fabric::send` over every CPU/memory endpoint pair of the workload's
/// fabric, at the wire sizes of its offload packets.
fn send_ns(workload: Workload, packets: &[IterPacket]) -> f64 {
    let cfg = ClusterConfig::default();
    let mut fabric = Fabric::new(
        workload.topology().build(CPUS, workload.nodes()),
        FabricConfig {
            link: cfg.link,
            switch: cfg.switch,
        },
    );
    let mut pairs = Vec::new();
    for m in 0..workload.nodes() {
        for c in 0..CPUS {
            pairs.push((Endpoint::Cpu(c), Endpoint::Mem(m)));
            pairs.push((Endpoint::Mem(m), Endpoint::Cpu(c)));
        }
        for o in (0..workload.nodes()).filter(|&o| o != m) {
            pairs.push((Endpoint::Mem(m), Endpoint::Mem(o)));
        }
    }
    let sizes: Vec<u64> = packets
        .iter()
        .map(|p| Packet::Iter(p.clone()).wire_bytes())
        .collect();
    let mut now = SimTime::ZERO;
    let start = Instant::now();
    for i in 0..FABRIC_SENDS {
        let (src, dst) = pairs[i % pairs.len()];
        black_box(fabric.send(now, src, dst, sizes[i % sizes.len()]));
        now += SimTime::from_nanos(100);
    }
    start.elapsed().as_secs_f64() * 1e9 / FABRIC_SENDS as f64
}

/// `TraversalCache::try_read` over the first-stage windows of every
/// request, with the first half's windows filled: hot keys hit, cold keys
/// miss.
fn cache_probe_ns(workload: Workload, packets: &[IterPacket], mem: &mut ClusterMemory) -> f64 {
    let mut cache = TraversalCache::new(workload.cache());
    let windows: Vec<(u64, usize)> = packets
        .iter()
        .map(|p| {
            let w = p.code.program().window();
            (
                p.state.cur_ptr.wrapping_add(w.off as i64 as u64),
                w.len as usize,
            )
        })
        .collect();
    for &(addr, len) in &windows[..windows.len() / 2] {
        cache.fill_range(addr, len as u64, mem);
    }
    let mut buf = [0u8; 256];
    let mut hits = 0u64;
    let start = Instant::now();
    for _ in 0..CACHE_PASSES {
        for &(addr, len) in &windows {
            hits += cache.try_read(addr, &mut buf[..len], mem) as u64;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    black_box(hits);
    secs * 1e9 / (CACHE_PASSES * windows.len()) as f64
}
