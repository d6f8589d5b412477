//! The three benchmark workloads: rack shape, input make-up, load ladder,
//! and the oracle each request's output is checked against.
//!
//! Every input is a pure function of the `--seed` argument: the seed
//! drives the workload's key chooser and operation mix (through the
//! application config) and the Poisson arrival process (see
//! [`arrival_seed`]). The program under test receives only the minted
//! requests.

use pulse::dispatch::samples::btree_layout;
use pulse::ds::{wt_layout, TreePlacement};
use pulse::mutation::{sp, InsertArena};
use pulse::sim::SimTime;
use pulse::workloads::{Application, Distribution, WebService, WiredTiger};
use pulse::{
    AppRequest, CacheConfig, DispatchConfig, MutationConfig, PulseBuilder, Runtime, TopologySpec,
    TraceConfig, WebServiceConfig, WiredTigerConfig, YcsbDriver, YcsbWorkload,
};
use std::time::Instant;

/// CPU (compute) nodes issuing requests, on every workload.
pub const CPUS: usize = 2;
/// Dispatch-engine service time per issued packet.
const DISPATCH_OCCUPANCY: SimTime = SimTime::from_nanos(1_000);
/// Dispatch contexts per CPU node.
const DISPATCH_CONTEXTS: usize = 2;
/// Keys in the WebService hash map (both hash-map workloads).
const WEBSERVICE_KEYS: u64 = 6_000;
/// Keys bulk-loaded into the WiredTiger B+tree: `0, 2, 4, …`.
const TREE_KEYS: u64 = 30_000;
/// Insert-arena slab per memory node for YCSB-E structural inserts.
const ARENA_PER_NODE: u64 = 4 << 20;
/// Front-end cache per CPU node on `ycsb-a-cache`.
const CACHE_BYTES: u64 = 4 << 20;
/// The p99 SLO of the sustained-load rule, microseconds.
pub const SLO_P99_US: f64 = 150.0;
/// Requests simulated per rung: 100 latency samples lie beyond each p99.
pub const REQUESTS_PER_RUNG: usize = 10_000;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// YCSB-C Zipfian reads over the bucket-partitioned hash map.
    WsRead,
    /// YCSB-E scans and inserts over a partitioned B+tree behind a routed
    /// leaf-spine fabric.
    ScanLeafspine,
    /// YCSB-A verified reads and locked updates with a front-end cache.
    YcsbACache,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 3] = [
        Workload::WsRead,
        Workload::ScanLeafspine,
        Workload::YcsbACache,
    ];

    /// The workload named `name` on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WsRead => "ws-read",
            Workload::ScanLeafspine => "scan-leafspine",
            Workload::YcsbACache => "ycsb-a-cache",
        }
    }

    /// Memory nodes in the rack.
    pub fn nodes(self) -> usize {
        match self {
            Workload::ScanLeafspine => 4,
            Workload::WsRead | Workload::YcsbACache => 2,
        }
    }

    /// The rack fabric.
    pub fn topology(self) -> TopologySpec {
        match self {
            Workload::ScanLeafspine => TopologySpec::LeafSpine {
                leaves: 2,
                spines: 2,
            },
            Workload::WsRead | Workload::YcsbACache => TopologySpec::Flat,
        }
    }

    /// The per-CPU-node front-end cache.
    pub fn cache(self) -> CacheConfig {
        match self {
            Workload::YcsbACache => CacheConfig::sized(CACHE_BYTES),
            Workload::WsRead | Workload::ScanLeafspine => CacheConfig::disabled(),
        }
    }

    /// Whether the workload drives the seqlock read/update path.
    pub fn mutates(self) -> bool {
        self == Workload::YcsbACache
    }

    /// Offered loads of the open-loop Poisson ladder, kops, run one after
    /// another. Each ladder straddles the workload's knee so the sustained
    /// rung is the same on every seed, except `ycsb-a-cache`'s, which stops
    /// where seqlock-retry exhaustion starts faulting requests on some seeds
    /// (1 seed in 100 at 600 kops).
    pub fn ladder_kops(self) -> &'static [f64] {
        match self {
            Workload::WsRead => &[300.0, 600.0, 900.0, 1200.0],
            Workload::ScanLeafspine => &[600.0, 1200.0, 1600.0, 2400.0],
            Workload::YcsbACache => &[300.0, 450.0],
        }
    }

    /// The reference rate, kops: a rung below the knee where the
    /// `rack_p50_us` and `rack_p99_us` metrics are read.
    pub fn reference_kops(self) -> f64 {
        match self {
            Workload::WsRead | Workload::ScanLeafspine => 600.0,
            Workload::YcsbACache => 450.0,
        }
    }

    fn builder(self, trace: bool) -> PulseBuilder {
        PulseBuilder::new()
            .nodes(self.nodes())
            .cpus(CPUS)
            .dispatch(DispatchConfig::contended(
                DISPATCH_OCCUPANCY,
                DISPATCH_CONTEXTS,
            ))
            .topology(self.topology())
            .cache(self.cache())
            .granularity(pulse_bench::DEFAULT_GRANULARITY)
            .trace(trace.then(TraceConfig::default))
    }
}

/// The seed of the Poisson arrival process, kept apart from the key
/// chooser's stream so the two never share draws.
pub fn arrival_seed(seed: u64) -> u64 {
    seed ^ 0xA5A5_5A5A_0F0F_F0F0
}

/// What a request's completion must show, computed from the application's
/// own build-time tables and key arithmetic — never from the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The final scratchpad word at `off` holds `value` (a lookup's
    /// object address).
    Word {
        /// Scratchpad byte offset.
        off: usize,
        /// Expected word.
        value: u64,
    },
    /// A locked update of the bucket whose sentinel sits at `bucket`: it
    /// must complete, and after the drain the bucket's seqlock version
    /// must equal twice the updates completed on it.
    Update {
        /// Bucket sentinel address.
        bucket: u64,
    },
    /// A range scan must count exactly `matched` entries.
    Matched {
        /// Expected `SP_MATCHED`.
        matched: u64,
    },
    /// A structural insert must complete.
    Insert,
}

/// A freshly built rack with its minted request stream and oracle.
#[derive(Debug)]
pub struct World {
    /// The rack, ready for open-loop submission.
    pub runtime: Runtime,
    /// The request stream, in arrival order.
    pub requests: Vec<AppRequest>,
    /// One expectation per request.
    pub expect: Vec<Expect>,
    /// The key each request looks up (first stage's scratch word 0).
    pub keys: Vec<u64>,
    /// Host time of the structure build (inside the rack build).
    pub build: (Instant, Instant),
    /// Host time of minting the request stream.
    pub mint: (Instant, Instant),
}

fn scratch_word(req: &AppRequest, stage: usize, off: u16) -> u64 {
    req.traversals[stage]
        .scratch_init
        .iter()
        .find(|&&(o, _)| o == off)
        .map(|&(_, v)| v)
        .expect("minted stage seeds this scratch word")
}

fn config_error(e: impl std::fmt::Display) -> pulse::Error {
    pulse::Error::Config(e.to_string())
}

/// Builds `workload`'s rack and structure, then mints `requests` requests
/// from `seed`. `trace` turns on the rack's span tracing.
///
/// # Errors
///
/// Wiring or build failures, and an exhausted insert arena.
pub fn build(
    workload: Workload,
    seed: u64,
    requests: usize,
    trace: bool,
) -> Result<World, pulse::Error> {
    let builder = workload.builder(trace);
    let mut build = (Instant::now(), Instant::now());
    match workload {
        Workload::WsRead | Workload::YcsbACache => {
            let cfg = WebServiceConfig {
                keys: WEBSERVICE_KEYS,
                workload: if workload == Workload::WsRead {
                    YcsbWorkload::C
                } else {
                    YcsbWorkload::A
                },
                distribution: Distribution::Zipfian,
                seed,
                ..Default::default()
            };
            let (mut runtime, mut app) = builder.build_with(|ctx| {
                build.0 = Instant::now();
                let app = WebService::build(ctx, cfg);
                build.1 = Instant::now();
                app
            })?;
            let mint_start = Instant::now();
            // The build-time key -> object address table is the oracle;
            // the YCSB-A updates write the same address back, so every
            // read must return it before and after any update.
            let objects: Vec<u64> = (0..app.keys()).map(|k| app.object_addr(k)).collect();
            let buckets: Vec<u64> = (0..app.keys()).map(|k| app.map().bucket_addr(k)).collect();
            let reqs: Vec<AppRequest> = if workload == Workload::WsRead {
                (0..requests).map(|_| app.next_request()).collect()
            } else {
                let mut driver = YcsbDriver::webservice(app, cfg, MutationConfig::default())?;
                (0..requests)
                    .map(|_| driver.next_request(runtime.memory_mut()))
                    .collect()
            };
            let keys: Vec<u64> = reqs.iter().map(|r| scratch_word(r, 0, sp::KEY)).collect();
            let expect = reqs
                .iter()
                .zip(&keys)
                .map(|(r, &k)| {
                    if r.traversals[0].program.has_stores() {
                        Expect::Update {
                            bucket: buckets[k as usize],
                        }
                    } else {
                        Expect::Word {
                            off: sp::VAL as usize,
                            value: objects[k as usize],
                        }
                    }
                })
                .collect();
            let mint = (mint_start, Instant::now());
            Ok(World {
                runtime,
                requests: reqs,
                expect,
                keys,
                build,
                mint,
            })
        }
        Workload::ScanLeafspine => {
            let cfg = WiredTigerConfig {
                keys: TREE_KEYS,
                placement: TreePlacement::Partitioned {
                    nodes: workload.nodes(),
                },
                seed,
                ..Default::default()
            };
            let (mut runtime, (app, arena)) = builder.build_with(|ctx| {
                build.0 = Instant::now();
                let app = WiredTiger::build(ctx, cfg)?;
                let arena = InsertArena::build(ctx, ARENA_PER_NODE)?;
                build.1 = Instant::now();
                Ok((app, arena))
            })?;
            let mint_start = Instant::now();
            if app.tree().len() as u64 != TREE_KEYS {
                return Err(config_error(format!(
                    "the tree bulk-loaded {} keys, expected {TREE_KEYS}",
                    app.tree().len()
                )));
            }
            let mut driver = YcsbDriver::wiredtiger(app, cfg, arena, MutationConfig::default())?;
            let reqs: Vec<AppRequest> = (0..requests)
                .map(|_| driver.next_request(runtime.memory_mut()))
                .collect();
            if driver.degraded_inserts() != 0 {
                return Err(config_error(
                    "the insert arena ran dry: inserts stopped mutating the tree",
                ));
            }
            let keys: Vec<u64> = reqs
                .iter()
                .map(|r| scratch_word(r, 0, btree_layout::SP_KEY))
                .collect();
            // Inserts mutate the tree when minted, so every scan sees the
            // bulk load `0, 2, 4, …` plus every (odd) inserted key.
            let mut inserted: Vec<u64> = reqs
                .iter()
                .zip(&keys)
                .filter(|(r, _)| r.traversals.len() == 1)
                .map(|(_, &k)| k)
                .collect();
            inserted.sort_unstable();
            let expect = reqs
                .iter()
                .map(|r| {
                    if r.traversals.len() == 1 {
                        return Expect::Insert;
                    }
                    let start = scratch_word(r, 1, wt_layout::SP_START);
                    let limit = scratch_word(r, 1, wt_layout::SP_REMAIN);
                    let bulk = TREE_KEYS.saturating_sub(start.div_ceil(2));
                    let extra = inserted.len() - inserted.partition_point(|&k| k < start);
                    Expect::Matched {
                        matched: limit.min(bulk + extra as u64),
                    }
                })
                .collect();
            let mint = (mint_start, Instant::now());
            Ok(World {
                runtime,
                requests: reqs,
                expect,
                keys,
                build,
                mint,
            })
        }
    }
}
