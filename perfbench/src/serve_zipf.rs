//! `serve_zipf`: closed-loop plan requests over loopback to an in-process
//! `dmf_serve::Server` at its default configuration, one blocking
//! `Client` per thread, with Zipf-skewed keys over a universe twice the
//! plan cache's capacity.

use crate::gate;
use crate::gen::{lane_rng, serve_universe, Zipf};
use crate::stats::{elapsed_ns, median, Layers, Probe};
use crate::workload::{Model, Phase, Workload};
use dmfstream::engine::{
    EngineConfig, PlanKey, StreamPlan, StreamingEngine, DEFAULT_PLAN_CACHE_CAPACITY,
};
use dmfstream::obs::json::{self, Json};
use dmfstream::serve::protocol::{parse_request, plan_response};
use dmfstream::serve::{Client, ServeConfig, Server};
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Keys in the universe, as a multiple of the default cache capacity.
/// Any multiple above 1 makes hits, misses and evictions all occur; 2 is
/// an unverified assumption, not a measured property of plan traffic.
const UNIVERSE_PER_CAPACITY: usize = 2;

/// Zipf exponent of key popularity: the Zipfian constant of the YCSB
/// key-value benchmark (Cooper et al., SoCC 2010). No trace of
/// plan-request traffic exists to fit it to.
const ZIPF_S: f64 = 0.99;

/// Requests replayed into the cache at set-up, as a multiple of its
/// capacity, so the phases see the LRU's steady state under this traffic
/// (a long-running server) rather than a cold start.
const WARM_PER_CAPACITY: usize = 8;

/// One key of the universe with everything the gate needs.
struct Key {
    /// The request line sent for it.
    line: String,
    /// The response `plan_response` gives for a local plan of the key.
    expected: String,
    plan: Arc<StreamPlan>,
    plan_key: PlanKey,
    droplets: u64,
}

/// Server-side figures read from the `stats` op after the traced phase.
#[derive(Debug, Default)]
struct ServerStats {
    latency_p50_ns: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    queue_depth_peak: u64,
    busy: u64,
}

pub struct ServeZipf {
    server: Arc<Server>,
    thread: JoinHandle<io::Result<()>>,
    addr: SocketAddr,
    keys: Vec<Key>,
    zipf: Zipf,
    clients: Vec<Client>,
    seed: u64,
    phases: u64,
    model: Model,
    stats: ServerStats,
}

fn request_line(parts: &[u64], demand: u64) -> String {
    let ratio: Vec<String> = parts.iter().map(u64::to_string).collect();
    format!("{{\"op\":\"plan\",\"ratio\":\"{}\",\"demand\":{demand}}}", ratio.join(":"))
}

fn server_stats(addr: SocketAddr) -> Result<ServerStats, String> {
    let line = Client::connect(addr)
        .and_then(|mut c| c.request("{\"op\":\"stats\"}"))
        .map_err(|e| format!("stats request: {e}"))?;
    let doc = json::parse(&line).map_err(|e| format!("stats response {line:?}: {e}"))?;
    let field = |name: &str| {
        doc.get(name).and_then(Json::as_u64).ok_or_else(|| format!("stats lacks {name}: {line}"))
    };
    Ok(ServerStats {
        latency_p50_ns: field("latency_p50_ns")?,
        hits: field("cache_hits")?,
        misses: field("cache_misses")?,
        evictions: field("cache_evictions")?,
        queue_depth_peak: field("queue_depth_peak")?,
        busy: field("busy")?,
    })
}

impl Workload for ServeZipf {
    /// One sample per round trip, ~1365 in a 30 s run: 13 beyond p99.
    const TAIL_PCT: u32 = 99;

    fn setup(seed: u64) -> Result<Self, String> {
        let config = EngineConfig::default();
        let engine = StreamingEngine::new(config);
        let capacity = DEFAULT_PLAN_CACHE_CAPACITY;
        let mut keys = Vec::new();
        let mut model = Model::default();
        for (ratio, demand) in serve_universe(seed, UNIVERSE_PER_CAPACITY * capacity) {
            let plan = engine
                .plan(&ratio, demand)
                .map_err(|e| format!("{:?} D={demand}: {e}", ratio.parts()))?;
            let plan_key = PlanKey::new(&config, &ratio, demand);
            model.add(&Model {
                mix_cycles: plan.total_cycles,
                electrode_actuations: 0,
                waste_droplets: plan.total_waste,
                input_droplets: plan.total_inputs,
                passes: plan.passes.len() as u64,
            });
            keys.push(Key {
                line: request_line(ratio.parts(), demand),
                expected: plan_response(&plan, plan_key.fingerprint()),
                droplets: plan.passes.iter().map(|p| 2 * p.forest.tree_count() as u64).sum(),
                plan: Arc::new(plan),
                plan_key,
            });
        }
        let server =
            Arc::new(Server::bind(ServeConfig::default()).map_err(|e| format!("bind: {e}"))?);
        let addr = server.local_addr().map_err(|e| format!("local_addr: {e}"))?;
        // Warm-up: replay the traffic's own key stream (lane 0; the
        // clients use lanes from 1 << 16) through the lookup-or-store path
        // the server takes per request.
        let zipf = Zipf::new(keys.len(), ZIPF_S);
        let mut rng = lane_rng(seed, 0);
        for _ in 0..WARM_PER_CAPACITY * capacity {
            let key = &keys[zipf.sample(&mut rng)];
            if server.cache().lookup(&key.plan_key).is_none() {
                server.cache().store(key.plan_key.clone(), Arc::clone(&key.plan));
            }
        }
        let running = Arc::clone(&server);
        let thread = std::thread::spawn(move || running.run());
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut clients = Vec::with_capacity(threads);
        for _ in 0..threads {
            let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
            client.request("{\"op\":\"ping\"}").map_err(|e| format!("warm-up ping: {e}"))?;
            clients.push(client);
        }
        Ok(ServeZipf {
            server,
            thread,
            addr,
            zipf,
            keys,
            clients,
            seed,
            phases: 0,
            model,
            stats: ServerStats::default(),
        })
    }

    fn run(&mut self, budget: Duration, probe: &mut Probe) -> Result<Phase, String> {
        self.phases += 1;
        let (keys, zipf) = (&self.keys, &self.zipf);
        let lane = self.phases << 16;
        let seed = self.seed;
        // Cache counters are cumulative, warm-up included: the traced
        // phase reports its own share.
        let before = if probe.is_on() { server_stats(self.addr)? } else { ServerStats::default() };
        let start = Instant::now();
        let per_client: Vec<(Phase, Vec<usize>)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(i, client)| {
                    s.spawn(move || {
                        let mut rng = lane_rng(seed, lane + i as u64);
                        let mut phase = Phase::default();
                        let mut ranks = Vec::new();
                        loop {
                            let rank = zipf.sample(&mut rng);
                            let key = &keys[rank];
                            phase.attempted += 1;
                            let t0 = Instant::now();
                            let reply = client.request(&key.line);
                            let ns = elapsed_ns(t0);
                            ranks.push(rank);
                            match reply {
                                Ok(line) => match gate::response(&line, &key.expected) {
                                    Ok(()) => {
                                        phase.latencies.push(ns);
                                        phase.plans += 1;
                                        phase.droplets += key.droplets;
                                    }
                                    Err(e) => phase.fail(e),
                                },
                                // The connection is gone; this client stops.
                                Err(e) => {
                                    phase.fail(format!("request {}: {e}", key.line));
                                    return (phase, ranks);
                                }
                            }
                            if start.elapsed() >= budget {
                                return (phase, ranks);
                            }
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let mut phase = Phase { wall: start.elapsed(), ..Phase::default() };
        let mut sent = Vec::new();
        for (client, ranks) in per_client {
            phase.merge(client);
            sent.extend(ranks);
        }
        if probe.is_on() {
            // Decode and encode, timed from outside over this phase's own
            // request lines and plans.
            for &rank in &sent {
                let key = &self.keys[rank];
                if let Err(e) = probe.time("serve_decode", || parse_request(&key.line)) {
                    phase.fail(format!("decode {}: {e}", key.line));
                }
                let line = probe
                    .time("serve_encode", || plan_response(&key.plan, key.plan_key.fingerprint()));
                if let Err(e) = gate::response(&line, &key.expected) {
                    phase.fail(e);
                }
            }
            let after = server_stats(self.addr)?;
            self.stats = ServerStats {
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
                evictions: after.evictions - before.evictions,
                ..after
            };
        }
        Ok(phase)
    }

    fn model(&self) -> Model {
        self.model
    }

    fn extras(&mut self, _layers: &Layers, traced: &Phase) -> BTreeMap<&'static str, f64> {
        let client_p50 = median(&traced.latencies) as f64;
        let s = &self.stats;
        let lookups = (s.hits + s.misses).max(1);
        BTreeMap::from([
            ("plan_cache.hit_ratio", s.hits as f64 / lookups as f64),
            ("plan_cache.evictions", s.evictions as f64),
            ("serve.server_p50_ns", s.latency_p50_ns as f64),
            ("serve.wire_p50_ns", client_p50 - s.latency_p50_ns as f64),
            ("serve.queue_depth_peak", s.queue_depth_peak as f64),
            ("serve.busy", s.busy as f64),
        ])
    }

    fn teardown(self) -> Result<(), String> {
        self.server.request_shutdown();
        drop(self.clients);
        match self.thread.join() {
            Ok(result) => result.map_err(|e| format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}
