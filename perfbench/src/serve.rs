//! The all-miss serve mix: seeded lists of distinct simulate jobs driven
//! through a store-backed `mic-serve` server in a closed loop, checked
//! against direct `JobSpec::compute`.

use crate::util::{num, nums, obj, peak_rss_mb, since, strs};
use mic_eval::graph::suite::{PaperGraph, Scale};
use mic_eval::json::Value;
use mic_eval::obs::TraceCtx;
use mic_eval::sim::Policy;
use mic_eval::workload_cache::OrderTag;
use mic_serve::frame;
use mic_serve::protocol::{JobSpec, Kernel, Request, Response};
use mic_serve::server::{ServeOpts, Server};
use std::io::BufReader;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

pub const KERNELS: [Kernel; 6] = [
    Kernel::Coloring,
    Kernel::Irregular,
    Kernel::Bfs,
    Kernel::PageRank,
    Kernel::Components,
    Kernel::HybridBfs,
];

/// The protocol's omp/cilk/tbb policies at its default chunk and grain.
pub const POLICIES: [Policy; 7] = [
    Policy::OmpStatic { chunk: Some(100) },
    Policy::OmpDynamic { chunk: 100 },
    Policy::OmpGuided { min_chunk: 100 },
    Policy::Cilk { grain: 100 },
    Policy::TbbSimple { grain: 40 },
    Policy::TbbAuto,
    Policy::TbbAffinity,
];

/// The protocol's default scale.
pub const SCALE: Scale = Scale::Fraction(64);

/// SplitMix64: a tiny seeded generator, so the list depends on nothing
/// but the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn spec(kernel: Kernel, graph: PaperGraph, policy: Policy, threads: usize) -> JobSpec {
    JobSpec {
        kernel,
        graph,
        order: OrderTag::Natural,
        policy,
        threads,
        scale: SCALE,
        iter: 1,
        delay_ms: 0,
    }
}

/// Jobs per (kernel, graph) pair: 42 for each of the paper's kernels
/// (coloring, irregular, BFS: under a millisecond each) and 7 for each
/// scale-free kernel (PageRank, components, hybrid BFS: up to tens of
/// milliseconds). 27 pairs of each, so 1323 requests, 13 of them beyond
/// the p99 of one list.
pub const PER_PAIR: [usize; 6] = [42, 42, 42, 7, 7, 7];

/// `KERNELS[..PAPER_KERNELS]` are the paper's kernels.
pub const PAPER_KERNELS: usize = 3;

/// The request list drawn from `seed`: `PER_PAIR` distinct jobs for
/// every (kernel, graph) pair, shuffled into one list. Within a pair,
/// each policy takes the same share of the jobs, and the thread range
/// 2..=124 is cut into equal strata with one seeded thread count drawn
/// from each, matched to the policies in a seeded order. So the mix of
/// cheap and expensive jobs is the same whatever the seed, and keys are
/// distinct by construction.
pub fn request_list(seed: u64) -> Vec<JobSpec> {
    let rng = &mut Rng::new(seed);
    let mut list = Vec::new();
    for (&kernel, &per_pair) in KERNELS.iter().zip(&PER_PAIR) {
        debug_assert!(per_pair % POLICIES.len() == 0 && per_pair <= THREADS);
        for graph in PaperGraph::every() {
            let mut policies: Vec<Policy> = (0..per_pair).map(|i| POLICIES[i % POLICIES.len()]).collect();
            shuffle(&mut policies, rng);
            for (stratum, policy) in policies.into_iter().enumerate() {
                let lo = stratum * THREADS / per_pair;
                let hi = (stratum + 1) * THREADS / per_pair;
                list.push(spec(kernel, graph, policy, 2 + lo + rng.below(hi - lo)));
            }
        }
    }
    shuffle(&mut list, rng);
    list
}

/// The seed of round `round`'s list in a run with seed `seed`. Every
/// round serves another list, so how often expensive jobs meet on one
/// server shard averages out over a run instead of being fixed by one
/// list.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    let mut rng = Rng::new(seed);
    for _ in 0..round {
        rng.next();
    }
    rng.next()
}

fn is_paper(kernel: Kernel) -> bool {
    KERNELS[..PAPER_KERNELS].contains(&kernel)
}

/// How many thread counts the list draws from: 2..=124.
const THREADS: usize = 123;

/// Fisher–Yates with the benchmark's generator.
fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// One warm-up job per (kernel, graph) at one thread: instruments every
/// workload the list uses without sharing a key with it.
pub fn warmup_list() -> Vec<JobSpec> {
    KERNELS
        .iter()
        .flat_map(|&k| PaperGraph::every().map(|g| spec(k, g, Policy::OmpDynamic { chunk: 100 }, 1)))
        .collect()
}

/// A store-backed server on an ephemeral localhost port.
pub fn start_server(store_dir: &Path) -> Result<Server, String> {
    std::fs::create_dir_all(store_dir).map_err(|e| format!("{}: {e}", store_dir.display()))?;
    let opts = ServeOpts {
        store_path: Some(store_dir.join("results.store")),
        ..ServeOpts::from_config(&mic_eval::config::current())
    };
    Server::start("127.0.0.1:0", opts).map_err(|e| format!("server start: {e}"))
}

/// What the client saw for one request.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub latency_ms: f64,
    pub response: Response,
    pub trace: u128,
}

fn connect(addr: &str) -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok((BufReader::new(stream.try_clone()?), stream))
}

/// Send one request over the binary wire and wait for its response.
pub fn call(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, req: &Request) -> Result<Response, String> {
    let (tag, payload) = frame::encode_request(req);
    frame::write_frame(writer, tag, &payload).map_err(|e| format!("send: {e}"))?;
    match frame::read_frame(reader, 1 << 20) {
        Ok(Some((tag, payload))) => frame::decode_response(tag, &payload),
        Ok(None) => Err("server closed the connection".into()),
        Err(e) => Err(format!("receive: {e}")),
    }
}

/// Drive `specs` through the server in a closed loop over `conns`
/// connections; returns the outcomes in list order and the wall time
/// from the first send to the last response.
pub fn drive(addr: &str, specs: &[JobSpec], conns: usize, traced: bool) -> Result<(Vec<Outcome>, f64), String> {
    let next = AtomicUsize::new(0);
    let t = Instant::now();
    let per_conn: Vec<Result<Vec<(usize, Outcome)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(|| -> Result<Vec<(usize, Outcome)>, String> {
                    let (mut reader, mut writer) = connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut got = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(i) else { break };
                        let ctx = traced.then(TraceCtx::mint);
                        let req = Request::Simulate { id: i.to_string(), spec: spec.clone(), ctx };
                        let sent = Instant::now();
                        let response = call(&mut reader, &mut writer, &req)?;
                        let latency_ms = since(sent) * 1e3;
                        got.push((i, Outcome { latency_ms, response, trace: ctx.map_or(0, |c| c.trace) }));
                    }
                    Ok(got)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into()))).collect()
    });
    let wall = since(t);
    let mut all: Vec<(usize, Outcome)> = Vec::new();
    for r in per_conn {
        all.extend(r?);
    }
    all.sort_by_key(|(i, _)| *i);
    Ok((all.into_iter().map(|(_, o)| o).collect(), wall))
}

/// The client's connection count: one per core, as `nproc` counts them.
pub fn conns() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// Summed latency, in seconds, of the paper kernels' requests and of the
/// scale-free kernels' requests: the client time each group costs,
/// waiting behind other jobs included.
fn group_seconds(list: &[JobSpec], outcomes: &[Outcome]) -> (f64, f64) {
    let mut sums = (0.0, 0.0);
    for (spec, o) in list.iter().zip(outcomes) {
        if is_paper(spec.kernel) {
            sums.0 += o.latency_ms / 1e3;
        } else {
            sums.1 += o.latency_ms / 1e3;
        }
    }
    sums
}

/// Direct `JobSpec::compute` of every spec on `threads` threads, with
/// each job's host milliseconds.
pub fn compute_direct(specs: &[JobSpec], threads: usize) -> Vec<(f64, f64)> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, (f64, f64))> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut got = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(i) else { break };
                        let t = Instant::now();
                        let cycles = spec.compute();
                        got.push((i, (cycles, since(t) * 1e3)));
                    }
                    got
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("compute thread")).collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// Why an outcome counts as failed, if it does: not `ok`, served from a
/// cache or coalesced (the mix promises misses), or cycles that are not
/// bit-identical to direct computation.
pub fn judge(o: &Outcome, direct_cycles: f64) -> Option<String> {
    match &o.response {
        Response::Ok { cycles, meta, .. } => {
            if meta.cached || meta.coalesced {
                Some(format!("cached={} coalesced={}", meta.cached, meta.coalesced))
            } else if cycles.to_bits() != direct_cycles.to_bits() {
                Some(format!("cycles {cycles} served, {direct_cycles} computed"))
            } else {
                None
            }
        }
        other => Some(format!("status {}", other.status())),
    }
}

/// Start a server and warm every workload: the serve-miss set-up.
fn set_up(scratch: &Path) -> Result<(Server, f64), String> {
    let t = Instant::now();
    let server = start_server(&scratch.join("store-setup"))?;
    let (warm, _) = drive(&server.addr.to_string(), &warmup_list(), conns(), false)?;
    if let Some(bad) = warm.iter().find(|o| !matches!(o.response, Response::Ok { .. })) {
        return Err(format!("warm-up request failed: {:?}", bad.response));
    }
    Ok((server, since(t)))
}

pub struct ServeArgs<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub scratch: &'a Path,
}

/// The `serve-setup` subcommand: one set-up in this fresh process.
pub fn setup_cmd(a: &ServeArgs) -> Result<Value, String> {
    let (server, setup_s) = set_up(a.scratch)?;
    server.shutdown();
    Ok(obj(vec![("setup_s", num(setup_s))]))
}

/// One timed round: a list served once through a fresh server.
struct Round {
    list: Vec<JobSpec>,
    outcomes: Vec<Outcome>,
    wall_s: f64,
}

/// The `serve` subcommand: set up, then run whole rounds (each round's
/// own list on a fresh server and store, so every request misses, and
/// every response checked) until `seconds` of rounds have passed.
pub fn serve_cmd(a: &ServeArgs) -> Result<(Value, bool), String> {
    let (server, setup_s) = set_up(a.scratch)?;
    server.shutdown();
    // Each round is checked right after it, outside the timed span, so the
    // rounds are spread over a longer stretch of the host's noisy and
    // quiet spells.
    let mut timed = 0.0;
    let mut rounds: Vec<Round> = Vec::new();
    let mut failed = 0usize;
    let mut notes = Vec::new();
    while rounds.is_empty() || timed < a.seconds {
        let t = Instant::now();
        let list = request_list(round_seed(a.seed, rounds.len()));
        let dir = a.scratch.join(format!("store-{}", rounds.len()));
        let server = start_server(&dir)?;
        let (outcomes, wall_s) = drive(&server.addr.to_string(), &list, conns(), false)?;
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        timed += since(t);
        let direct = compute_direct(&list, conns());
        for ((spec, o), d) in list.iter().zip(&outcomes).zip(&direct) {
            if let Some(why) = judge(o, d.0) {
                failed += 1;
                if notes.len() < 20 {
                    notes.push(format!("{}: {why}", spec.key()));
                }
            }
        }
        rounds.push(Round { list, outcomes, wall_s });
    }
    // Every kernel runs on every graph of the lists: check their outputs
    // at the lists' scale.
    let graphs: Vec<_> = PaperGraph::every()
        .into_iter()
        .map(|g| (g, OrderTag::Natural, crate::regen::EVERY_KERNEL))
        .collect();
    let kernel_notes = crate::regen::check_kernels(SCALE, &graphs);
    let checks_ok = kernel_notes.is_empty();
    notes.extend(kernel_notes);
    let round_vals = Value::Arr(
        rounds
            .iter()
            .map(|r| {
                let (paper_s, scale_free_s) = group_seconds(&r.list, &r.outcomes);
                let lat: Vec<f64> = r.outcomes.iter().map(|x| x.latency_ms).collect();
                obj(vec![
                    ("wall_s", num(r.wall_s)),
                    ("paper_s", num(paper_s)),
                    ("scale_free_s", num(scale_free_s)),
                    ("lat_ms", nums(&lat)),
                ])
            })
            .collect(),
    );
    let attempted: usize = rounds.iter().map(|r| r.list.len()).sum();
    let v = obj(vec![
        ("setup_s", num(setup_s)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        ("rounds", round_vals),
        ("check_failures", strs(&notes)),
    ]);
    Ok((v, failed == 0 && checks_ok))
}

/// The serve half of the traced survey: the first round's list once on a
/// fresh server with request tracing on, stage spans read back with the
/// `trace` op, direct compute of the same specs, and binary-wire pings.
pub fn layers_cmd(a: &ServeArgs) -> Result<(Value, bool), String> {
    let (server, setup_s) = set_up(a.scratch)?;
    server.shutdown();
    let list = request_list(round_seed(a.seed, 0));
    let server = start_server(&a.scratch.join("store-traced"))?;
    let addr = server.addr.to_string();
    let (outcomes, wall_s) = drive(&addr, &list, conns(), true)?;
    let (paper_s, scale_free_s) = group_seconds(&list, &outcomes);
    let (mut reader, mut writer) = connect(&addr).map_err(|e| format!("connect: {e}"))?;
    const STAGES: [&str; 5] = ["queue_wait", "execute", "store_probe", "store_write", "serialize"];
    let mut stages: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    for (i, o) in outcomes.iter().enumerate() {
        let req = Request::Trace { id: format!("t{i}"), trace: o.trace };
        let Response::Trace { fields, .. } = call(&mut reader, &mut writer, &req)? else {
            return Err("trace op did not answer with a summary".into());
        };
        for (s, stage) in STAGES.iter().enumerate() {
            if let Some((_, us)) = fields.iter().find(|(k, _)| *k == format!("{stage}_us")) {
                stages[s].push(*us);
            }
        }
    }
    let mut pings = Vec::new();
    for i in 0..200 {
        let t = Instant::now();
        call(&mut reader, &mut writer, &Request::Ping { id: format!("p{i}") })?;
        pings.push(since(t) * 1e6);
    }
    let stats = server.stats();
    let batches = stats.batches.load(Ordering::Relaxed) as f64;
    let executed = stats.executed.load(Ordering::Relaxed) as f64;
    drop((reader, writer));
    server.shutdown();
    let rss = peak_rss_mb();
    let direct = compute_direct(&list, 1);
    let failed = outcomes.iter().zip(&direct).filter(|(o, d)| judge(o, d.0).is_some()).count();
    let mut fields: Vec<(&str, Value)> = vec![
        ("setup_s", num(setup_s)),
        ("wall_s", num(wall_s)),
        ("paper_s", num(paper_s)),
        ("scale_free_s", num(scale_free_s)),
        ("lat_ms", nums(&outcomes.iter().map(|o| o.latency_ms).collect::<Vec<_>>())),
        ("compute_ms", nums(&direct.iter().map(|d| d.1).collect::<Vec<_>>())),
        ("kernels", strs(&list.iter().map(|s| s.kernel.name().to_string()).collect::<Vec<_>>())),
        ("ping_us", nums(&pings)),
        ("batch_jobs", num(executed / batches.max(1.0))),
        ("rss_mb", num(rss)),
        ("failed", num(failed as f64)),
    ];
    let stage_vals: Vec<Value> = stages.iter().map(|v| nums(v)).collect();
    for (stage, v) in STAGES.iter().zip(stage_vals) {
        fields.push((stage, v));
    }
    Ok((obj(fields), failed == 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_list_is_seeded_distinct_and_covering() {
        let keys = |l: &[JobSpec]| l.iter().map(JobSpec::key).collect::<Vec<_>>();
        let a = request_list(7);
        assert_eq!(a.len(), 9 * PER_PAIR.iter().sum::<usize>());
        assert_eq!(keys(&a), keys(&request_list(7)));
        assert_ne!(keys(&a), keys(&request_list(8)));
        let distinct: std::collections::HashSet<String> = keys(&a).into_iter().collect();
        assert_eq!(distinct.len(), a.len(), "keys are distinct");
        // One shuffled list: the expensive kernels are not all at one end.
        let first_scale_free = a.iter().position(|s| !is_paper(s.kernel)).unwrap();
        assert!(first_scale_free < a.len() / 10, "scale-free jobs are spread through the list");
        for (k, n) in KERNELS.into_iter().zip(PER_PAIR) {
            for g in PaperGraph::every() {
                let pair: Vec<&JobSpec> = a.iter().filter(|s| s.kernel == k && s.graph == g).collect();
                assert_eq!(pair.len(), n, "{k:?} on {g:?}");
                for p in POLICIES {
                    assert_eq!(pair.iter().filter(|s| s.policy == p).count(), n / 7, "{p:?}");
                }
                // One thread count from each of the n strata of 2..=124.
                let stratum = |t: usize| (0..n).rev().find(|&k| k * THREADS / n <= t - 2).unwrap();
                let mut t: Vec<usize> = pair.iter().map(|s| stratum(s.threads)).collect();
                t.sort_unstable();
                assert_eq!(t, (0..n).collect::<Vec<_>>());
            }
        }
        for s in &a {
            assert!((2..=124).contains(&s.threads));
            assert_eq!((s.scale, s.order, s.iter, s.delay_ms), (SCALE, OrderTag::Natural, 1, 0));
        }
        // The warm-up shares no key with any list.
        assert!(warmup_list().iter().all(|w| !distinct.contains(&w.key())));
    }

    #[test]
    fn rounds_serve_different_lists_from_one_seed() {
        let seeds: Vec<u64> = (0..5).map(|r| round_seed(3, r)).collect();
        assert_eq!(seeds, (0..5).map(|r| round_seed(3, r)).collect::<Vec<_>>());
        let distinct: std::collections::HashSet<u64> = seeds.iter().copied().collect();
        assert_eq!(distinct.len(), seeds.len());
        assert_ne!(round_seed(3, 0), round_seed(4, 0));
    }

    #[test]
    fn group_seconds_split_by_kernel() {
        let list = request_list(1);
        let outcomes: Vec<Outcome> = list
            .iter()
            .map(|s| Outcome {
                latency_ms: if is_paper(s.kernel) { 1.0 } else { 10.0 },
                response: Response::Pong { id: String::new() },
                trace: 0,
            })
            .collect();
        let (paper, scale_free) = group_seconds(&list, &outcomes);
        assert!((paper - 1134.0 * 1e-3).abs() < 1e-9);
        assert!((scale_free - 189.0 * 10.0 * 1e-3).abs() < 1e-9);
    }
    #[test]
    fn rng_is_deterministic_and_in_range() {
        let mut r = Rng::new(1);
        let first: Vec<u64> = (0..4).map(|_| r.next()).collect();
        let mut r = Rng::new(1);
        assert_eq!(first, (0..4).map(|_| r.next()).collect::<Vec<_>>());
        let mut r = Rng::new(2);
        assert!((0..1000).all(|_| r.below(7) < 7));
    }
}
