//! Figure regeneration: the timed render of every exhibit `all` renders,
//! its correctness checks, and the layered (traced) survey.

use crate::refs;
use crate::util::{cpu_seconds, dir_bytes, num, obj, peak_rss_mb, since, strs};
use mic_eval::bfs::direction::{parallel_hybrid_bfs, Hybrid};
use mic_eval::bfs::instrument::SimVariant;
use mic_eval::bfs::seq::table1_source;
use mic_eval::bfs::{parallel_bfs, BfsVariant};
use mic_eval::coloring::{iterative_coloring, RuntimeModel};
use mic_eval::exhibit::{registry, Group};
use mic_eval::graph::stats::LocalityWindows;
use mic_eval::graph::suite::{PaperGraph, Scale};
use mic_eval::json::Value;
use mic_eval::runtime::{Schedule, ThreadPool};
use mic_eval::workload_cache::{self as wc, OrderTag};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The regeneration scale: every exhibit at 1/16 of the paper's vertex
/// counts.
const SCALE_DIV: u32 = 16;
pub const SCALE: Scale = Scale::Fraction(SCALE_DIV);

/// One rendered exhibit.
pub struct Rendered {
    pub id: &'static str,
    pub group: Group,
    pub secs: f64,
    /// Sweep points that degraded to NaN while rendering it.
    pub degraded: usize,
    pub text: String,
}

/// Render every exhibit of `all`, in `all`'s order, timing each.
pub fn render_all(scale: Scale) -> Vec<Rendered> {
    let _ = mic_eval::sweep::take_failures();
    registry()
        .in_all()
        .map(|e| {
            let t = Instant::now();
            let text = (e.run)(scale);
            let secs = since(t);
            Rendered {
                id: e.id,
                group: e.group,
                secs,
                degraded: mic_eval::sweep::take_failures().len(),
                text,
            }
        })
        .collect()
}

/// Engine counters from the metrics registry (zero when it is off).
pub struct SimCounters {
    pub regions: f64,
    pub chunks: f64,
    pub host_s: f64,
}

impl SimCounters {
    pub fn read() -> SimCounters {
        let snap = mic_metrics::snapshot();
        SimCounters {
            regions: snap.family_total("mic_sim_runs_total"),
            chunks: snap.family_total("mic_sim_chunks_total"),
            host_s: snap
                .hist("mic_sim_engine_seconds", &[])
                .map_or(0.0, |h| h.sum),
        }
    }

    pub fn since(&self, before: &SimCounters) -> SimCounters {
        SimCounters {
            regions: self.regions - before.regions,
            chunks: self.chunks - before.chunks,
            host_s: self.host_s - before.host_s,
        }
    }
}

/// The `render` subcommand: one full regeneration in this (fresh)
/// process, optionally followed by the correctness checks.
pub fn render_cmd(check: bool) -> (Value, bool) {
    let t = Instant::now();
    let out = render_all(SCALE);
    let wall = since(t);
    let failures = if check { check_regen(SCALE, &out) } else { Vec::new() };
    let failed_ids: Vec<String> = out
        .iter()
        .filter(|r| r.degraded > 0 || failures.iter().any(|f| f.starts_with(&format!("{}:", r.id))))
        .map(|r| r.id.to_string())
        .collect();
    let exhibits = Value::Arr(
        out.iter()
            .map(|r| {
                obj(vec![
                    ("id", Value::str(r.id)),
                    ("group", Value::str(r.group.name())),
                    ("s", num(r.secs)),
                    ("degraded", num(r.degraded as f64)),
                    ("hash", Value::str(format!("{:016x}", wc::xxh64(r.text.as_bytes(), 0)))),
                ])
            })
            .collect(),
    );
    let ok = failures.is_empty();
    let v = obj(vec![
        ("wall_s", num(wall)),
        ("exhibits", exhibits),
        ("failed_ids", strs(&failed_ids)),
        ("check_failures", strs(&failures)),
    ]);
    (v, ok)
}

// ---------------------------------------------------------------------------
// Correctness checks
// ---------------------------------------------------------------------------

/// Which kernels' outputs to check on one graph.
#[derive(Clone, Copy)]
pub struct Kernels {
    pub bfs: bool,
    pub hybrid: bool,
    pub coloring: bool,
    pub components: bool,
    pub pagerank: bool,
}

pub const EVERY_KERNEL: Kernels = Kernels { bfs: true, hybrid: true, coloring: true, components: true, pagerank: true };

/// Every graph an exhibit's workload is built from, with the kernels the
/// exhibits run on it: coloring and BFS on the seven meshes, the
/// scale-free kernels on the RMAT graphs and hood, and coloring on the
/// reordered copies Figure 2 and the ordering ablation use.
fn exhibit_graphs() -> Vec<(PaperGraph, OrderTag, Kernels)> {
    let none = Kernels { bfs: false, hybrid: false, coloring: false, components: false, pagerank: false };
    let mut v = Vec::new();
    for g in PaperGraph::every() {
        let mesh = !g.is_scale_free();
        let scale_free_kernels = !mesh || g == PaperGraph::Hood;
        v.push((
            g,
            OrderTag::Natural,
            Kernels {
                bfs: true,
                hybrid: !mesh,
                coloring: mesh,
                components: scale_free_kernels,
                pagerank: scale_free_kernels,
            },
        ));
    }
    let coloring = Kernels { coloring: true, ..none };
    for g in PaperGraph::all() {
        v.push((g, OrderTag::Random { seed: 0xF16 ^ g.name().len() as u64 }, coloring));
    }
    v.push((PaperGraph::Hood, OrderTag::CuthillMcKee { source: 0 }, coloring));
    v.push((PaperGraph::Hood, OrderTag::Random { seed: 77 }, coloring));
    v
}

/// All checks of one regeneration; each failure names its exhibit (or
/// `kernel`) before a colon.
pub fn check_regen(scale: Scale, out: &[Rendered]) -> Vec<String> {
    let mut fails = Vec::new();
    for r in out {
        if r.id == "table1" {
            fails.extend(check_table1(scale, &r.text).into_iter().map(|f| format!("table1: {f}")));
        } else {
            fails.extend(check_speedup_tables(&r.text).into_iter().map(|f| format!("{}: {f}", r.id)));
        }
    }
    fails.extend(check_kernels(scale, &exhibit_graphs()).into_iter().map(|f| format!("kernel: {f}")));
    fails
}

/// Recompute Table I's |V|, |E|, Δ, #Color and #Level from each built
/// graph and compare with the rendered row.
pub fn check_table1(scale: Scale, text: &str) -> Vec<String> {
    let mut fails = Vec::new();
    for pg in PaperGraph::all() {
        let g = wc::graph(pg, scale, OrderTag::Natural);
        let n = g.num_vertices();
        let edges = g.xadj()[n] / 2;
        let levels = refs::num_levels(&refs::bfs_levels(&g, (n / 2) as u32));
        let colors = refs::num_colors(&refs::greedy_colors(&g));
        let want = [n, edges, refs::max_degree(&g), colors as usize, levels as usize];
        let row = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some(pg.name()));
        let Some(row) = row else {
            fails.push(format!("row {} missing", pg.name()));
            continue;
        };
        let got: Vec<usize> = row
            .split_whitespace()
            .skip(1)
            .take(5)
            .filter_map(|v| v.parse().ok())
            .collect();
        if got != want {
            fails.push(format!("{}: rendered {got:?}, recomputed {want:?}", pg.name()));
        }
    }
    fails
}

/// One parsed speedup table.
#[derive(Debug)]
pub struct Table {
    pub title: String,
    pub axis: String,
    pub series: usize,
    pub rows: Vec<(usize, Vec<f64>)>,
}

/// Parse the `# title / # y: … / header / rows` blocks of a rendering.
pub fn parse_tables(text: &str) -> Vec<Table> {
    let mut tables = Vec::new();
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        let Some(title) = line.strip_prefix("# ") else { continue };
        if title.starts_with("y:") {
            continue;
        }
        if !lines.peek().is_some_and(|l| l.starts_with("# y:")) {
            continue;
        }
        lines.next();
        let Some(header) = lines.next() else { break };
        // Column labels are right-aligned in 22-wide fields after an
        // 8-wide axis label, so the column count follows from the width.
        let series = header.len().saturating_sub(8) / 23;
        let axis = header.split_whitespace().next().unwrap_or("").to_string();
        let mut rows = Vec::new();
        while let Some(row) = lines.peek() {
            let mut cells = row.split_whitespace();
            let Some(x) = cells.next().and_then(|x| x.parse::<usize>().ok()) else { break };
            let ys: Vec<f64> = cells.map(|c| c.parse().unwrap_or(f64::NAN)).collect();
            rows.push((x, ys));
            lines.next();
        }
        tables.push(Table { title: title.to_string(), axis, series, rows });
    }
    tables
}

/// The x grid a table must have, from its axis and title.
fn expected_grid(t: &Table) -> Option<Vec<usize>> {
    match t.axis.as_str() {
        // The Xeon comparison sweeps every thread count of its 24-thread
        // host; everything else uses the KNF grid 1, 11, …, 121.
        "threads" if t.title.ends_with("on xeon") => Some((1..=24).collect()),
        "threads" => Some((0..13).map(|i| 1 + 10 * i).collect()),
        _ => None,
    }
}

/// Every speedup table: every row present with one value per series,
/// every point finite and > 0, and the normalising series at 1.00 on one
/// thread.
pub fn check_speedup_tables(text: &str) -> Vec<String> {
    let mut fails = Vec::new();
    let tables = parse_tables(text);
    if tables.is_empty() {
        fails.push("no speedup table rendered".into());
    }
    for t in &tables {
        if t.series == 0 || t.rows.is_empty() {
            fails.push(format!("{:?}: empty table", t.title));
            continue;
        }
        if let Some(grid) = expected_grid(t) {
            let xs: Vec<usize> = t.rows.iter().map(|r| r.0).collect();
            if xs != grid {
                fails.push(format!("{:?}: rows {xs:?}, expected {grid:?}", t.title));
            }
            let one = &t.rows[0].1;
            // A speedup is relative to one series' one-thread time, so that
            // series reads exactly 1.00 there; others may sit below it
            // (runtime overhead) or above it (a faster algorithm).
            if !one.iter().any(|&y| format!("{y:.2}") == "1.00") {
                fails.push(format!("{:?}: no series at 1.00 on one thread: {one:?}", t.title));
            }
        } else if t.rows.windows(2).any(|w| w[0].0 >= w[1].0) {
            fails.push(format!("{:?}: x values not increasing", t.title));
        }
        for (x, ys) in &t.rows {
            if ys.len() != t.series {
                fails.push(format!("{:?}: row {x} has {} of {} values", t.title, ys.len(), t.series));
            }
            if let Some(bad) = ys.iter().find(|y| !(y.is_finite() && **y > 0.0)) {
                fails.push(format!("{:?}: row {x} has point {bad}", t.title));
            }
        }
    }
    fails
}

/// Run the program's native kernels on each listed graph and compare
/// their outputs with the references.
pub fn check_kernels(scale: Scale, graphs: &[(PaperGraph, OrderTag, Kernels)]) -> Vec<String> {
    let pool = ThreadPool::new(2);
    let model = RuntimeModel::OpenMp(Schedule::dynamic100());
    let mut fails = Vec::new();
    for &(pg, order, k) in graphs {
        let g = wc::graph(pg, scale, order);
        let name = format!("{}/{order:?}", pg.name());
        let src = table1_source(&g);
        let levels = refs::bfs_levels(&g, src);
        let variant = BfsVariant::OmpBlock {
            sched: Schedule::Dynamic { chunk: 32 },
            block: 32,
            relaxed: true,
        };
        if k.bfs && parallel_bfs(&pool, &g, src, variant).levels != levels {
            fails.push(format!("{name}: BFS levels differ from the reference"));
        }
        if k.hybrid && parallel_hybrid_bfs(&pool, &g, src, Hybrid::default()).levels != levels {
            fails.push(format!("{name}: hybrid BFS levels differ from the reference"));
        }
        if k.coloring && !refs::is_proper(&g, &iterative_coloring(&pool, &g, model).colors) {
            fails.push(format!("{name}: coloring is not proper"));
        }
        if k.components {
            let labels = mic_eval::bfs::components::components_parallel(&pool, &g, model).labels;
            if !refs::same_partition(&refs::union_find_roots(&g), &labels) {
                fails.push(format!("{name}: components differ from union-find"));
            }
        }
        if k.pagerank {
            let (damping, tol, iters) = (wc::PAGERANK_DAMPING, wc::PAGERANK_TOL, wc::PAGERANK_MAX_ITERS);
            let (ranks, _) = mic_eval::irregular::apps::pagerank(&pool, &g, damping, tol, iters, model);
            let dist = refs::l1(&ranks, &refs::pagerank(&g, damping, tol, iters));
            let sum: f64 = ranks.iter().sum();
            if dist > 1e-6 || (sum - 1.0).abs() > 1e-9 {
                fails.push(format!("{name}: PageRank L1 {dist:e} from the reference, sum {sum}"));
            }
        }
    }
    fails
}

// ---------------------------------------------------------------------------
// Layered survey (traced run)
// ---------------------------------------------------------------------------

/// One workload key, recovered from a cache file name
/// `wl1-<kind>-<graph>-<scale>-<order>-<l1>-<l2><extra>.bin`.
#[derive(Clone, Debug)]
pub struct Key {
    pub kind: String,
    pub graph: PaperGraph,
    pub order: OrderTag,
    pub windows: LocalityWindows,
    pub extra: String,
}

pub fn parse_key(file: &str, scale_code: &str) -> Option<Key> {
    let rest = file.strip_prefix("wl1-")?.strip_suffix(".bin")?;
    let (kind, rest) = rest.split_once('-')?;
    let graph = PaperGraph::every()
        .into_iter()
        .filter(|g| rest.starts_with(&format!("{}-", g.name())))
        .max_by_key(|g| g.name().len())?;
    let rest = rest[graph.name().len() + 1..].strip_prefix(scale_code)?.strip_prefix('-')?;
    let (order, rest) = rest.split_once('-')?;
    let order = if order == "nat" {
        OrderTag::Natural
    } else if let Some(hex) = order.strip_prefix("rnd") {
        OrderTag::Random { seed: u64::from_str_radix(hex, 16).ok()? }
    } else {
        OrderTag::CuthillMcKee { source: order.strip_prefix("cm")?.parse().ok()? }
    };
    let (l1, rest) = rest.split_once('-')?;
    let digits = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    let windows = LocalityWindows {
        l1_gap: l1.parse().ok()?,
        l2_gap: rest[..digits].parse().ok()?,
    };
    Some(Key { kind: kind.to_string(), graph, order, windows, extra: rest[digits..].to_string() })
}

fn parse_variant(extra: &str) -> Option<SimVariant> {
    let e = extra.strip_prefix('-')?;
    if e == "tls" {
        return Some(SimVariant::Tls);
    }
    if let Some(g) = e.strip_prefix("bag") {
        return Some(SimVariant::Bag { grain: g.parse().ok()? });
    }
    let b = e.strip_prefix("blk")?;
    let (digits, lock) = b.split_at(b.len() - 1);
    Some(SimVariant::Block { block: digits.parse().ok()?, relaxed: lock == "r" })
}

/// Build (or fetch) one keyed workload through the program's cache API.
fn build_key(k: &Key, scale: Scale) -> Option<()> {
    let (g, s, o, w) = (k.graph, scale, k.order, k.windows);
    match k.kind.as_str() {
        "coloring" => drop(wc::coloring(g, s, o, w)),
        "irregular" => drop(wc::irregular(g, s, o, w, k.extra.strip_prefix("-i")?.parse().ok()?)),
        "bfs" => drop(wc::bfs(g, s, o, w, parse_variant(&k.extra)?)),
        "pagerank" => drop(wc::pagerank(g, s, o, w)),
        "components" => drop(wc::components(g, s, o, w)),
        "hybrid" => drop(wc::hybrid_bfs(g, s, o, w)),
        _ => return None,
    }
    Some(())
}

/// The instrument layer's metric name for a cache-file kind.
fn kind_metric(kind: &str) -> String {
    let k = if kind == "hybrid" { "hybrid-bfs" } else { kind };
    format!("instrument.{k}_s")
}

const KINDS: [&str; 6] = ["coloring", "bfs", "irregular", "pagerank", "components", "hybrid"];

fn misses() -> f64 {
    mic_metrics::snapshot().family_total("mic_cache_misses_total")
}

/// The layered survey of one regeneration, in this fresh process:
/// graphs, then reorderings, then every workload key the exhibits use
/// (taken from the files of a filled cache `filled`), then each exhibit,
/// then the cache's read and write paths on those same files.
///
/// The process's cache directory is `nowhere`, a path under a regular
/// file: every workload lookup misses (and is counted) and no write
/// lands, so the instrument phase measures instrumentation and the
/// exhibit phase's miss count is the number of builds it still did.
pub fn layers_cmd(filled: &Path, scratch: &Path) -> Result<(Value, bool), String> {
    let scale = SCALE;
    let code = format!("f{SCALE_DIV}");
    let mut files: Vec<PathBuf> = std::fs::read_dir(filled)
        .map_err(|e| format!("{}: {e}", filled.display()))?
        .flatten()
        .map(|e| e.path())
        .collect();
    files.sort();
    let keys: Vec<Key> = files
        .iter()
        .filter_map(|p| p.file_name()?.to_str())
        .filter(|n| n.starts_with("wl1-"))
        .map(|n| parse_key(n, &code).ok_or_else(|| format!("unparsed cache file {n}")))
        .collect::<Result<_, _>>()?;
    let mut m: Vec<(String, f64)> = Vec::new();

    let t = Instant::now();
    for pg in PaperGraph::every() {
        drop(wc::graph(pg, scale, OrderTag::Natural));
    }
    m.push(("graph.build_s".into(), since(t)));

    let mut orders: Vec<(PaperGraph, OrderTag)> = Vec::new();
    for k in &keys {
        if k.order != OrderTag::Natural && !orders.contains(&(k.graph, k.order)) {
            orders.push((k.graph, k.order));
        }
    }
    let t = Instant::now();
    for &(pg, o) in &orders {
        drop(wc::graph(pg, scale, o));
    }
    m.push(("graph.reorder_s".into(), since(t)));

    let mut per_kind = vec![0.0f64; KINDS.len()];
    for k in &keys {
        let t = Instant::now();
        build_key(k, scale).ok_or_else(|| format!("unknown workload key {k:?}"))?;
        let i = KINDS.iter().position(|&x| x == k.kind).ok_or("unknown kind")?;
        per_kind[i] += since(t);
    }
    for (kind, s) in KINDS.iter().zip(&per_kind) {
        m.push((kind_metric(kind), *s));
    }
    m.push(("regen.workload_keys".into(), keys.len() as f64));

    let misses0 = misses();
    let sim0 = SimCounters::read();
    let cpu0 = cpu_seconds();
    let t = Instant::now();
    let out = render_all(scale);
    let wall = since(t);
    let cpu = cpu_seconds() - cpu0;
    let sim = SimCounters::read().since(&sim0);
    let builds = misses() - misses0;
    for r in &out {
        m.push((format!("exhibit.{}_s", r.id), r.secs));
    }
    m.push(("regen.exhibit_phase_s".into(), wall));
    m.push(("regen.exhibit_phase_builds".into(), builds));
    m.push(("sim.regions".into(), sim.regions));
    m.push(("sim.chunks".into(), sim.chunks));
    m.push(("sim.host_s".into(), sim.host_s));
    m.push(("sim.chunks_per_s".into(), sim.chunks / sim.host_s.max(1e-9)));
    m.push(("sweep.cpu_s".into(), cpu));
    m.push(("sweep.parallelism".into(), cpu / wall.max(1e-9)));
    m.push(("mem.regen_peak_rss_mb".into(), peak_rss_mb()));

    // The cache layer, on the files a real fill wrote.
    let rewrite = scratch.join("rewrite");
    let (mut load_s, mut read, mut write_s, mut csr_s) = (0.0, 0u64, 0.0, 0.0);
    for p in &files {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.ends_with(".csr") {
            let t = Instant::now();
            mic_eval::graph::io::read_csr_bin_path(p).map_err(|e| format!("{name}: {e:?}"))?;
            csr_s += since(t);
        } else if name.starts_with("wl1-") {
            let t = Instant::now();
            let (meta, arrays) = wc::load_arrays(p, 0, 0).ok_or_else(|| format!("{name}: load failed"))?;
            load_s += since(t);
            read += std::fs::metadata(p).map_or(0, |md| md.len());
            let slices: Vec<&[mic_eval::sim::Work]> = arrays.iter().map(|a| a.as_slice()).collect();
            let t = Instant::now();
            wc::store_arrays(&rewrite.join(name), &meta, &slices);
            write_s += since(t);
        }
    }
    m.push(("graph.load_s".into(), csr_s));
    m.push(("cache.load_s".into(), load_s));
    m.push(("cache.read_mb".into(), read as f64 / 1e6));
    m.push(("cache.write_s".into(), write_s));
    m.push(("cache.written_mb".into(), dir_bytes(&rewrite) as f64 / 1e6));
    let _ = std::fs::remove_dir_all(&rewrite);

    let ok = builds == 0.0;
    let v = Value::Obj(m.into_iter().map(|(k, x)| (k, num(x))).collect());
    Ok((v, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_file_names_parse_back_to_keys() {
        let k = parse_key("wl1-bfs-rmat-ef16-f16-nat-256-65536-blk32r.bin", "f16").unwrap();
        assert_eq!(k.kind, "bfs");
        assert_eq!(k.graph, PaperGraph::RmatEf16);
        assert_eq!(parse_variant(&k.extra), Some(SimVariant::Block { block: 32, relaxed: true }));
        let k = parse_key("wl1-irregular-inline_1-f16-rnd4d-256-65536-i10.bin", "f16").unwrap();
        assert_eq!(k.order, OrderTag::Random { seed: 0x4d });
        assert_eq!(k.extra, "-i10");
        let k = parse_key("wl1-coloring-hood-f16-cm0-1-2.bin", "f16").unwrap();
        assert_eq!(k.order, OrderTag::CuthillMcKee { source: 0 });
        assert_eq!((k.windows.l1_gap, k.windows.l2_gap), (1, 2));
        assert!(parse_key("wl1-coloring-hood-f8-nat-256-65536.bin", "f16").is_none());
        assert_eq!(parse_variant("-bag100"), Some(SimVariant::Bag { grain: 100 }));
        assert_eq!(parse_variant("-tls"), Some(SimVariant::Tls));
    }

    #[test]
    fn speedup_tables_parse_and_check() {
        let mut fig = mic_eval::Figure::new("demo on knf", (0..13).map(|i| 1 + 10 * i).collect());
        fig.push(mic_eval::Series::new("a", (0..13).map(|i| 1.0 + i as f64).collect()));
        fig.push(mic_eval::Series::new("b", (0..13).map(|i| 0.5 + i as f64).collect()));
        let text = fig.to_ascii();
        let t = parse_tables(&text);
        assert_eq!(t.len(), 1);
        assert_eq!((t[0].series, t[0].rows.len()), (2, 13));
        assert!(check_speedup_tables(&text).is_empty());
        // A missing row, a zero point, and no series at 1.00 all fail.
        let cut: String = text.lines().filter(|l| !l.starts_with("      61")).map(|l| format!("{l}\n")).collect();
        assert_eq!(check_speedup_tables(&cut).len(), 1);
        assert!(!check_speedup_tables(&text.replace("     3.00", "     0.00")).is_empty());
        assert!(!check_speedup_tables(&text.replace("     1.00", "     1.10")).is_empty());
    }
}
