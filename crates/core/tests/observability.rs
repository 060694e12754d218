//! Observability integration tests: histogram registration across the
//! hierarchy, Prometheus exposition invariants, and query-breakdown
//! clamping.

use heaven_array::{CellType, MDArray, Minterval, Point, Tiling};
use heaven_arraydb::ArrayDb;
use heaven_core::{AccessPattern, ClusteringStrategy, ExportMode, Heaven, HeavenConfig};
use heaven_hsm::{HsmSystem, StagingDisk, WatermarkPolicy};
use heaven_obs::{MetricValue, TraceBus};
use heaven_rdbms::Database;
use heaven_tape::{DeviceProfile, DiskProfile, SimClock, TapeLibrary};

fn mi(b: &[(i64, i64)]) -> Minterval {
    Minterval::new(b).unwrap()
}

fn value_at(p: &Point) -> f64 {
    (p.coord(0) * 1000 + p.coord(1)) as f64
}

/// Build a Heaven with one 60x60 i32 object in 10x10 tiles.
fn setup() -> (Heaven, u64) {
    setup_with_batching(HeavenConfig::default().cross_session_batching)
}

/// [`setup`] with sessions' cross-session batching chosen.
fn setup_with_batching(cross_session_batching: bool) -> (Heaven, u64) {
    let clock = SimClock::new();
    let db = Database::new(DiskProfile::scsi2003(), clock.clone(), 4096);
    let mut adb = ArrayDb::create(db).unwrap();
    adb.create_collection("climate", CellType::I32, 2).unwrap();
    let arr = MDArray::generate(mi(&[(0, 59), (0, 59)]), CellType::I32, value_at);
    let oid = adb
        .insert_object(
            "climate",
            &arr,
            Tiling::Regular {
                tile_shape: vec![10, 10],
            },
        )
        .unwrap();
    let lib = TapeLibrary::new(DeviceProfile::ibm3590(), 2, clock);
    let config = HeavenConfig {
        supertile_bytes: Some(4 * 500),
        clustering: ClusteringStrategy::EStar(AccessPattern::Uniform),
        cross_session_batching,
        ..HeavenConfig::default()
    };
    (Heaven::new(adb, lib, config), oid)
}

/// Run a cold query (from tape) and a warm repeat (from caches).
fn run_cold_and_warm(heaven: &mut Heaven, oid: u64) {
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    heaven.clear_caches();
    let q = mi(&[(0, 29), (0, 29)]);
    heaven.begin_query("cold");
    heaven.fetch_region_hierarchical(oid, &q).unwrap();
    heaven.end_query().unwrap();
    heaven.begin_query("warm");
    heaven.fetch_region_hierarchical(oid, &q).unwrap();
    heaven.end_query().unwrap();
}

#[test]
fn hierarchy_histograms_fill_during_a_cold_query() {
    let (mut heaven, oid) = setup();
    run_cold_and_warm(&mut heaven, oid);
    let snapshot = heaven.metrics().snapshot();
    let find = |name: &str| {
        snapshot
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.clone())
    };
    // Every level of the hierarchy that a cold fetch crosses must have
    // observed at least one duration.
    for name in [
        "heaven.query_latency_s",
        "heaven.st_fetch_hist_s",
        "heaven.st_fetch_bytes",
        "tape.exchange_hist_s",
        "tape.transfer_hist_s",
        "rdbms.page_io_hist_s",
    ] {
        match find(name) {
            Some(MetricValue::Histogram(h)) => {
                assert!(h.count > 0, "{name} has no observations");
                assert!(
                    h.quantile(0.5) >= h.min && h.quantile(0.5) <= h.max,
                    "{name}"
                );
            }
            other => panic!("{name} missing or not a histogram: {other:?}"),
        }
    }
    // Two bracketed queries → two latency observations.
    match find("heaven.query_latency_s") {
        Some(MetricValue::Histogram(h)) => assert_eq!(h.count, 2),
        _ => unreachable!(),
    }
}

#[test]
fn prometheus_exposition_holds_cumulative_invariant() {
    let (mut heaven, oid) = setup();
    run_cold_and_warm(&mut heaven, oid);
    let text = heaven.metrics().render_prometheus();
    // For every histogram series: bucket counts are non-decreasing in
    // `le`, buckets end with `+Inf`, and the `+Inf` count equals `_count`.
    let mut cur: Option<(String, f64, u64)> = None; // (name, last le, last count)
    let mut inf_counts: Vec<(String, u64)> = Vec::new();
    let mut histograms = 0;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            if rest.ends_with(" histogram") {
                histograms += 1;
            }
            cur = None;
            continue;
        }
        if let Some((series, value)) = line.split_once(' ') {
            if let Some((name, le)) = series
                .split_once("_bucket{le=\"")
                .map(|(n, l)| (n, l.trim_end_matches("\"}")))
            {
                let count: u64 = value.parse().unwrap();
                let le_v = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap()
                };
                if let Some((prev_name, prev_le, prev_count)) = &cur {
                    if prev_name == name {
                        assert!(le_v > *prev_le, "{name}: le not increasing");
                        assert!(count >= *prev_count, "{name}: counts not cumulative");
                    }
                }
                cur = Some((name.to_string(), le_v, count));
                if le == "+Inf" {
                    inf_counts.push((name.to_string(), count));
                }
            } else if let Some(name) = series.strip_suffix("_count") {
                if let Some((inf_name, inf_count)) = inf_counts.iter().find(|(n, _)| n == name) {
                    assert_eq!(
                        *inf_count,
                        value.parse::<u64>().unwrap(),
                        "{inf_name}: +Inf bucket != _count"
                    );
                }
            }
        }
    }
    assert!(
        histograms >= 5,
        "expected several histograms, got {histograms}:\n{text}"
    );
    assert!(
        !inf_counts.is_empty(),
        "no +Inf buckets found in exposition:\n{text}"
    );
    assert!(text.contains("heaven_query_latency_s_count 2"), "{text}");
}

#[test]
fn overattributed_breakdown_clamps_other_and_counts() {
    let (mut heaven, oid) = setup();
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    heaven.clear_caches();
    // A clean query attributes all time, leaving other_s >= 0 and no
    // over-attribution.
    heaven.begin_query("clean");
    heaven
        .fetch_region_hierarchical(oid, &mi(&[(0, 9), (0, 9)]))
        .unwrap();
    let clean = heaven.end_query().unwrap();
    assert!(clean.other_s >= 0.0);
    let over_before = heaven
        .metrics()
        .counter("heaven.breakdown_overattributed")
        .get();
    // Inflate a level counter inside the bracket: the attributed sum now
    // exceeds the clock delta, which must clamp — never a negative
    // residual — and be counted.
    heaven.begin_query("overlapped");
    heaven
        .fetch_region_hierarchical(oid, &mi(&[(10, 19), (0, 9)]))
        .unwrap();
    heaven.metrics().fcounter("tape.transfer_s").add(1e6);
    let b = heaven.end_query().unwrap();
    assert!(
        b.other_s >= 0.0,
        "other_s must never be negative, got {}",
        b.other_s
    );
    assert_eq!(b.other_s, 0.0);
    assert!(b.levels_sum_s() > b.total_s);
    assert_eq!(
        heaven
            .metrics()
            .counter("heaven.breakdown_overattributed")
            .get(),
        over_before + 1
    );
}

/// Every tertiary fetch observes both fetch histograms exactly once,
/// whichever path staged it: the single owner, a batched session or a
/// FIFO session.
#[test]
fn fetch_histograms_count_every_tape_fetch_on_every_path() {
    let whole = mi(&[(0, 59), (0, 59)]);
    for path in ["owner", "batched session", "fifo session"] {
        let (mut heaven, oid) = setup_with_batching(path == "batched session");
        heaven.export_object(oid, ExportMode::Tct).unwrap();
        heaven.clear_caches();
        if path == "owner" {
            heaven.fetch_region_hierarchical(oid, &whole).unwrap();
        } else {
            heaven.session().fetch_region(oid, &whole).unwrap();
        }
        let m = heaven.metrics();
        let fetches = m.counter("heaven.st_tape_fetches").get();
        assert!(fetches > 0, "{path}: the cold read must reach tape");
        for hist in ["heaven.st_fetch_hist_s", "heaven.st_fetch_bytes"] {
            assert_eq!(
                m.histogram(hist).snapshot().count,
                fetches,
                "{path}: {hist} samples vs heaven.st_tape_fetches"
            );
        }
    }
}

/// The metric names of DESIGN.md §4b's catalog table. A row names one or
/// more metrics separated by ` / `; a name written `.b` after `a.x`
/// shares `a.x`'s prefix (`cache.st.hits` / `.misses` is
/// `cache.st.misses`).
fn documented_metrics() -> Vec<String> {
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
        .expect("DESIGN.md");
    let catalog = design
        .split("### Metric catalog")
        .nth(1)
        .and_then(|rest| rest.split("\n### ").next())
        .expect("DESIGN.md has a metric catalog");
    let mut names = Vec::new();
    for row in catalog.lines().filter(|l| l.starts_with("| `")) {
        let cell = row.split('|').nth(1).unwrap();
        let mut prefix = "";
        for name in cell.split(" / ").map(|n| n.trim().trim_matches('`')) {
            match name.strip_prefix('.') {
                Some(tail) => names.push(format!("{prefix}.{tail}")),
                None => {
                    prefix = name.rsplit_once('.').map_or(name, |(p, _)| p);
                    names.push(name.to_string());
                }
            }
        }
    }
    names
}

/// A Heaven after one cold owner query and one cold batched-session
/// query, so every metric either path registers is registered.
fn after_cold_owner_and_session_queries() -> Heaven {
    let (mut heaven, oid) = setup_with_batching(true);
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    let q = mi(&[(0, 29), (0, 29)]);
    heaven.clear_caches();
    heaven.begin_query("cold owner");
    heaven.fetch_region_hierarchical(oid, &q).unwrap();
    heaven.end_query().unwrap();
    heaven.clear_caches();
    heaven.session().fetch_region(oid, &q).unwrap();
    heaven
}

/// Every metric a cold owner query and a cold batched-session query
/// register has a row in DESIGN.md §4b's catalog.
#[test]
fn every_registered_metric_is_in_the_design_catalog() {
    let heaven = after_cold_owner_and_session_queries();
    let documented = documented_metrics();
    let undocumented: Vec<&str> = heaven
        .metrics()
        .snapshot()
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| !documented.iter().any(|d| d == name))
        .collect();
    assert!(
        undocumented.is_empty(),
        "registered metrics without a DESIGN.md §4b row: {undocumented:?}"
    );
}

/// The other direction: every DESIGN.md §4b row names a metric that is
/// registered. The baseline file-granularity HSM (experiments E4/E5) is
/// the only owner of `hsm.stage_hist_s` / `hsm.archive_hist_s`, so one is
/// attached to the same registry.
#[test]
fn every_design_catalog_row_is_registered() {
    let heaven = after_cold_owner_and_session_queries();
    let clock = SimClock::new();
    let disk = StagingDisk::new(DiskProfile::scsi2003(), 1 << 20, clock.clone());
    let lib = TapeLibrary::new(DeviceProfile::ibm3590(), 1, clock);
    HsmSystem::new(disk, lib, WatermarkPolicy::default())
        .attach_obs(heaven.metrics(), TraceBus::noop());
    let registered: Vec<&str> = heaven
        .metrics()
        .snapshot()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let unregistered: Vec<String> = documented_metrics()
        .into_iter()
        .filter(|d| !registered.contains(&d.as_str()))
        .collect();
    assert!(
        unregistered.is_empty(),
        "DESIGN.md §4b rows no run registers: {unregistered:?}"
    );
}
