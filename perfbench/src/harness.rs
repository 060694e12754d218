//! Shared plumbing: command line, result reporting, latency statistics,
//! the benchmark-side span recorder and the correctness ledger.

use std::fmt::Write as _;
use std::time::Instant;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds out of range: {value}"));
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Metrics of one run, in emission order.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        // JSON has no NaN/inf; an undefined ratio (empty denominator) is
        // reported as 0 and the docs say which layers are idle where.
        let v = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, v, unit));
    }

    /// Human-readable lines (stdout, before the JSON line).
    pub fn print_table(&self, title: &str) {
        println!("== {title}");
        for (name, v, unit) in &self.metrics {
            println!("  {name:<40} {v:>16.6} {unit}");
        }
    }

    /// The one-line JSON result the harness contract asks for.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, v, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}

/// Nearest-rank quantile of an unsorted sample (copies and sorts).
pub fn quantile(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut v = sample.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Host seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Builds a workload's system three times, dropping each before the
/// next, and returns the last one with every set-up's host seconds.
pub fn set_up_thrice<T>(set_up: impl Fn() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut sys = None;
    for _ in 0..3 {
        drop(sys.take());
        let t0 = Instant::now();
        sys = Some(set_up());
        times.push(secs(t0));
    }
    (sys.expect("three set-ups ran"), times)
}

/// Correctness ledger: every checked operation counts as attempted; an
/// error or a mismatch against ground truth counts as failed.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    first_failure: Option<String>,
}

impl Ledger {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
    }

    pub fn merge(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    pub fn first_failure(&self) -> Option<&str> {
        self.first_failure.as_deref()
    }
}

/// A regime guard: the workload must stay in the regime it was built to
/// stress, or the run is refused (no result is printed).
pub fn guard(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("regime guard failed: {what}"))
    }
}

/// One recorded span: a timed call from the benchmark into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Operation (query) index the span belongs to.
    pub op: u32,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. Spans nest by call order; a layer's self time
/// is its duration minus its children's.
#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new(base: Instant) -> Tracer {
        Tracer {
            base,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    pub fn open(&mut self, name: &'static str) -> u32 {
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied().unwrap_or(u32::MAX),
            start_ns: self.base.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(idx);
        idx
    }

    pub fn close(&mut self, idx: u32) {
        self.spans[idx as usize].end_ns = self.base.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
    }

    /// Total duration (µs) and count of spans named `name`.
    pub fn total_us(&self, name: &str) -> (f64, u64) {
        let mut us = 0.0;
        let mut n = 0;
        for s in self.spans.iter().filter(|s| s.name == name) {
            us += (s.end_ns - s.start_ns) as f64 / 1e3;
            n += 1;
        }
        (us, n)
    }

    /// Self time (µs) summed over spans named `name`: duration minus the
    /// duration of their direct children.
    pub fn self_us(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != u32::MAX {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e3)
            .sum()
    }

    /// Summed duration (µs) of root spans: the host time the traced
    /// layer calls explain.
    pub fn root_us(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == u32::MAX)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .sum()
    }

    /// Append another recorder's spans (another client thread's).
    pub fn absorb(&mut self, spans: Vec<Span>) {
        let offset = self.spans.len() as u32;
        self.spans.extend(spans.into_iter().map(|mut s| {
            if s.parent != u32::MAX {
                s.parent += offset;
            }
            s
        }));
    }
}

/// Runs `f` and returns its result with its host µs, inside a span named
/// `name` when a tracer is given.
pub fn timed<T>(
    tracer: Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let span = tracer.map(|t| (t.open(name), t));
    let t0 = Instant::now();
    let out = f();
    let us = t0.elapsed().as_secs_f64() * 1e6;
    if let Some((s, t)) = span {
        t.close(s);
    }
    (out, us)
}

/// Write recorded spans as tab-separated lines under `.bench_out/` in the
/// working directory (the checkout root when run through `run.py`).
pub fn write_spans(workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<String> {
    use std::io::Write;
    std::fs::create_dir_all(".bench_out")?;
    let path = format!(".bench_out/spans-{workload}-{seed}.tsv");
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "op\tname\tparent\tstart_ns\tdur_ns")?;
    for s in spans {
        let parent = if s.parent == u32::MAX {
            -1
        } else {
            s.parent as i64
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.op,
            s.name,
            parent,
            s.start_ns,
            s.end_ns - s.start_ns
        )?;
    }
    out.flush()?;
    Ok(path)
}
