//! Result plumbing shared by the workloads: named metrics, per-phase op
//! counts, order statistics, `obs` snapshot deltas, the environment block
//! and the hand-written JSON the benchmark prints (the repository vendors
//! no serializer).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Ops of one phase of a workload. A failed output check counts as a
/// failed op of the phase it happened in.
pub struct Phase {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

/// Everything a workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub phases: Vec<Phase>,
    pub metrics: Vec<Metric>,
    /// First few failed checks, for the human reading stderr.
    pub errors: Vec<String>,
    /// Extra `key: value` lines for the informational JSON line (spread
    /// of samples, tracing overhead, sample counts).
    pub notes: Vec<(String, f64)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    pub fn note(&mut self, key: impl Into<String>, value: f64) {
        self.notes.push((key.into(), value));
    }

    pub fn phase(&mut self, name: &'static str) -> &mut Phase {
        if let Some(i) = self.phases.iter().position(|p| p.name == name) {
            return &mut self.phases[i];
        }
        self.phases.push(Phase { name, attempted: 0, failed: 0 });
        self.phases.last_mut().expect("just pushed")
    }

    /// Count one op of `phase`; `Err` marks it failed and keeps the
    /// message.
    pub fn record(&mut self, phase: &'static str, result: Result<(), String>) {
        let p = self.phase(phase);
        p.attempted += 1;
        if let Err(e) = result {
            p.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(format!("{phase}: {e}"));
            }
        }
    }

    /// Every op attempted and none failed.
    pub fn correct(&self) -> bool {
        self.attempted() > 0 && self.failed() == 0 && self.errors.is_empty()
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }
}

/// SplitMix64: the seeded source of every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005e_ed0f_be9c_4a11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// An exact dyadic value in [-2, 2): sums of these are exact, so a
    /// replay yields bit-identical results.
    pub fn dyadic(&mut self) -> f64 {
        self.below(256) as f64 / 64.0 - 2.0
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of positive `values`; 0 when empty. Each value
/// weighs the same in relative terms, so a metric made of op kinds whose
/// latencies differ tenfold still moves when any one kind slows down.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Linear-interpolated quantile `q` in [0, 1]; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, 0 when `den` is 0 (a layer that did no work this run).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Set up `times` times and keep the last result; returns it with the
/// median set-up time in seconds. Earlier instances are dropped before
/// the next one is built, so they never share the machine.
pub fn setup_repeated<T>(times: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("built at least once"), median(&secs))
}

/// A before/after pair of `obs` snapshots: what the layers did between
/// two points of the run.
pub struct ObsDelta {
    before: obs::MetricsSnapshot,
    after: obs::MetricsSnapshot,
}

impl ObsDelta {
    pub fn between(before: obs::MetricsSnapshot, after: obs::MetricsSnapshot) -> ObsDelta {
        ObsDelta { before, after }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.after.counter(name).saturating_sub(self.before.counter(name)) as f64
    }

    fn hist_pair(&self, name: &str) -> (obs::HistogramSnapshot, obs::HistogramSnapshot) {
        let get = |s: &obs::MetricsSnapshot| s.histogram(name).cloned().unwrap_or_default();
        (get(&self.before), get(&self.after))
    }

    /// Sum of the samples a histogram gained (µs for `*_us` metrics).
    pub fn hist_sum(&self, name: &str) -> f64 {
        let (b, a) = self.hist_pair(name);
        a.sum.saturating_sub(b.sum) as f64
    }

    pub fn hist_count(&self, name: &str) -> f64 {
        let (b, a) = self.hist_pair(name);
        a.count.saturating_sub(b.count) as f64
    }

    /// Quantile of the samples a histogram gained (log2-bucket upper
    /// bound, as `obs` reports it).
    pub fn hist_quantile(&self, name: &str, q: f64) -> f64 {
        let (b, a) = self.hist_pair(name);
        let mut d = obs::HistogramSnapshot {
            count: a.count.saturating_sub(b.count),
            sum: a.sum.saturating_sub(b.sum),
            max: a.max,
            ..Default::default()
        };
        for (i, slot) in d.buckets.iter_mut().enumerate() {
            *slot = a.buckets[i].saturating_sub(b.buckets[i]);
        }
        d.quantile(q) as f64
    }
}

/// Process CPU time (user + system) from `/proc/self/stat`, in seconds.
pub fn process_cpu_seconds() -> f64 {
    /// `USER_HZ`, the unit of the `/proc` tick fields on Linux.
    const TICKS_PER_SECOND: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// Peak resident set size of this process so far (`VmHWM` in
/// `/proc/self/status`), in MiB; 0 when unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// First line of a command's output, or "unknown". Git is kept from
/// looking above the current directory, so a checkout that is not a
/// repository reads "unknown" rather than some enclosing repository.
fn command_line(program: &str, args: &[&str]) -> String {
    let mut cmd = std::process::Command::new(program);
    if let Some(parent) =
        std::env::current_dir().ok().and_then(|d| d.parent().map(|p| p.to_owned()))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    cmd.args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON, with every digit Rust's shortest round-trip
/// formatting gives it.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The environment block: host, toolchain, source revision and the
/// shipped engine configuration the workloads run at.
pub fn environment_json() -> String {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let config = vector_engine::EngineConfig::default().to_kv();
    let knobs: Vec<String> = config
        .lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    format!(
        "{{\"environment\": {{\"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}, \
         \"git_commit\": {}, \"engine_config\": {{{}}}}}}}",
        quote(&cpu_model()),
        quote(&command_line("rustc", &["-V"])),
        quote(&command_line("git", &["rev-parse", "HEAD"])),
        knobs.join(", ")
    )
}

/// The informational line printed before the result: per-phase op
/// counts and the workload's notes.
pub fn detail_json(workload: &str, outcome: &Outcome) -> String {
    let phases: Vec<String> = outcome
        .phases
        .iter()
        .map(|p| {
            format!(
                "{}: {{\"attempted\": {}, \"succeeded\": {}, \"failed\": {}}}",
                quote(p.name),
                p.attempted,
                p.attempted - p.failed,
                p.failed
            )
        })
        .collect();
    let notes: Vec<String> =
        outcome.notes.iter().map(|(k, v)| format!("{}: {}", quote(k), number(*v))).collect();
    format!(
        "{{\"workload\": {}, \"phases\": {{{}}}, \"notes\": {{{}}}}}",
        quote(workload),
        phases.join(", "),
        notes.join(", ")
    )
}

/// The result line the benchmark contract asks for (always the last line
/// of standard output).
pub fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted().max(1),
        outcome.failed(),
        metrics.join(", ")
    )
}
