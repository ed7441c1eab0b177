//! `serve_mixed`: `serve::Server` over a Dense(w=64,d=4) experiment with
//! 100k facts, taking single-row predicts and an analytic query at once.
//!
//! One generator thread sends predicts open loop at a fixed 2000/s: the
//! send schedule is fixed in advance, because independent users do not
//! wait for each other. Between sends it waits on the oldest outstanding
//! handle until the next send is due. Each predict is timed from when it
//! was due to be sent, so a stall also charges the requests queued behind
//! it. A refusal (`Overloaded`) or a `Timeout` is a failed op and is not
//! retried. A second thread is a closed-loop SQL client. Every reply is
//! checked: predicts against `Model::predict_row`, the query against the
//! answer computed once at set-up. The traced run sends every other
//! predict and every other query through a live tracer, so the untraced
//! ones give the overhead baseline.

use crate::layers::Layers;
use crate::report::{self, median, quantile, setup_repeated, us, ObsDelta, Outcome, Rng};
use crate::trace::{self, Alternating, Split, Tracer};
use crate::Args;
use indbml_core::{Experiment, ExperimentConfig, Workload};
use serve::{RequestHandle, Response, ServeConfig, Server};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tensor::Device;
use vector_engine::{QueryResult, Value};

const WORKLOAD: Workload = Workload::Dense { width: 64, depth: 4 };
const FACT_ROWS: usize = 100_000;
const SETUPS: usize = 41;
/// Open-loop predict rate, per second.
const RATE: u64 = 2000;
/// Distinct predict inputs; the seeded schedule cycles through them.
const INPUTS: usize = 4096;
const PREDICT_TOLERANCE: f32 = 1e-4;
const SQL: &str = "SELECT COUNT(*), SUM(c0), MIN(c1), MAX(c2) FROM facts WHERE c0 > 0.1";

struct Setup {
    ex: Experiment,
    server: Server,
    /// The query's answer, computed once at set-up.
    answer: Vec<Value>,
}

impl Setup {
    fn build(seed: u64) -> Result<Setup, String> {
        let ex = Experiment::build(ExperimentConfig {
            seed,
            ..ExperimentConfig::new(WORKLOAD, FACT_ROWS)
        })
        .map_err(|e| format!("experiment build: {e}"))?;
        let server = ex.serve(ServeConfig::from_engine(&ex.config().engine), Device::cpu());
        let answer = ex.engine.execute(SQL).map_err(|e| format!("set-up query: {e}"))?.row(0);
        // Build the served model now, so its cache is warm before timing.
        let warm = vec![5.0; ex.model.input_dim()];
        server
            .submit_predict("model", warm)
            .and_then(RequestHandle::wait)
            .map_err(|e| format!("warm-up predict: {e}"))?;
        Ok(Setup { ex, server, answer })
    }
}

/// Seeded predict inputs in Iris's feature range, with their oracle
/// outputs.
fn inputs(ex: &Experiment, seed: u64) -> Vec<(Vec<f32>, Vec<f32>)> {
    let mut rng = Rng::new(seed ^ 0x7072_6564);
    (0..INPUTS)
        .map(|_| {
            let x: Vec<f32> =
                (0..ex.model.input_dim()).map(|_| rng.below(80) as f32 / 10.0).collect();
            let y = ex.model.predict_row(&x);
            (x, y)
        })
        .collect()
}

fn check_prediction(
    reply: Result<Response, serve::ServeError>,
    expected: &[f32],
) -> Result<(), String> {
    match reply.map_err(|e| e.to_string())? {
        Response::Prediction(p)
            if p.len() == expected.len()
                && p.iter().zip(expected).all(|(a, b)| (a - b).abs() < PREDICT_TOLERANCE) =>
        {
            Ok(())
        }
        other => Err(format!("predicted {other:?}, expected {expected:?}")),
    }
}

fn check_answer(result: &QueryResult, answer: &[Value]) -> Result<(), String> {
    if result.num_rows() != 1 {
        return Err(format!("{} rows, expected 1", result.num_rows()));
    }
    let row = result.row(0);
    // COUNT, MIN and MAX are exact; SUM may merge partition partials in
    // another order, so it is compared to a relative 1e-12.
    let same = row.len() == answer.len()
        && row.iter().zip(answer).all(|(a, b)| match (a.as_f64(), b.as_f64()) {
            (Ok(a), Ok(b)) => (a - b).abs() <= 1e-12 * b.abs().max(1.0),
            _ => false,
        });
    if same {
        Ok(())
    } else {
        Err(format!("answered {row:?}, expected {answer:?}"))
    }
}

/// What one open-loop phase measured.
#[derive(Default)]
struct LoadResult {
    predict_us: Split,
    sql_ms: Split,
    late_us: Vec<f64>,
    submit_us: Vec<f64>,
}

/// Run the open-loop generator and the SQL client for `duration`.
fn drive(
    setup: &Setup,
    inputs: &[(Vec<f32>, Vec<f32>)],
    order: &[usize],
    duration: Duration,
    tracers: &Alternating,
    out: &mut Outcome,
) -> LoadResult {
    let stop = AtomicBool::new(false);
    let mut result = LoadResult::default();
    let mut sql_checks = Vec::new();
    std::thread::scope(|scope| {
        let sql_client = scope.spawn(|| {
            let mut lat = Split::default();
            let mut checks = Vec::new();
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let tracer = tracers.pick(n);
                n += 1;
                let req = (1u64 << 40) + n;
                let t0 = Instant::now();
                let reply = {
                    let _root = tracer.request("sql", req);
                    setup.server.submit_sql(SQL).and_then(RequestHandle::wait)
                };
                let check = match reply {
                    Ok(Response::Rows(r)) => check_answer(&r, &setup.answer),
                    Ok(other) => Err(format!("unexpected reply {other:?}")),
                    Err(e) => Err(e.to_string()),
                };
                if check.is_ok() {
                    lat.push(tracer, report::ms(t0.elapsed()));
                }
                checks.push(check);
            }
            (lat, checks)
        });

        let period = Duration::from_nanos(1_000_000_000 / RATE);
        let total = (duration.as_nanos() / period.as_nanos()) as usize;
        // Outstanding predicts: handle, due time, input, tracer.
        let mut inflight: VecDeque<(RequestHandle, Instant, usize, &Tracer)> = VecDeque::new();
        let begin = Instant::now();
        let mut sent = 0;
        loop {
            let now = Instant::now();
            if sent < total {
                let due = begin + period * sent as u32;
                if now >= due {
                    let idx = order[sent % order.len()];
                    result.late_us.push(us(now - due));
                    let tracer = tracers.pick(sent as u64);
                    let submitted = {
                        let _root = tracer.request("predict", sent as u64 + 1);
                        let t0 = Instant::now();
                        let h = setup.server.submit_predict("model", inputs[idx].0.clone());
                        result.submit_us.push(us(t0.elapsed()));
                        h
                    };
                    match submitted {
                        Ok(h) => inflight.push_back((h, due, idx, tracer)),
                        Err(e) => out.record("predict", Err(e.to_string())),
                    }
                    sent += 1;
                    continue;
                }
                match inflight.front() {
                    Some((h, _, _, _)) => {
                        if let Some(reply) = h.wait_timeout(due - now) {
                            let (_, d, idx, tracer) = inflight.pop_front().expect("front exists");
                            let check = check_prediction(reply, &inputs[idx].1);
                            if check.is_ok() {
                                result.predict_us.push(tracer, us(d.elapsed()));
                            }
                            out.record("predict", check);
                        }
                    }
                    None => std::thread::sleep(due - now),
                }
            } else {
                let Some((h, d, idx, tracer)) = inflight.pop_front() else { break };
                let check = check_prediction(h.wait(), &inputs[idx].1);
                if check.is_ok() {
                    result.predict_us.push(tracer, us(d.elapsed()));
                }
                out.record("predict", check);
            }
        }
        stop.store(true, Ordering::Relaxed);
        let (lat, checks) = sql_client.join().expect("sql client panicked");
        result.sql_ms = lat;
        sql_checks = checks;
    });
    for c in sql_checks {
        out.record("sql", c);
    }
    result
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup, setup_s) = setup_repeated(SETUPS, || Setup::build(args.seed));
    let setup = match setup {
        Ok(s) => s,
        Err(e) => {
            out.record("setup", Err(e));
            return out;
        }
    };
    out.record("setup", Ok(()));
    let inputs = inputs(&setup.ex, args.seed);
    let mut order: Vec<usize> = (0..INPUTS).collect();
    Rng::new(args.seed).shuffle(&mut order);

    let tracers = Alternating::new(args.trace);
    let obs0 = obs::snapshot();
    let cpu0 = report::process_cpu_seconds();
    let t0 = Instant::now();
    let r = drive(&setup, &inputs, &order, args.seconds, &tracers, &mut out);
    if !args.trace {
        // The predicts are the main op, the SQL query the other one.
        out.metric("setup_s", "s", setup_s);
        out.metric("latency_ms", "ms", quantile(&r.predict_us.plain, 0.5) / 1e3);
        out.metric("other_latency_ms", "ms", median(&r.sql_ms.plain));
        out.metric("peak_rss_mb", "MB", report::peak_rss_mb());
        out.note("predict_p50_us", quantile(&r.predict_us.plain, 0.5));
        // Printed, not gated: on a 2-core VM the p99 tracks hypervisor
        // steal time (1.3-8.7 ms across ten runs), so no bound holds.
        out.note("predict_p99_us", quantile(&r.predict_us.plain, 0.99));
        out.note("sql_p50_ms", median(&r.sql_ms.plain));
        out.note("predict.samples", r.predict_us.count() as f64);
        out.note("sql.samples", r.sql_ms.count() as f64);
        out.note("generator.late_p99_us", quantile(&r.late_us, 0.99));
        out.note("generator.late_max_us", quantile(&r.late_us, 1.0));
        return out;
    }

    let cpu_per_wall = (report::process_cpu_seconds() - cpu0) / t0.elapsed().as_secs_f64();
    let delta = ObsDelta::between(obs0, obs::snapshot());
    tracers.live.dump("serve_mixed", args.seed);
    let ops = (r.predict_us.count() + r.sql_ms.count()) as f64;
    let mut l = Layers::default();
    l.set_common(&delta, ops, cpu_per_wall);
    l.set("serve.submit_us", median(&r.submit_us));
    l.set("load.gen_late_p99_us", quantile(&r.late_us, 0.99));
    l.set("load.gen_late_max_us", quantile(&r.late_us, 1.0));
    // Predicts are not sequential paths (replies arrive while the
    // generator sends), so only the overhead is measured here.
    l.set_trace(trace::overhead([&r.predict_us]), 0.0, &mut out);
    out.note("trace.overhead_share.sql_p50_ms", trace::overhead([&r.sql_ms]));
    l.emit(&mut out);
    out
}
