//! The repo's benchmark for the protection path. See `README.md` in
//! this directory for what it measures and why; `BENCHMARK.json` at the
//! repo root declares the same workloads and metrics for the pipeline.
//!
//! ```text
//! toleo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! toleo-benchmark run --all [--seed <n>] [--out <file>]
//! toleo-benchmark compare <a.json> <b.json>
//! toleo-benchmark --selftest
//! ```

#![deny(unsafe_code)]

mod alloc;
mod compare;
mod json;
mod layers;
mod memory;
mod reference;
mod report;
mod spans;
mod stats;
mod workloads;

use json::Value;
use layers::LayerMetric;
use reference::Calibrator;
use report::{well_formed_name, Kind, Measured, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{run_round, Engine, Pass, Pool, Round, Spec, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Share of a run's seconds spent on clock-free rounds; the rest goes
/// to latency rounds.
const TIMED_SHARE: f64 = 0.5;
/// Rounds per workload in `run --all`.
const RUN_ALL_ROUNDS: usize = 20;
const RUN_ALL_LATENCY_ROUNDS: usize = 10;

/// Everything the package writes goes under its own `out/`.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn manifest_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// Value of `--flag <value>` in `args`.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot read {v:?}")),
    }
}

/// The environment must not steer the engines: every engine here is
/// built with an explicit fault plan, and the AES backend is whatever
/// the host detects (recorded in the output).
fn check_environment() -> Result<&'static str, String> {
    for var in ["TOLEO_FAULT_PLAN", "TOLEO_AES_BACKEND"] {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; unset it, the benchmark fixes its own configuration"
            ));
        }
    }
    Ok(toleo_crypto::backend::default_backend().name())
}

fn print_measured(workload: &str, metrics: &[Measured]) {
    for m in metrics {
        print!("{workload} {} {} {}", m.spec.name, m.value, m.spec.unit);
        if m.spec.kind == Kind::WallClock {
            print!(" ({} as clocked)", m.as_clocked);
        }
        println!();
    }
}

fn print_layers(workload: &str, layers: &[LayerMetric]) {
    for m in layers {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
}

/// What the host-speed reference measured over the run: with these as
/// a workload's nominal values, the run's metrics would read as clocked.
fn print_host(workload: &str, timed: &[Round], latency: &[Round]) {
    let median = |v: Vec<f64>| stats::quartiles(&v).map_or(0.0, |q| q.median);
    println!(
        "{workload} reference ran at {:.4e} blocks/s, op p50 {:.2} ns",
        median(timed.iter().map(|r| r.host.blocks_per_s).collect()),
        median(latency.iter().map(|r| r.host.op_p50_ns).collect())
    );
}

fn print_tail(workload: &str, latency: &[Round]) {
    if let Some((permille, ns, samples, beyond)) = report::pooled_tail(latency) {
        println!(
            "{workload} op_tail p{} = {ns:.1} ns over {samples} clocked ops ({beyond} beyond it)",
            permille as f64 / 10.0
        );
    }
}

/// The result line the pipeline reads: last line of standard output.
fn result_line(
    attempted: u64,
    failed: u64,
    metrics: impl IntoIterator<Item = (String, f64, String)>,
) -> String {
    let metrics = Value::obj(metrics.into_iter().map(|(name, value, unit)| {
        assert!(value.is_finite(), "{name} is not a number");
        (
            name,
            Value::obj([("value", Value::Num(value)), ("unit", Value::Str(unit))]),
        )
    }));
    Value::obj([
        // A wrong read aborts the process before this line is reached.
        ("correct", Value::Bool(true)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics),
    ])
    .to_json()
}

fn write_trace(spec: &Spec, recorder: &spans::Recorder) -> Result<(), String> {
    let path = out_dir().join(format!("trace-{}.jsonl", spec.name));
    recorder
        .write_jsonl(&path, spec.name)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let outside = recorder.root().map_or(0, |root| recorder.self_ns(root));
    println!(
        "{} trace {} spans, {:.3} s of the round outside any of them -> {}",
        spec.name,
        recorder.len(),
        outside as f64 / 1e9,
        path.display()
    );
    Ok(())
}

/// One pipeline run: `--workload W --seed N --seconds S --trace T`.
fn run_one(args: &[String]) -> Result<(), String> {
    let name = flag(args, "--workload").ok_or("--workload <name> is required")?;
    let spec = workloads::spec(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = parsed(args, "--seed", 1)?;
    let seconds: f64 = parsed(args, "--seconds", 10.0)?;
    let trace: u8 = parsed(args, "--trace", 0)?;
    let backend = check_environment()?;
    println!(
        "{name} aes_backend {backend}; host threads {}",
        host_threads()
    );
    if trace == 1 {
        let (layers, reference, recorder) = layers::measure(spec, seed, 1.0);
        print_layers(name, &layers);
        write_trace(spec, &recorder)?;
        let metrics = layers
            .iter()
            .map(|m| (m.name.to_string(), m.value, m.unit.to_string()));
        println!(
            "{}",
            result_line(reference.attempted, reference.failed, metrics)
        );
        return Ok(());
    }
    let start = Instant::now();
    let inputs = workloads::generate(spec, seed, 1.0);
    let pool = Pool::new(seed);
    let mut cal = Calibrator::new(spec, &pool, &inputs.ops[..spec.ref_ops], seed);
    let mut timed = Vec::new();
    let mut latency = Vec::new();
    loop {
        timed.push(run_round(spec, seed, 1.0, Pass::Timed, Some(&mut cal)));
        if start.elapsed().as_secs_f64() >= seconds * TIMED_SHARE {
            break;
        }
    }
    loop {
        latency.push(run_round(spec, seed, 1.0, Pass::Latency, Some(&mut cal)));
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let metrics = report::end_to_end(spec, &timed, &latency);
    print_measured(name, &metrics);
    print_tail(name, &latency);
    print_host(name, &timed, &latency);
    println!(
        "{name} rounds {} timed + {} latency in {:.3} s",
        timed.len(),
        latency.len(),
        start.elapsed().as_secs_f64()
    );
    let attempted = timed.iter().chain(&latency).map(|r| r.attempted).sum();
    let failed = timed.iter().chain(&latency).map(|r| r.failed).sum();
    let metrics = metrics
        .iter()
        .map(|m| (m.spec.name.to_string(), m.value, m.spec.unit.to_string()));
    println!("{}", result_line(attempted, failed, metrics));
    Ok(())
}

fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Every workload in one process, rounds interleaved round-robin so
/// that host drift lands on all of them alike.
fn run_all(args: &[String]) -> Result<(), String> {
    if !args.iter().any(|a| a == "--all") {
        return Err("run: only `run --all` is supported".into());
    }
    let seed: u64 = parsed(args, "--seed", 1)?;
    let out = flag(args, "--out").map_or_else(
        || out_dir().join(format!("result-seed{seed}.json")),
        PathBuf::from,
    );
    let backend = check_environment()?;
    let start = Instant::now();
    let mut timed: Vec<Vec<Round>> = vec![Vec::new(); WORKLOADS.len()];
    let mut latency: Vec<Vec<Round>> = vec![Vec::new(); WORKLOADS.len()];
    let pool = Pool::new(seed);
    let inputs: Vec<_> = WORKLOADS
        .iter()
        .map(|w| workloads::generate(w, seed, 1.0))
        .collect();
    let mut cals: Vec<_> = WORKLOADS
        .iter()
        .zip(&inputs)
        .map(|(w, inputs)| Calibrator::new(w, &pool, &inputs.ops[..w.ref_ops], seed))
        .collect();
    for _ in 0..RUN_ALL_ROUNDS {
        for ((w, rounds), cal) in WORKLOADS.iter().zip(timed.iter_mut()).zip(&mut cals) {
            rounds.push(run_round(w, seed, 1.0, Pass::Timed, Some(cal)));
        }
    }
    for _ in 0..RUN_ALL_LATENCY_ROUNDS {
        for ((w, rounds), cal) in WORKLOADS.iter().zip(latency.iter_mut()).zip(&mut cals) {
            rounds.push(run_round(w, seed, 1.0, Pass::Latency, Some(cal)));
        }
    }
    drop(cals);
    let mut per_workload = Vec::new();
    for ((w, timed), latency) in WORKLOADS.iter().zip(&timed).zip(&latency) {
        let metrics = report::end_to_end(w, timed, latency);
        print_measured(w.name, &metrics);
        print_host(w.name, timed, latency);
        print_tail(w.name, latency);
        let (layers, _, recorder) = layers::measure(w, seed, 1.0);
        print_layers(w.name, &layers);
        write_trace(w, &recorder)?;
        let end_to_end = Value::obj(metrics.iter().map(|m| (m.spec.name, m.to_json())));
        let per_layer = Value::obj(layers.iter().map(|m| {
            (
                m.name,
                Value::obj([
                    ("unit", Value::Str(m.unit.to_string())),
                    ("value", Value::Num(m.value)),
                ]),
            )
        }));
        per_workload.push((
            w.name,
            Value::obj([("end_to_end", end_to_end), ("per_layer", per_layer)]),
        ));
    }
    let wall_s = start.elapsed().as_secs_f64();
    let result = Value::obj([
        ("schema", Value::Str("toleo-benchmark/v1".into())),
        ("seed", Value::Num(seed as f64)),
        ("aes_backend", Value::Str(backend.into())),
        ("host_threads", Value::Num(host_threads() as f64)),
        ("rounds", Value::Num(RUN_ALL_ROUNDS as f64)),
        ("latency_rounds", Value::Num(RUN_ALL_LATENCY_ROUNDS as f64)),
        ("wall_s", Value::Num(wall_s)),
        ("workloads", Value::obj(per_workload)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, result.to_json() + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "run --all: {} workloads, seed {seed}, {wall_s:.1} s; result -> {}",
        WORKLOADS.len(),
        out.display()
    );
    Ok(())
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Checks the benchmark against its own declaration: names, units,
/// directions and bounds in `BENCHMARK.json` are the catalogue's, every
/// catalogued metric is emitted by every workload, and the exact
/// metrics repeat under one seed and move under another.
fn selftest() -> Result<(), String> {
    check_environment()?;
    let start = Instant::now();
    let manifest = read_json(&manifest_path().to_string_lossy())?;
    let names = |key: &str| -> Result<Vec<&Value>, String> {
        Ok(manifest
            .get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: no {key}"))?
            .iter()
            .collect())
    };
    let text = |v: &Value, key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string()
    };
    let declared: Vec<(String, String)> = names("workloads")?
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    if declared != ours {
        return Err(format!(
            "workloads differ:\n BENCHMARK.json {declared:?}\n benchmark      {ours:?}"
        ));
    }
    if let Some((name, _)) = ours
        .iter()
        .find(|(name, why)| !well_formed_name(name) || why.len() > 200 || why.contains('\n'))
    {
        return Err(format!("workload {name}: malformed name or why"));
    }

    let declared: Vec<(String, String, String, Option<f64>)> = names("end_to_end")?
        .iter()
        .map(|m| {
            (
                text(m, "name"),
                text(m, "unit"),
                text(m, "better"),
                m.get("bound").and_then(Value::as_f64),
            )
        })
        .collect();
    let ours: Vec<_> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.as_str().to_string(),
                Some(m.bound),
            )
        })
        .collect();
    if declared != ours {
        return Err(format!(
            "end_to_end differs:\n BENCHMARK.json {declared:?}\n benchmark      {ours:?}"
        ));
    }
    let declared: Vec<(String, String, String)> = names("per_layer")?
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let ours: Vec<_> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            (
                name.to_string(),
                unit.to_string(),
                better.as_str().to_string(),
            )
        })
        .collect();
    if declared != ours {
        return Err(format!(
            "per_layer differs:\n BENCHMARK.json {declared:?}\n benchmark      {ours:?}"
        ));
    }
    if END_TO_END.len() > 16 || PER_LAYER.len() > 128 {
        return Err("too many metrics".into());
    }
    if let Some(bad) = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.0))
        .find(|n| !well_formed_name(n))
    {
        return Err(format!("metric name {bad:?} is malformed"));
    }

    // Every workload at about 1% of its size, windows shrunk to match.
    const SCALE: f64 = 0.01;
    let mut exact: [Vec<f64>; 3] = Default::default();
    for w in &WORKLOADS {
        let small = Spec {
            window_bytes: w.window_bytes.min(1 << 18),
            ..*w
        };
        for (run, seed) in [41, 41, 42].into_iter().enumerate() {
            let timed = [run_round(&small, seed, SCALE, Pass::Timed, None)];
            let latency = [run_round(&small, seed, SCALE, Pass::Latency, None)];
            let metrics = report::end_to_end(&small, &timed, &latency);
            if metrics.len() != END_TO_END.len()
                || metrics
                    .iter()
                    .any(|m| !m.value.is_finite() || m.value == 0.0)
            {
                return Err(format!(
                    "{}: an end-to-end metric is missing, zero or not a number",
                    w.name
                ));
            }
            exact[run].extend(
                metrics
                    .iter()
                    .filter(|m| m.spec.kind == Kind::Exact)
                    .map(|m| m.value),
            );
            let failed = timed[0].failed + latency[0].failed;
            if failed != 0 {
                return Err(format!("{}: {failed} ops were never served", w.name));
            }
            let refused = timed[0].siege.refused_ops + latency[0].siege.refused_ops;
            if (w.engine == Engine::Siege) != (refused > 0) {
                return Err(format!(
                    "{}: {refused} ops refused; the campaign must refuse some, nothing else any",
                    w.name
                ));
            }
        }
        let (layers, _, _) = layers::measure(&small, 41, SCALE);
        if layers.len() != PER_LAYER.len() || layers.iter().any(|m| !m.value.is_finite()) {
            return Err(format!(
                "{}: a per-layer metric is missing or not a number",
                w.name
            ));
        }
    }
    if exact[0] != exact[1] {
        return Err(format!(
            "exact metrics differ between two runs of one seed:\n {:?}\n {:?}",
            exact[0], exact[1]
        ));
    }
    if exact[0] == exact[2] {
        return Err(
            "exact metrics did not move under a second seed: the seed is not reaching the inputs"
                .into(),
        );
    }
    println!(
        "selftest ok: {} workloads, {} end-to-end and {} per-layer metrics match BENCHMARK.json; \
         {} exact values repeat under seed 41 and move under seed 42; {:.1} s",
        WORKLOADS.len(),
        END_TO_END.len(),
        PER_LAYER.len(),
        exact[0].len(),
        start.elapsed().as_secs_f64()
    );
    Ok(())
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("--selftest") => selftest().map(|()| true),
        Some("run") => run_all(&args[1..]).map(|()| true),
        Some("compare") => match args {
            [_, a, b] => compare::compare(&read_json(a)?, &read_json(b)?),
            _ => Err("usage: compare <a.json> <b.json>".into()),
        },
        Some(_) if flag(args, "--workload").is_some() => run_one(args).map(|()| true),
        _ => Err("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> | run --all [--seed <n>] | compare <a.json> <b.json> | --selftest".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("toleo-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
