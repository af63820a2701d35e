//! Host-time benchmark of the I-DGNN simulator.
//!
//! ```text
//! idgnn-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! idgnn-perfbench --smoke
//! idgnn-perfbench --record-reference <seed>...
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics (`setup_s`,
//! `snapshots_per_s`, `cold_run_s`, `peak_rss_mb`); with `--trace 1` the
//! per-layer metrics of one traced pass. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--smoke` runs all three workloads at a tiny size through the same output
//! checks. The end-to-end timings are scaled by a host-speed calibration
//! kernel timed alongside each sample (see `calib.rs`). `--record-reference`
//! prints the reference lines `reference.txt` holds. See `README.md` for
//! what each metric means.

mod calib;
mod trace;
mod workloads;

use std::process::Command;
use std::time::Instant;

use workloads::{check_reference, setup, BenchResult, Inputs, Kind, RefCheck};

/// Seed the benchmark documents as its default.
const DEFAULT_SEED: u64 = 42;
/// Seed kept out of tuning, to confirm a gain on.
const HELD_OUT_SEED: u64 = 7;
/// Fewest fresh processes that each time one cold run, and the least time
/// spent on them.
const COLD_PROBES: usize = 5;
const COLD_SECONDS: f64 = 8.0;
/// Fewest set-ups timed in the main process, and the least time spent on
/// them: set-up takes tens of milliseconds, so one sample is mostly noise.
const SETUP_REPS: usize = 11;
const SETUP_SECONDS: f64 = 1.0;
/// Untraced and traced passes, alternated, behind `trace.overhead_s`.
const TRACE_PASSES: usize = 2;
/// Fewest warm repetitions, whatever `--seconds` says.
const MIN_WARM: usize = 3;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Pin host parallelism for every kernel and driver, including any thread
    // that does not inherit a kernel scope.
    idgnn_sparse::parallel::set_process_default(idgnn_sparse::Parallelism::new(
        workloads::PARALLELISM,
    ));
    let _scope = idgnn_sparse::parallel::kernel_scope(idgnn_sparse::Parallelism::new(
        workloads::PARALLELISM,
    ));
    let outcome = match Cli::parse(&args) {
        Ok(Cli::Run {
            kind,
            seed,
            seconds,
            trace,
        }) => {
            if trace {
                run_traced(kind, seed)
            } else {
                run_timed(kind, seed, seconds)
            }
        }
        Ok(Cli::Probe { kind, seed }) => probe(kind, seed),
        Ok(Cli::Smoke) => smoke(),
        Ok(Cli::Record { seeds }) => record(&seeds),
        Err(e) => Err(e),
    };
    if let Err(e) = outcome {
        eprintln!("idgnn-perfbench: {e}");
        std::process::exit(1);
    }
}

/// Parsed command line.
enum Cli {
    Run {
        kind: Kind,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    Probe {
        kind: Kind,
        seed: u64,
    },
    Smoke,
    Record {
        seeds: Vec<u64>,
    },
}

impl Cli {
    fn parse(args: &[String]) -> BenchResult<Cli> {
        match args.first().map(String::as_str) {
            Some("--smoke") => return Ok(Cli::Smoke),
            Some("--record-reference") => {
                let seeds = args[1..]
                    .iter()
                    .map(|s| s.parse())
                    .collect::<Result<_, _>>()?;
                return Ok(Cli::Record { seeds });
            }
            _ => {}
        }
        let mut kind = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds: f64 = 10.0;
        let mut trace = false;
        let mut probe = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--probe" {
                probe = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    kind = Some(
                        Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = value.parse()?,
                "--seconds" => seconds = value.parse()?,
                "--trace" => trace = value == "1",
                other => return Err(format!("unknown flag {other}").into()),
            }
        }
        let kind = kind.ok_or("--workload is required")?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(if probe {
            Cli::Probe { kind, seed }
        } else {
            Cli::Run {
                kind,
                seed,
                seconds,
                trace,
            }
        })
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Highest of the usual percentiles with at least ten samples beyond it,
/// with its nearest-rank value in the slow direction of `times`.
fn tail(times: &[f64]) -> Option<(u32, f64)> {
    let mut v = times.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [99u32, 95, 90, 75, 50].into_iter().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100).max(1);
        (n - rank >= 10).then(|| (p, v[rank - 1]))
    })
}

/// FNV-1a over the observable bits, so a child can report its output in one
/// token.
fn digest(bits: &[u64]) -> u64 {
    bits.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        b.to_le_bytes()
            .iter()
            .fold(h, |h, &x| (h ^ u64::from(x)).wrapping_mul(0x100_0000_01b3))
    })
}

/// `VmHWM` of this process, kB.
fn peak_rss_kb() -> BenchResult<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(line
        .split_whitespace()
        .nth(1)
        .ok_or("malformed VmHWM")?
        .parse()?)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The host configuration every result depends on.
fn banner(kind: &str, seed: u64) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let online = std::fs::read_to_string("/sys/devices/system/cpu/online").unwrap_or_default();
    println!(
        "# workload={kind} seed={seed} default_seed={DEFAULT_SEED} held_out_seed={HELD_OUT_SEED} nproc={nproc} \
         cpus_allowed={} cpus_online={} parallelism={} profile={profile} proven-unchecked={}",
        cpus_allowed(),
        online.trim(),
        workloads::PARALLELISM,
        cfg!(feature = "proven-unchecked"),
    );
}

/// The CPUs this process may run on, as `/proc/self/status` lists them.
fn cpus_allowed() -> String {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map_or_else(|| "?".into(), |l| l.trim().to_string())
}

/// Pins this process to the first CPU it may run on, so that the
/// calibration sampler shares the workload's vCPU (see `calib.rs`). Threads
/// and processes started later inherit the pin. Without `taskset` the run
/// goes on unpinned, and the banner's `cpus_allowed` shows it.
fn pin_to_one_cpu() {
    let allowed = cpus_allowed();
    if let Some(first) = allowed.split([',', '-']).next() {
        let _ = Command::new("taskset")
            .args(["-pc", first, &std::process::id().to_string()])
            .output();
    }
}

/// Result tally and the final JSON line.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    fn finish(&self, metrics: &[(&str, f64, &str)]) {
        for p in &self.problems {
            println!("# FAILED: {p}");
        }
        println!(
            "# operations: {} failed / {} attempted",
            self.failed, self.attempted
        );
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let correct = self.failed == 0 && metrics.iter().all(|m| m.1.is_finite());
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}

/// Checks the untimed full statistics against the reference and, on the
/// linear workloads, the one-pass hidden state against Recompute. Returns
/// the bits every timed run must reproduce.
fn validate(
    kind: Kind,
    name: &str,
    seed: u64,
    inputs: &Inputs,
    tally: &mut Tally,
) -> BenchResult<Vec<u64>> {
    let stats = inputs.stats()?;
    let reference = check_reference(name, seed, &stats);
    println!("# reference: {reference:?}");
    tally.op(!matches!(reference, RefCheck::Mismatch(_)), || {
        format!("reference: {reference:?}")
    });
    if kind.linear() {
        let d = inputs.oracle_drift()?;
        println!(
            "# one-pass vs Recompute max-abs drift: {d:e} (tolerance {:e})",
            workloads::ORACLE_TOLERANCE
        );
        tally.op(d <= workloads::ORACLE_TOLERANCE, || format!("drift {d:e}"));
    }
    Ok(inputs.expected_run(&stats))
}

/// `--probe`: a fresh process that sets up once and times its first call.
/// It prints the wall-clock time the call ended, so the parent can scale the
/// call by the calibration timings it took meanwhile.
fn probe(kind: Kind, seed: u64) -> BenchResult<()> {
    let (inputs, setup_s) = timed(|| setup(kind, seed, false));
    let inputs = inputs?;
    let (bits, cold) = calib::sample(|| inputs.run());
    let d = bits.map_or(0, |b| digest(&b));
    println!(
        "probe {setup_s:?} {:?} {} {d} {:?}",
        cold.secs,
        peak_rss_kb()?,
        cold.end
    );
    Ok(())
}

fn run_timed(kind: Kind, seed: u64, seconds: f64) -> BenchResult<()> {
    let name = kind.name();
    pin_to_one_cpu();
    banner(name, seed);
    let mut tally = Tally::default();
    let sampler = calib::Sampler::start();

    // Cold runs: each in a fresh process, before this one does any work.
    let exe = std::env::current_exe()?;
    let mut cold = Vec::new();
    let mut rss = Vec::new();
    let mut digests = Vec::new();
    let probes = Instant::now();
    let mut n = 0;
    while n < COLD_PROBES || probes.elapsed().as_secs_f64() < COLD_SECONDS {
        n += 1;
        let out = Command::new(&exe)
            .args(["--probe", "--workload", name, "--seed", &seed.to_string()])
            .output()?;
        let text = String::from_utf8_lossy(&out.stdout);
        let fields: Vec<&str> = text
            .lines()
            .find(|l| l.starts_with("probe "))
            .map_or(vec![], |l| l.split(' ').collect());
        if !out.status.success() || fields.len() != 6 {
            tally.op(false, || {
                format!("cold probe: {}", String::from_utf8_lossy(&out.stderr))
            });
            continue;
        }
        cold.push(calib::Sample {
            secs: fields[2].parse()?,
            end: fields[5].parse()?,
        });
        rss.push(fields[3].parse::<f64>()? / 1024.0);
        digests.push(fields[4].parse::<u64>()?);
    }

    let mut setups: Vec<calib::Sample> = Vec::new();
    let mut inputs = None;
    while setups.len() < SETUP_REPS || setups.iter().map(|s| s.secs).sum::<f64>() < SETUP_SECONDS {
        // Drop the previous inputs first so set-up never holds two copies.
        drop(inputs.take());
        let (i, s) = calib::sample(|| setup(kind, seed, false));
        inputs = Some(i?);
        setups.push(s);
    }
    let inputs = inputs.ok_or("no set-up ran")?;
    let expected = validate(kind, name, seed, &inputs, &mut tally)?;
    let want = digest(&expected);
    for d in digests {
        tally.op(d == want, || "cold probe output differs".into());
    }

    let mut runs = Vec::new();
    let start = Instant::now();
    while runs.len() < MIN_WARM || start.elapsed().as_secs_f64() < seconds {
        let (bits, s) = calib::sample(|| inputs.run());
        match bits {
            Ok(b) => tally.op(b == expected, || "warm run output differs".into()),
            Err(e) => tally.op(false, || format!("warm run: {e}")),
        }
        runs.push(s);
    }
    let timeline = sampler.finish()?;

    let scaled =
        |xs: &[calib::Sample]| -> Vec<f64> { xs.iter().map(|&s| timeline.scale(s)).collect() };
    let raw = |xs: &[calib::Sample]| median(&xs.iter().map(|s| s.secs).collect::<Vec<_>>());
    let times = scaled(&runs);
    let snapshots = inputs.snapshots() as f64;
    let rates: Vec<f64> = times.iter().map(|t| snapshots / t).collect();
    println!(
        "# setup_s: median of {} set-ups; cold_run_s, peak_rss_mb: median of {} fresh processes",
        setups.len(),
        cold.len()
    );
    println!(
        "# calibration: kernel median {:.6} s over {} timings (reference {} s); \
         unscaled medians: set-up {:.5} s, warm run {:.4} s, cold run {:.4} s",
        timeline.median(),
        timeline.len(),
        calib::REFERENCE_S,
        raw(&setups),
        raw(&runs),
        raw(&cold)
    );
    print!(
        "# warm runs (scaled): n={} median {:.4} s/run",
        times.len(),
        median(&times)
    );
    match tail(&times) {
        Some((p, v)) => println!(", p{p} {v:.4} s/run"),
        None => println!(" (fewer than 20 runs: no percentile has 10 samples beyond it)"),
    }
    let metrics = [
        ("setup_s", median(&scaled(&setups)), "s"),
        ("snapshots_per_s", median(&rates), "1/s"),
        ("cold_run_s", median(&scaled(&cold)), "s"),
        ("peak_rss_mb", median(&rss), "MB"),
    ];
    for (n, v, u) in &metrics {
        println!("# {n} = {v:.6} {u}");
    }
    tally.finish(&metrics);
    Ok(())
}

fn run_traced(kind: Kind, seed: u64) -> BenchResult<()> {
    let name = kind.name();
    banner(name, seed);
    let mut tally = Tally::default();
    let inputs = setup(kind, seed, false)?;
    let mut setup_spans = trace::Spans::new(true);
    let same = setup_spans.time("graph.generate_s", || {
        workloads::regenerate(&inputs, kind, seed, false)
    })?;
    tally.op(same, || "regenerated stream differs from set-up's".into());
    let expected = validate(kind, name, seed, &inputs, &mut tally)?;
    tally.op(inputs.run()? == expected, || {
        "warm-up run output differs".into()
    });

    // Alternate untraced and traced passes; the metrics come from the last
    // traced pass, the overhead from the medians of both kinds.
    let linear = kind.linear();
    let (mut t_off, mut t_on) = (Vec::new(), Vec::new());
    let (mut spans, mut counts) = (trace::Spans::new(true), trace::Counts::default());
    let (mut pool0, mut pool1) = ((0, 0), (0, 0));
    for _ in 0..TRACE_PASSES {
        let (off, t) = timed(|| {
            trace::pass(
                &inputs,
                linear,
                &mut trace::Spans::new(false),
                &mut trace::Counts::default(),
            )
        });
        off?;
        t_off.push(t);
        (spans, counts) = (trace::Spans::new(true), trace::Counts::default());
        pool0 = idgnn_sparse::workspace::pool_counters();
        let (on, t) = timed(|| trace::pass(&inputs, linear, &mut spans, &mut counts));
        on?;
        pool1 = idgnn_sparse::workspace::pool_counters();
        t_on.push(t);
    }
    tally.op(trace::replay_ok(&counts), || {
        format!("replay diverged by {:e}", counts.replay_gap)
    });
    if linear {
        tally.op(counts.drift <= workloads::ORACLE_TOLERANCE, || {
            format!("drift {:e}", counts.drift)
        });
    }

    let metrics = trace::metrics(
        &spans,
        &counts,
        &setup_spans,
        (pool1.0 - pool0.0, pool1.1 - pool0.1),
        median(&t_on) - median(&t_off),
    );
    let get = |n: &str| metrics.iter().find(|m| m.0 == n).map_or(0.0, |m| m.1);
    println!("# workload properties");
    println!(
        "#   mean dissimilarity        {:.5}",
        counts.dissimilarity / counts.streams.max(1) as f64
    );
    println!(
        "#   refresh ratio             {:.4} ({} of {} transitions)",
        get("model.refresh_ratio"),
        counts.refreshed,
        counts.transitions
    );
    println!(
        "#   nnz(dA_C) / V^2           {:.6}",
        if counts.acomb_calls > 0 {
            counts.delta_ac_density / counts.acomb_calls as f64
        } else {
            0.0
        }
    );
    println!(
        "#   power cache h/m/p         {}/{}/{}",
        counts.cache[0], counts.cache[1], counts.cache[2]
    );
    println!("#   replay vs executor gap    {:e}", counts.replay_gap);
    for (n, v, u) in &metrics {
        println!("# {n} = {v:.6} {u}");
    }
    tally.finish(&metrics);
    Ok(())
}

/// `--smoke`: every workload at a tiny size, through the determinism,
/// reference, oracle and replay checks.
fn smoke() -> BenchResult<()> {
    banner("smoke", DEFAULT_SEED);
    let mut tally = Tally::default();
    let mut metrics = Vec::new();
    for kind in workloads::ALL {
        let name = format!("smoke-{}", kind.name());
        let (inputs, setup_s) = timed(|| setup(kind, DEFAULT_SEED, true));
        let inputs = inputs?;
        let expected = validate(kind, &name, DEFAULT_SEED, &inputs, &mut tally)?;
        let (bits, run_s) = timed(|| inputs.run());
        tally.op(bits? == expected, || format!("{name}: run output differs"));
        let mut counts = trace::Counts::default();
        trace::pass(
            &inputs,
            kind.linear(),
            &mut trace::Spans::new(true),
            &mut counts,
        )?;
        tally.op(trace::replay_ok(&counts), || {
            format!("{name}: replay diverged by {:e}", counts.replay_gap)
        });
        println!("# {name}: setup {setup_s:.4} s, run {run_s:.4} s");
        metrics.push((kind.name(), run_s, "s"));
    }
    tally.finish(&metrics);
    Ok(())
}

/// `--record-reference`: the reference lines for the given seeds plus the
/// smoke size at the default seed.
fn record(seeds: &[u64]) -> BenchResult<()> {
    for kind in workloads::ALL {
        let name = format!("smoke-{}", kind.name());
        for c in setup(kind, DEFAULT_SEED, true)?.stats()? {
            println!("{}", c.line(&name, DEFAULT_SEED));
        }
    }
    for &seed in seeds {
        for kind in workloads::ALL {
            for c in setup(kind, seed, false)?.stats()? {
                println!("{}", c.line(kind.name(), seed));
            }
        }
    }
    Ok(())
}
