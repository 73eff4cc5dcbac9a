//! The repository benchmark: four seeded closed-loop workloads on the
//! paper's Fig. 14 topology (4 nodes, all services, 1024 vBuckets, one
//! replica), driven by two client threads in this process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ycsb_a --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! workload and seed with the benchmark's own spans on alternate slices
//! and reports the per-layer table instead. `--workload all` runs every
//! workload, each in a fresh process. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod check;
mod host;
mod layers;
mod run;
mod spec;
mod stats;
mod stream;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use cbs_ycsb::generators::key_for;

use crate::spec::{Kind, Spec, CLIENT_THREADS, FLUSHER_SHARDS, NODES};
use crate::stream::Class;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 2;
/// Environment variables the program reads that change what is measured.
const REFUSED_ENV: [&str; 2] = ["CBS_TRACE_SAMPLE", "CBS_SLOW_OP_MS"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: set up once, print the set-up time, and exit.
    setup_only: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10, trace: false, setup_only: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    if args.workload != "all" && Spec::by_name(&args.workload).is_none() {
        return Err(format!(
            "--workload must be one of {} or all, not {:?}",
            spec::NAMES.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&argv).and_then(|a| {
        if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
            return Err(format!("{var} is set; it changes the program being measured, unset it"));
        }
        if a.workload == "all" {
            run_all(&argv)
        } else {
            run_one(&a)
        }
    }) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Run every workload in a fresh process of this binary.
fn run_all(argv: &[String]) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut worst = 0;
    for name in spec::NAMES {
        let mut args: Vec<String> = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                args.push(a.clone());
            }
        }
        args.extend(["--workload".to_string(), name.to_string()]);
        println!("== {name}");
        let status = std::process::Command::new(&exe)
            .args(&args)
            .status()
            .map_err(|e| format!("{name}: {e}"))?;
        worst = worst.max(status.code().unwrap_or(1));
    }
    Ok(worst)
}

/// Remove data directories left by runs that were killed before they could
/// clean up (each is named `<workload>-<pid>`).
fn remove_stale_data_dirs() {
    let Ok(entries) = std::fs::read_dir(".bench_data") else { return };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let pid = name.rsplit_once('-').map(|(_, p)| p.to_string()).unwrap_or_default();
        if !pid.is_empty() && !std::path::Path::new("/proc").join(&pid).exists() {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// Time one set-up in a fresh process of this binary, so every set-up
/// starts from the same state and leaves nothing behind in this one.
fn setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", &args.workload, "--seed", &args.seed.to_string(), "--setup-only"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up process: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let secs =
        text.lines().last().and_then(|l| l.strip_prefix("setup_s ")).and_then(|v| v.parse().ok());
    match secs {
        Some(s) if out.status.success() => Ok(s),
        _ => Err(format!("set-up process failed ({}): {text}", out.status)),
    }
}

/// A workload's two op classes: the one the paper measures and the one
/// that rides along. The bounded latency metrics follow these roles.
fn classes(kind: Kind) -> (Class, Class) {
    match kind {
        Kind::YcsbA | Kind::YcsbBDgm => (Class::Read, Class::Update),
        Kind::YcsbE => (Class::Scan, Class::Insert),
        Kind::DurableWrite => (Class::Replicate, Class::Persist),
    }
}

/// `(name, unit)` of every metric in `section` of `BENCHMARK.json` (in the
/// working directory, the repository root).
fn declared_metrics(section: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let manifest = cbs_json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let entries = manifest.get_field(section).and_then(|v| v.as_array()).unwrap_or(&[]);
    entries
        .iter()
        .map(|m| {
            let field = |f: &str| m.get_field(f).and_then(|v| v.as_str()).map(str::to_string);
            field("name").zip(field("unit")).ok_or(format!("BENCHMARK.json {section}: {m}"))
        })
        .collect()
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn run_one(args: &Args) -> Result<i32, String> {
    let spec = Spec::by_name(&args.workload).ok_or("unknown workload")?;
    let seed = args.seed;
    // `setup_s` is the median of several set-ups; all but the last run in
    // child processes before this one builds anything.
    let extra_setups = if args.trace || args.setup_only { 0 } else { SETUPS - 1 };
    let mut setup_secs =
        (0..extra_setups).map(|_| setup_in_child(args)).collect::<Result<Vec<f64>, String>>()?;

    // Inputs first: every document and op is built before set-up starts.
    let t_inputs = Instant::now();
    let load = stream::load_docs(&spec, seed);
    let streams =
        if args.setup_only { Vec::new() } else { stream::streams(&spec, seed, CLIENT_THREADS) };
    let key_space = streams
        .iter()
        .flat_map(|s| s.ops.iter().map(|o| u64::from(o.key) + 1))
        .chain([spec.records()])
        .max()
        .unwrap_or(0);
    let keys: Vec<String> = (0..key_space).map(key_for).collect();

    remove_stale_data_dirs();
    let root = PathBuf::from(".bench_data").join(format!("{}-{}", spec.name, std::process::id()));
    std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    let _root = run::DataDir(root.clone());
    let data_fs = host::fs_type(&root);
    let root = root.join("cluster");

    let inputs_s = t_inputs.elapsed().as_secs_f64();
    let setup = run::setup(&spec, &load, &keys, &root)?;
    setup_secs.push(setup.secs);
    if args.setup_only {
        println!("setup_s {}", setup.secs);
        return Ok(0);
    }
    let load_retries = setup.load_retries;
    // The cluster now holds the loaded documents; keep only what the
    // checks need.
    let load: Vec<(u64, u64)> = {
        let docs = load;
        docs.iter().map(|d| (d.digest, d.user_bytes)).collect()
    };
    let cluster = &setup.cluster;

    let before = args.trace.then(|| layers::Snap::take(cluster));
    let cpu0 = host::process_cpu_s();
    let ticks0 = host::CpuTicks::now();
    let start = Instant::now() + Duration::from_millis(2);
    let window = run::Window {
        cluster,
        keys: &keys,
        records: spec.records(),
        active: run::Window::active_engines(cluster)?,
        start,
        end: start + Duration::from_secs(args.seconds),
        trace: args.trace,
    };
    let (out, sub_cpu) = run::run_window(&window, &streams)?;
    // Per-sub-window throughput and CPU efficiency; their medians shrug
    // off a second of host steal or a compaction burst.
    // A sub-window in which no op started (every thread blocked) counts.
    let mut per_sub = out.per_sub.clone();
    per_sub.resize(sub_cpu.len().saturating_sub(1), 0);
    let sub_secs = run::SUB_WINDOW.as_secs_f64();
    let sub_tput: Vec<f64> = per_sub.iter().map(|n| *n as f64 / sub_secs).collect();
    let sub_eff: Vec<f64> = per_sub
        .iter()
        .zip(sub_cpu.windows(2))
        .map(|(n, c)| stats::ratio(*n as f64, c[1] - c[0]))
        .collect();
    let elapsed = out.finished.map_or(0.0, |f| (f - start).as_secs_f64());
    let cpu_s = host::process_cpu_s() - cpu0;
    let ticks1 = host::CpuTicks::now();
    let after = args.trace.then(|| layers::Snap::take(cluster));
    let (steal_frac, cpu_util) = ticks0.fractions(&ticks1);

    let t_verify = Instant::now();
    let verified = run::verify(cluster, &keys, &load, &out);
    let verify_s = t_verify.elapsed().as_secs_f64();
    let disk_ratio = stats::ratio(run::file_bytes(cluster) as f64, verified.user_bytes as f64);
    let peak_rss = host::peak_rss_mb();

    let attempted = out.attempted();
    let failed = out.failed();
    let violations = out.violation_count + verified.violation_count;
    let correct = violations == 0;
    for v in out.violations.iter().chain(&verified.violations) {
        println!("violation: {v}");
    }

    println!(
        "provenance {{\"workload\":{},\"seed\":{seed},\"seconds\":{},\"trace\":{},\"git\":{},\
         \"nproc\":{},\"cpu_model\":{},\"data_fs\":{},\"params\":{},\"setup_s\":[{}],\
         \"load_retries\":{load_retries},\"window_s\":{},\"process_cpu_s\":{},\
         \"host_steal_s\":{},\"host_steal_frac\":{},\"host_cpu_util\":{},\
         \"keys_checked\":{},\"violations\":{violations},\"errors\":{{{}}},\
         \"inputs_s\":{},\"verify_s\":{},\"throughput_mean\":{},\"ops_per_cpu_s_mean\":{},\"sub_throughput\":[{}],\
         \"sub_ops_per_cpu_s\":[{}]}}",
        json_str(spec.name),
        args.seconds,
        args.trace,
        json_str(&host::git_revision()),
        host::nproc(),
        json_str(&host::cpu_model()),
        json_str(&data_fs),
        spec.describe(),
        setup_secs.iter().map(|s| json_num(*s)).collect::<Vec<_>>().join(","),
        json_num(elapsed),
        json_num(cpu_s),
        json_num(ticks0.steal_s(&ticks1)),
        json_num(steal_frac),
        json_num(cpu_util),
        verified.keys_checked,
        out.errors.iter().map(|(k, v)| format!("{}:{v}", json_str(k))).collect::<Vec<_>>().join(","),
        json_num(inputs_s),
        json_num(verify_s),
        json_num(stats::ratio(attempted as f64, elapsed)),
        json_num(stats::ratio(attempted as f64, cpu_s)),
        sub_tput.iter().map(|x| format!("{x:.0}")).collect::<Vec<_>>().join(","),
        sub_eff.iter().map(|x| format!("{x:.0}")).collect::<Vec<_>>().join(","),
    );

    let lat =
        |c: Class, p: f64| stats::percentile(&out.samples[c.index()], p).map(|ns| ns as f64 / 1e3);
    let (primary, secondary) = classes(spec.kind);
    let reported: Vec<(String, &str, Option<f64>)> = if args.trace {
        let (Some(before), Some(after)) = (&before, &after) else {
            return Err("traced run without snapshots".to_string());
        };
        let w = layers::Window {
            out: &out,
            secs: elapsed,
            steal_frac,
            cpu_util,
            flusher_threads: (NODES * FLUSHER_SHARDS) as f64,
        };
        layers::table(before, after, &w)
            .into_iter()
            .map(|m| (m.name.to_string(), m.unit, m.applicable.then_some(m.value)))
            .collect()
    } else {
        let mut v: Vec<(String, &str, Option<f64>)> = vec![
            ("setup_s".into(), "s", stats::median(&setup_secs)),
            ("throughput_ops_s".into(), "1/s", stats::median(&sub_tput)),
            ("ops_per_cpu_s".into(), "1/cpu_s", stats::median(&sub_eff)),
            ("error_rate".into(), "ratio", Some(stats::ratio(failed as f64, attempted as f64))),
            ("peak_rss_mb".into(), "MB", Some(peak_rss)),
            ("disk_bytes_per_user_byte".into(), "ratio", Some(disk_ratio)),
        ];
        for c in [Class::Read, Class::Update, Class::Scan, Class::Replicate, Class::Persist] {
            for p in [50.0, 99.0] {
                v.push((format!("{}_p{p}_us", c.name()), "us", lat(c, p)));
            }
        }
        // The same latencies by role, so one name means the workload's
        // headline op (primary) or the op riding along (secondary).
        for (role, c) in [("primary", primary), ("secondary", secondary)] {
            for p in [50.0, 99.0] {
                v.push((format!("{role}_p{p}_us"), "us", lat(c, p)));
            }
        }
        v
    };
    println!("{:<40} {:>16} unit", "metric", "value");
    for (name, unit, value) in &reported {
        match value {
            Some(x) => println!("{name:<40} {x:>16.4} {unit}"),
            None => println!("{name:<40} {:>16} {unit}", "n/a"),
        }
    }

    // The result line carries exactly the metrics BENCHMARK.json declares.
    let section = if args.trace { "per_layer" } else { "end_to_end" };
    let mut body = Vec::new();
    for (name, unit) in declared_metrics(section)? {
        let Some((_, ours, value)) = reported.iter().find(|(n, _, _)| *n == name) else {
            return Err(format!(
                "BENCHMARK.json declares {name}, which this benchmark does not measure"
            ));
        };
        if *ours != unit {
            return Err(format!("{name}: BENCHMARK.json says {unit}, measured in {ours}"));
        }
        let value = match value {
            Some(v) => *v,
            // Per-layer metrics a workload does not exercise read 0 (the
            // table above marks them n/a); an end-to-end metric must exist.
            None if args.trace => 0.0,
            None => return Err(format!("{name} is not measured on {}", spec.name)),
        };
        body.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(&name),
            json_num(value),
            json_str(&unit)
        ));
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        name.len() <= 64
            && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn manifest() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark")
    }

    #[test]
    fn every_metric_name_is_well_formed() {
        let v = cbs_json::parse(&manifest()).expect("BENCHMARK.json is JSON");
        let mut names: Vec<String> = Vec::new();
        for section in ["workloads", "end_to_end", "per_layer"] {
            for m in v.get_field(section).and_then(|s| s.as_array()).expect(section) {
                names.push(m.get_field("name").and_then(|n| n.as_str()).expect("name").to_string());
            }
        }
        names.extend(layers::tests::names().into_iter().map(|(n, _)| n.to_string()));
        for c in Class::ALL {
            for p in [50.0, 99.0] {
                names.push(format!("{}_p{p}_us", c.name()));
            }
        }
        assert!(names.len() > 40);
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        assert!(!valid_name("a b") && !valid_name("_x") && !valid_name(""));
    }

    #[test]
    fn per_layer_table_matches_the_manifest() {
        let v = cbs_json::parse(&manifest()).expect("BENCHMARK.json is JSON");
        let declared: Vec<(String, String)> = v
            .get_field("per_layer")
            .and_then(|s| s.as_array())
            .expect("per_layer")
            .iter()
            .map(|m| {
                let f = |k: &str| m.get_field(k).and_then(|x| x.as_str()).unwrap().to_string();
                (f("name"), f("unit"))
            })
            .collect();
        let measured: Vec<(String, String)> = layers::tests::names()
            .into_iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared, measured);
    }

    #[test]
    fn argument_parsing() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload ycsb_e --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("ycsb_e", 9, 3, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload ycsb_a --trace 2")).is_err());
        assert!(parse_args(&argv("--workload ycsb_a --seconds 0")).is_err());
    }
}
